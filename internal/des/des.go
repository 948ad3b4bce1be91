// Package des is the sequential discrete-event simulation kernel: one
// future event list, one executor — the baseline every parallel kernel in
// the paper is measured against (§2.1). Its FEL is eventq.Mono, a radix
// heap: the model never schedules into the past, so the queue is
// monotone.
package des

import (
	"fmt"
	"time"

	"unison/internal/eventq"
	"unison/internal/obs"
	"unison/internal/sim"
)

// Kernel is the sequential DES kernel.
type Kernel struct {
	// Observe, when non-nil, receives run begin/end notifications, a
	// progress RoundRecord at every telemetry pause (every progressEvery
	// executed events, at the next timestamp boundary) and one for the
	// tail of the run: each covers the events since the previous one, so
	// the records sum to the run.
	Observe obs.Probe
}

// progressEvery is the sequential kernel's telemetry cadence in executed
// events: live watchers need a record now and then, since a sequential run
// has no rounds to report, and the model's pause clients without a cadence
// of their own (sampler rows) run at the same pauses.
const progressEvery = 50_000

// New returns a sequential kernel.
func New() *Kernel { return &Kernel{} }

// Name implements sim.Kernel.
func (k *Kernel) Name() string { return "sequential" }

type felSink struct {
	fel *eventq.Mono
}

func (s *felSink) Put(ev sim.Event)       { s.fel.Push(ev) }
func (s *felSink) PutGlobal(ev sim.Event) { s.fel.Push(ev) }

// Run executes m to completion (stop event or empty FEL).
func (k *Kernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("des: %w", err)
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	fel := &eventq.Mono{}
	seqs := sim.NewSeqTable(m.Nodes)
	var events, round uint64
	var now sim.Time
	if ks := m.Restore; ks != nil {
		if len(ks.Seqs) != len(seqs) {
			return nil, fmt.Errorf("des: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(seqs))
		}
		copy(seqs, ks.Seqs)
		fel.PushBatch(ks.Queue)
		events, round, now = ks.Events, ks.Round, ks.EndTime
	} else {
		fel.PushBatch(m.Init)
	}
	sink := &felSink{fel: fel}
	ctx := sim.NewCtx(sink, 0)

	obs.Begin(k.Observe, obs.RunMeta{Kernel: k.Name(), Workers: 1, LPs: 1})
	// A pause is due once the event count reaches pauses.Next(), but only
	// taken at the next timestamp boundary (every pending event strictly
	// after the last executed one), where zero-delay closures cannot be in
	// flight (DESIGN.md §11).
	ps := m.Pauses
	prog := &progress{probe: k.Observe, fel: fel, events: events, start: start}
	if k.Observe != nil {
		ps = append(ps[:len(ps):len(ps)], sim.Pause{New: func() sim.Pauser {
			return sim.PauseFunc(func(ks *sim.KernelState) {
				prog.file(ks.Events, ks.EndTime, time.Now()) //unison:wallclock-ok progress-telemetry timing, observation only
			})
		}})
	}
	pauses := sim.OpenPauses("des", ps, progressEvery, events, seqs, 1, func(_ int, dst []sim.Event) []sim.Event { return fel.Snapshot(dst) },
		func(int) int { return fel.Len() })
	next := pauses.Next()
	for !fel.Empty() {
		if events >= next && fel.NextTime() > now {
			if pauses.Numbered(events) {
				round++
			}
			if err := pauses.Pause(events, round, events, fel.NextTime(), now); err != nil {
				return nil, err
			}
			next = pauses.Next()
		}
		ev := fel.Pop()
		now = ev.Time
		ctx.Begin(&ev, seqs.Of(ev.Node))
		ev.Fn(ctx)
		events++
		if ctx.Stopped() {
			break
		}
	}

	wallNS := time.Since(start).Nanoseconds() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	st := &sim.RunStats{
		Kernel:  k.Name(),
		Events:  events,
		EndTime: now,
		WallNS:  wallNS,
		LPs:     1,
		Workers: []sim.WorkerStats{{P: wallNS, Events: events}},
	}
	if k.Observe != nil {
		// The tail since the last progress record, the whole run if none:
		// the records' ProcNS sum to WallNS.
		prog.file(events, now, start.Add(time.Duration(wallNS)))
	}
	obs.End(k.Observe, st)
	return st, nil
}

// progress files an observed run's progress records, at each telemetry
// pause and at the end: each covers the events since the last.
type progress struct {
	probe  obs.Probe
	fel    *eventq.Mono
	round  uint64
	events uint64    // the count the last record ended at
	start  time.Time // and when
	rec    obs.RoundRecord
}

// file reports the events from the last record up to events, the last at lbts.
func (p *progress) file(events uint64, lbts sim.Time, wall time.Time) {
	p.rec = obs.RoundRecord{Round: p.round, LBTS: lbts, Events: events - p.events,
		ProcNS: wall.Sub(p.start).Nanoseconds(), FELDepth: uint64(p.fel.Len())}
	p.probe.OnRound(&p.rec)
	p.round, p.events, p.start = p.round+1, events, wall
}
