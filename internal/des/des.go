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
	// Observe, when non-nil, receives run begin/end notifications and one
	// summary RoundRecord for the whole run (the sequential kernel has no
	// round structure).
	Observe obs.Probe
	// ProgressEvery, with Observe non-nil, additionally emits a progress
	// RoundRecord every ProgressEvery executed events — the hook live
	// watchers need, since a sequential run otherwise reports nothing
	// until it finishes. Each record covers the events since the previous
	// one (the final summary record then covers only the tail), so
	// aggregate totals are unchanged. Zero keeps the single-summary
	// behavior and its single nil-check cost.
	ProgressEvery uint64
}

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
	hook := m.Ckpt
	var events, round uint64
	var now sim.Time
	if hook != nil && hook.Restore != nil {
		ks := hook.Restore
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
	// A periodic checkpoint is due every hook.Every executed events, but
	// only fires at the next timestamp boundary (every pending event
	// strictly after the last executed one), where zero-delay closures
	// cannot be in flight (DESIGN.md §11).
	saves := hook.Open("des", seqs, 1, func(_ int, dst []sim.Event) []sim.Event { return fel.Snapshot(dst) })
	nextCkpt := uint64(0)
	if saves != nil && hook.Every > 0 {
		nextCkpt = events + hook.Every
	}
	var progRound, progEvents, nextProg uint64
	progStart := start
	if k.Observe != nil && k.ProgressEvery > 0 {
		nextProg = events + k.ProgressEvery
	}
	for !fel.Empty() {
		if nextCkpt > 0 && events >= nextCkpt && fel.NextTime() > now {
			round++
			if err := saves.Save(round, events, fel.NextTime(), now); err != nil {
				return nil, err
			}
			nextCkpt = events + hook.Every
		}
		ev := fel.Pop()
		now = ev.Time
		ctx.Begin(&ev, seqs.Of(ev.Node))
		ev.Fn(ctx)
		events++
		if nextProg > 0 && events >= nextProg {
			wall := time.Now() //unison:wallclock-ok progress-telemetry timing, observation only
			rec := obs.RoundRecord{
				Round:    progRound,
				LBTS:     now,
				Events:   events - progEvents,
				ProcNS:   wall.Sub(progStart).Nanoseconds(),
				FELDepth: uint64(fel.Len()),
			}
			k.Observe.OnRound(&rec)
			progRound++
			progEvents = events
			progStart = wall
			nextProg = events + k.ProgressEvery
		}
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
		rec := obs.RoundRecord{
			Round:    progRound,
			LBTS:     now,
			Events:   events - progEvents,
			ProcNS:   st.WallNS,
			FELDepth: uint64(fel.Len()),
		}
		if progRound > 0 {
			// Progress records already covered [0, progEvents); the final
			// record reports the tail so totals still sum to the run.
			rec.ProcNS = time.Since(progStart).Nanoseconds() //unison:wallclock-ok progress-telemetry timing, observation only
		}
		k.Observe.OnRound(&rec)
	}
	obs.End(k.Observe, st)
	return st, nil
}
