package pdes

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"unison/internal/core"
	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/sim"
)

// This file is the transport-free half of the Chandy–Misra–Bryant
// algorithm: the channel graph, each rank's clocks, promises and FEL, and
// the steps one iteration of a rank consists of. How messages travel and
// what an iteration costs is the driver's business. There are two:
// NullMessageKernel (nullmsg.go — a goroutine and a mutex inbox per rank,
// wall-clock stopwatch) and the virtual testbed's meta-simulation
// (internal/vtime — virtual CPU clocks and arrival times).

// Ranks is the rank set of one null-message run.
type Ranks struct {
	m     *sim.Model
	ranks []*Rank
	lpOf  []int32
	seqs  sim.SeqTable
	cache *metrics.CacheModel

	// epoch, baseEvents and baseEnd are the restored-from-checkpoint
	// offsets (zero for a fresh run).
	epoch      uint64
	baseEvents uint64
	baseEnd    sim.Time

	pauses *sim.PauseRun // the run's pause clients, nil without any
}

// Rank is one rank's protocol state. It is the sim.Sink of its own events.
type Rank struct {
	rs      *Ranks
	id      int32
	fel     *eventq.Queue
	ctx     *sim.Ctx
	inFrom  []int32            // ranks with channels into this rank
	outTo   []int32            // ranks this rank sends to
	outLA   map[int32]sim.Time // per-channel lookahead
	clock   map[int32]sim.Time // input channel bounds
	promise map[int32]sim.Time // last promise sent per output channel
	outBuf  map[int32][]sim.Event

	events uint64
	lastT  sim.Time
	nulls  uint64
}

// Put implements sim.Sink: local events join the FEL, remote ones wait in
// the channel's buffer for the next Flush.
func (r *Rank) Put(ev sim.Event) {
	tgt := r.rs.lpOf[ev.Node]
	if tgt == r.id {
		r.fel.Push(ev)
		return
	}
	r.outBuf[tgt] = append(r.outBuf[tgt], ev)
}

// PutGlobal implements sim.Sink.
func (r *Rank) PutGlobal(sim.Event) {
	panic("pdes: the null message kernel does not support global events")
}

// NewRanks builds one rank per LP of part, a channel per directed rank
// pair joined by an up link (lookahead: the pair's minimum delay), and
// seeds the FELs from m.Init or the checkpoint m restores. Faithful to
// the algorithm the paper compares (§2.3) it accepts only the stop event
// among global events — StopAt stands in for it on every rank — since
// distributed ranks have no coordination point to run any other at.
func NewRanks(m *sim.Model, part *core.Partition, cacheWays int) (*Ranks, error) {
	if m.StopAt <= 0 {
		return nil, errors.New("pdes: the null message kernel requires Model.StopAt (no distributed termination detection)")
	}
	if len(part.LPOf) != m.Nodes {
		return nil, errors.New("pdes: null message partition does not cover every node")
	}
	rs := &Ranks{m: m, ranks: make([]*Rank, part.Count), lpOf: part.LPOf, seqs: sim.NewSeqTable(m.Nodes)}
	if cacheWays > 0 {
		rs.cache = metrics.NewCacheModel(part.Count, cacheWays)
	}
	for i := range rs.ranks {
		r := &Rank{
			rs:      rs,
			id:      int32(i),
			fel:     eventq.New(64),
			outLA:   map[int32]sim.Time{},
			clock:   map[int32]sim.Time{},
			promise: map[int32]sim.Time{},
			outBuf:  map[int32][]sim.Event{},
		}
		r.ctx = sim.NewCtx(r, i)
		rs.ranks[i] = r
	}

	// Channel lookaheads: min delay per directed rank pair.
	type pair struct{ a, b int32 }
	chanLA := map[pair]sim.Time{}
	links := m.Links()
	for i := range links {
		l := &links[i]
		ra, rb := part.LPOf[l.A], part.LPOf[l.B]
		if ra == rb || !l.Up {
			continue
		}
		for _, p := range []pair{{ra, rb}, {rb, ra}} {
			if la, ok := chanLA[p]; !ok || l.Delay < la {
				chanLA[p] = l.Delay
			}
		}
	}
	// Deterministic channel setup order: ranging chanLA directly would
	// let Go's randomized map order decide each rank's outTo/inFrom
	// sequence — and with it the null-message send order — varying run
	// to run.
	pairs := make([]pair, 0, len(chanLA))
	for p := range chanLA {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		from, to := rs.ranks[p.a], rs.ranks[p.b]
		from.outTo = append(from.outTo, p.b)
		from.outLA[p.b] = chanLA[p]
		to.inFrom = append(to.inFrom, p.a)
		to.clock[p.a] = 0
	}

	rs.pauses = sim.OpenPauses("pdes", m.Pauses, 0, 0, rs.seqs, len(rs.ranks)+1, rs.snapshot,
		func(i int) int { return len(rs.snapshot(i, nil)) })
	seed := m.Init
	if ks := m.Restore; ks != nil {
		if len(ks.Seqs) != len(rs.seqs) {
			return nil, fmt.Errorf("pdes: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(rs.seqs))
		}
		copy(rs.seqs, ks.Seqs)
		rs.epoch, rs.baseEvents, rs.baseEnd = ks.Round, ks.Events, ks.EndTime
		seed = ks.Queue
	}
	for _, ev := range seed {
		if ev.Node == sim.GlobalNode {
			if ev.Time == m.StopAt {
				continue // the stop event is duplicated as StopAt per rank
			}
			return nil, errors.New("pdes: the null message kernel cannot run models with global events (use Unison)")
		}
		rs.ranks[part.LPOf[ev.Node]].fel.Push(ev)
	}
	return rs, nil
}

// Len is the number of ranks; Rank returns rank i.
func (rs *Ranks) Len() int         { return len(rs.ranks) }
func (rs *Ranks) Rank(i int) *Rank { return rs.ranks[i] }

// Depth is the number of events in the rank's FEL.
func (r *Rank) Depth() int { return r.fel.Len() }

// Deliver merges one channel message into the rank: the events join the
// FEL, and the sender's bound ("no later message from me will arrive
// before this") raises that channel's clock.
func (r *Rank) Deliver(from int32, bound sim.Time, events []sim.Event) {
	r.fel.PushBatch(events)
	if bound > r.clock[from] {
		r.clock[from] = bound
	}
}

// Window returns the rank's EIT — the earliest a future remote event could
// arrive, the minimum over its input channel clocks — and the end of the
// prefix that is therefore safe to process, cut at stopAt.
func (r *Rank) Window(stopAt sim.Time) (eit, safe sim.Time) {
	eit = sim.MaxTime
	for _, from := range r.inFrom {
		if c := r.clock[from]; c < eit {
			eit = c
		}
	}
	if stopAt < eit {
		return eit, stopAt
	}
	return eit, eit
}

// Process executes the rank's events before safe. It returns how many ran
// and how many of them missed in the cache-locality model (0 unless the
// ranks were built with cacheWays).
func (r *Rank) Process(safe sim.Time) (events, misses int64) {
	rs := r.rs
	for {
		ev, ok := r.fel.PopBefore(safe)
		if !ok {
			break
		}
		if rs.cache != nil && rs.cache.Touch(int(r.id), ev.Node) {
			misses++
		}
		r.ctx.Begin(&ev, rs.seqs.Of(ev.Node))
		ev.Fn(r.ctx)
		events++
		r.lastT = ev.Time
	}
	r.events += uint64(events)
	return events, misses
}

// Flush sends, on every output channel, the remote events buffered since
// the last flush, or an eager null message iff the channel's bound has
// advanced past the last promise. The promise is sound: any later output
// of this rank is caused by an event at or after min(N_own, EIT), plus the
// channel lookahead. send takes ownership of events (empty for a null
// message); Flush returns how many events went out.
func (r *Rank) Flush(eit sim.Time, send func(to int32, bound sim.Time, events []sim.Event)) (sent int) {
	base := r.fel.NextTime()
	if eit < base {
		base = eit
	}
	for _, to := range r.outTo {
		bound := base.AddSat(r.outLA[to])
		evs := r.outBuf[to]
		var out []sim.Event
		switch {
		case len(evs) > 0:
			out = append(out, evs...)
			r.outBuf[to] = evs[:0]
			sent += len(evs)
		case bound <= r.promise[to]:
			continue
		default:
			r.nulls++
		}
		r.promise[to] = bound
		send(to, bound, out)
	}
	return sent
}

// Terminal reports whether nothing before stopAt can happen on this rank
// any more.
func (r *Rank) Terminal(eit, stopAt sim.Time) bool {
	return r.fel.NextTime() >= stopAt && eit >= stopAt
}

// totals is the run's event count and end time so far, restored offsets
// included.
func (rs *Ranks) totals() (events uint64, end sim.Time) {
	events, end = rs.baseEvents, rs.baseEnd
	for _, r := range rs.ranks {
		events += r.events
		if r.lastT > end {
			end = r.lastT
		}
	}
	return events, end
}

// Stats assembles the run's statistics around psm, which holds every
// rank's P/S/M as the driver measured or modelled them. Rounds reports
// null messages sent: the algorithm has no rounds.
func (rs *Ranks) Stats(kernel string, start time.Time, psm []sim.WorkerStats) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:  kernel,
		WallNS:  time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		LPs:     len(rs.ranks),
		Workers: psm,
	}
	st.Events, st.EndTime = rs.totals()
	for i, r := range rs.ranks {
		psm[i].Events = r.events
		st.Rounds += r.nulls
	}
	if rs.cache != nil {
		st.CacheRefs, st.CacheMisses = rs.cache.Counters()
	}
	return st
}
