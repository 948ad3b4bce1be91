package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"unison/internal/ckpt"
	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
)

// This file is the round engine's state machine: the LPs, their FELs and
// staged mailboxes, the public LP, the window, and the four steps a round
// consists of (§5.1, Fig 7). It starts no goroutine and reads no clock.
// Two drivers call the steps: the live one (kernel.go — goroutines, group
// cursors, barrier, stopwatch) and the virtual testbed's (internal/vtime —
// one thread, list scheduling, cost model). Both therefore execute the
// same schedule-producing code; they differ in who runs which step when,
// and in what unit they write the one estimate the scheduler reads
// (SetLastP).

// Shape is the one decision that differs between the round-based kernels:
// which workers may run which LPs. The LPs of Part are divided into
// groups; each group owns PerGroup workers (numbered group*PerGroup+i)
// that pull that group's LPs, and only those:
//
//	Unison  one group, Threads workers      LPs bind to workers per round
//	hybrid  one group per host              LPs never leave their host
//	barrier one group per rank, one worker  static rank binding
//
// Everything else about a round is the same for every shape.
type Shape struct {
	Name     string // RunStats.Kernel
	Part     *Partition
	GroupOf  []int32 // LP → group; nil puts every LP in group 0
	PerGroup int
	// Cfg carries the knobs every shape shares: Metric, Period, CacheWays,
	// RecordRounds, MaxRounds, Observe. Threads and ManualLP were consumed
	// by whoever built the shape.
	Cfg Config
}

// Groups is the number of groups GroupOf names.
func (sh *Shape) Groups() int {
	groups := 1
	for _, g := range sh.GroupOf {
		if int(g) >= groups {
			groups = int(g) + 1
		}
	}
	return groups
}

// lpState is one logical process. Cross-LP events in flight live in the
// per-thread staged outboxes (mailbox.go), not on the LP.
type lpState struct {
	fel *eventq.Queue
	// est is the scheduling estimate; lastP the processing time of the
	// previous round, in whatever nanoseconds the driver keeps (wall or
	// modelled); pending the events received last round.
	est     int64
	lastP   int64
	pending int64
	// lastW is 1 + the worker that ran this LP last (0 = never); only
	// maintained when a probe is attached, to count migrations.
	lastW int32
}

// group is one set of LPs and the cursors the live workers pull them
// through. The layout is two cache lines. The slice headers never change
// after setup (phase 4 sorts order in place) and fill the first, which
// therefore stays shared and clean; the cursors own the second, so a
// group's workers fight over that line only with each other and only for
// the increment. Sharing one line, every claim re-fetched the headers from
// whichever core incremented last (7 % on bench's sparse-lowdelay.unison);
// and with one group per rank, unpadded cursors of different groups would
// put every worker on the same line.
type group struct {
	lps   []int32 // the group's LPs in index order (phase-3 receive order)
	order []int32 // the same LPs in schedule order (phase-1 pull order)
	_     [16]byte

	cursor1 atomic.Int64
	cursor3 atomic.Int64
	_       [48]byte
}

// Engine is the state of one round-based run.
type Engine struct {
	m    *sim.Model
	part *Partition
	lps  []lpState
	pub  *eventq.Queue
	seqs sim.SeqTable

	// outboxes[i] stages thread i's outgoing cross-LP events of the
	// current round; the drivers order phase-1 writes before the phase-3
	// reads (mailbox.go).
	outboxes []outbox

	lbts      sim.Time
	lookahead sim.Time

	groups []group

	stopped bool
	done    bool
	err     error

	round  uint64
	period uint64

	// baseEvents/baseEnd are the restored-from-checkpoint offsets, so a
	// resumed run's RunStats match an uninterrupted one.
	baseEvents uint64
	baseEnd    sim.Time

	cache *metrics.CacheModel

	workers []workerState

	// sh is read a few times per round at most; it sits last, off the
	// lines holding what the event loop reads per event (lps, seqs, lbts).
	sh Shape
}

// workerState is what the steps count per worker. P, S and M are the
// driver's to measure or model; it hands them to Stats.
type workerState struct {
	events uint64
	lastT  sim.Time
	_      [14]int64 // avoid false sharing between workers' hot counters
}

// workerSink routes events created on one thread.
type workerSink struct {
	e     *Engine
	w     int   // index of the thread's outbox
	curLP int32 // -1 while executing global events (direct insertion)
}

func (s *workerSink) Put(ev sim.Event) {
	tgt := s.e.part.LPOf[ev.Node]
	if s.curLP < 0 || tgt == s.curLP {
		s.e.lps[tgt].fel.Push(ev)
		return
	}
	if ev.Time < s.e.lbts {
		panic(fmt.Sprintf("core: causality violation: cross-LP event at %v inside window ending %v (lookahead too small)", ev.Time, s.e.lbts))
	}
	s.e.outboxes[s.w].put(tgt, ev)
}

func (s *workerSink) PutGlobal(ev sim.Event) {
	if s.curLP >= 0 {
		panic("core: global events may only be scheduled at setup or from other global events (§4.2)")
	}
	s.e.pub.Push(ev)
}

// NewEngine sets m up to run under sh: it is the only place a round-based
// run is seeded (from Model.Init or a checkpoint) and given its first
// window. It reports the run begun to sh.Cfg.Observe; the caller drives
// rounds until Done, then ends the run with Stats. A run with nothing to
// do is Done at once.
func NewEngine(m *sim.Model, sh Shape) (*Engine, error) {
	part := sh.Part
	if len(part.LPOf) != m.Nodes {
		return nil, errors.New("core: partition does not cover every node")
	}
	n, groups := part.Count, sh.Groups()
	workers := groups * sh.PerGroup
	e := &Engine{
		sh:        sh,
		m:         m,
		part:      part,
		lps:       make([]lpState, n),
		pub:       eventq.New(16),
		seqs:      sim.NewSeqTable(m.Nodes),
		lookahead: part.Lookahead,
		groups:    make([]group, groups),
		workers:   make([]workerState, workers),
	}
	for i := range e.lps {
		e.lps[i].fel = eventq.New(64)
		g := &e.groups[0]
		if sh.GroupOf != nil {
			g = &e.groups[sh.GroupOf[i]]
		}
		g.lps = append(g.lps, int32(i))
	}
	for i := range e.groups {
		e.groups[i].order = append([]int32(nil), e.groups[i].lps...)
	}
	if sh.Cfg.CacheWays > 0 {
		e.cache = metrics.NewCacheModel(workers, sh.Cfg.CacheWays)
	}
	e.period = uint64(sh.Cfg.Period)
	if e.period == 0 {
		e.period = uint64(1)
		if n > 1 {
			e.period = uint64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
		}
	}
	seed := m.Init
	if hook := m.Ckpt; hook != nil && hook.Restore != nil {
		ks := hook.Restore
		if len(ks.Seqs) != len(e.seqs) {
			return nil, fmt.Errorf("core: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(e.seqs))
		}
		copy(e.seqs, ks.Seqs)
		e.round, e.baseEvents, e.baseEnd = ks.Round, ks.Events, ks.EndTime
		seed = ks.Queue
	}
	allMin := sim.MaxTime
	for _, ev := range seed {
		if ev.Node == sim.GlobalNode {
			e.pub.Push(ev)
			continue
		}
		e.lps[part.LPOf[ev.Node]].fel.Push(ev)
		if ev.Time < allMin {
			allMin = ev.Time
		}
	}
	obs.Begin(sh.Cfg.Observe, obs.RunMeta{Kernel: sh.Name, Workers: workers, LPs: n})
	// The first window is the phase-4 computation for round 0.
	e.done = allMin == sim.MaxTime && e.pub.Empty()
	e.lbts = Eq2(allMin, e.pub.NextTime(), e.lookahead)
	return e, nil
}

// Eq2 is the paper's Equation 2 — LBTS = min(N_pub, min_i N_i +
// lookahead) — with saturation at sim.MaxTime. The baseline kernels share
// the window computation: their Equation 1 is the special case with no
// public LP.
func Eq2(allMin, pubNext, lookahead sim.Time) sim.Time {
	if window := allMin.AddSat(lookahead); window < pubNext {
		return window
	}
	return pubNext
}

// Thread is one real thread's hand on the engine: the sink and context its
// events run on, the staged outbox its cross-LP events park in, and its
// gather scratch. Outboxes are per real thread, not per worker: the live
// driver has a thread per worker, the virtual one runs every virtual core
// on a single thread and so has one outbox for phase 3 to gather from,
// however many cores it models.
type Thread struct {
	e    *Engine
	sink workerSink
	ctx  *sim.Ctx
	recv []sim.Event
}

// NewThread adds a thread. All threads must exist before any step runs.
func (e *Engine) NewThread() *Thread {
	i := len(e.outboxes)
	e.outboxes = append(e.outboxes, newOutbox(e.part.Count))
	t := &Thread{e: e, sink: workerSink{e: e, w: i}}
	t.ctx = sim.NewCtx(&t.sink, i)
	return t
}

// StartRound recycles the thread's outbox. The previous round's staged
// events were all delivered in phase 3, and every thread has left phase 3
// once a new round starts.
func (t *Thread) StartRound() { t.e.outboxes[t.sink.w].reset() }

// Process is phase 1 for one LP: worker w executes lp's events inside the
// window. It returns how many ran and how many of them missed in the
// cache-locality model (0 unless Cfg.CacheWays is set).
func (t *Thread) Process(w int, lpIdx int32) (events, misses int64) {
	e, ctx := t.e, t.ctx
	fel := e.lps[lpIdx].fel
	t.sink.curLP = lpIdx
	var last sim.Time
	for {
		ev, ok := fel.PopBefore(e.lbts)
		if !ok {
			break
		}
		if e.cache != nil && e.cache.Touch(w, ev.Node) {
			misses++
		}
		ctx.Begin(&ev, e.seqs.Of(ev.Node))
		ev.Fn(ctx)
		events++
		last = ev.Time
	}
	if events > 0 {
		ws := &e.workers[w]
		ws.events += uint64(events)
		if last > ws.lastT {
			ws.lastT = last
		}
	}
	return events, misses
}

// Migrated notes that worker w ran lp this round and reports whether lp
// last ran on a different worker. Drivers call it only for probed runs.
func (e *Engine) Migrated(w int, lpIdx int32) bool {
	lp := &e.lps[lpIdx]
	moved := lp.lastW != 0 && lp.lastW != int32(w)+1
	lp.lastW = int32(w) + 1
	return moved
}

// Globals is phase 2: with every LP quiescent, run the public LP's events
// at exactly the window boundary, credited to worker 0, and return how
// many there were.
func (t *Thread) Globals() (events int64) {
	e := t.e
	t.sink.curLP = -1
	for !e.pub.Empty() && e.pub.Peek().Time == e.lbts {
		ev := e.pub.Pop()
		t.ctx.Begin(&ev, e.seqs.Of(sim.GlobalNode))
		ev.Fn(t.ctx)
		events++
	}
	if events > 0 {
		e.workers[0].events += uint64(events)
		e.workers[0].lastT = e.lbts
		// A global event may have mutated the topology: recompute the
		// lookahead from the live link set (§4.2).
		e.lookahead = CutLookahead(e.part.LPOf, e.m.Links())
		if t.ctx.Stopped() {
			e.stopped = true
		}
	}
	return events
}

// Receive is phase 3 for one LP: gather its staged events from every
// thread's outbox (events from other groups arrive the same way) and
// bulk-load them into its FEL. It returns how many arrived, the FEL's
// depth, and the LP's next event time, whose minimum over all LPs the
// driver hands to Advance.
func (t *Thread) Receive(lpIdx int32) (n, depth int, next sim.Time) {
	lp := &t.e.lps[lpIdx]
	t.recv = gather(t.e.outboxes, lpIdx, t.recv[:0]) //unison:owner transfer the driver ordered every thread's phase-1 puts before phase 3
	lp.pending = int64(len(t.recv))
	lp.fel.PushBatch(t.recv)
	return len(t.recv), lp.fel.Len(), lp.fel.NextTime()
}

// Advance is phase 4, run with every LP quiescent and received: count the
// round, reschedule, then either end the run or open the next window from
// allMin, the earliest event any LP holds. It reports whether the LP
// orders were re-sorted.
func (e *Engine) Advance(allMin sim.Time) (resorted bool) {
	pubNext := e.pub.NextTime()
	e.round++
	resorted = e.reschedule()
	switch {
	case e.stopped:
		e.done = true
	case allMin == sim.MaxTime && pubNext == sim.MaxTime:
		e.done = true
	case e.sh.Cfg.MaxRounds > 0 && e.round >= e.sh.Cfg.MaxRounds:
		e.done = true
		e.err = errors.New("core: MaxRounds exceeded")
	default:
		e.lbts = Eq2(allMin, pubNext, e.lookahead)
		if hook := e.m.Ckpt; hook.SaveEvery(e.round) {
			// This is the quiescent point: every staged event has been
			// delivered and the new window has not started.
			if err := e.saveCkpt(); err != nil {
				e.err = err
				e.done = true
			}
		}
	}
	return resorted
}

// saveCkpt snapshots the merged FELs through the model's checkpoint
// hook. Only called from Advance.
func (e *Engine) saveCkpt() error {
	var queue []sim.Event
	for i := range e.lps {
		queue = e.lps[i].fel.Snapshot(queue)
	}
	queue = e.pub.Snapshot(queue)
	if err := ckpt.CheckQueue(queue); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ks := &sim.KernelState{
		Round: e.round,
		Now:   e.lbts,
		Seqs:  append([]uint64(nil), e.seqs...),
		Queue: queue,
	}
	ks.Events, ks.EndTime = e.totals()
	if err := e.m.Ckpt.Save(ks); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// reschedule re-sorts every group's LP order by the scheduling estimate
// every period rounds (§4.3) and reports whether it did.
func (e *Engine) reschedule() bool {
	if e.sh.Cfg.Metric == MetricNone || e.round%e.period != 0 {
		return false
	}
	for i := range e.lps {
		lp := &e.lps[i]
		if e.sh.Cfg.Metric == MetricPrevTime {
			lp.est = lp.lastP
		} else {
			lp.est = lp.pending
		}
	}
	for i := range e.groups {
		order := e.groups[i].order
		sort.SliceStable(order, func(a, b int) bool {
			return e.lps[order[a]].est > e.lps[order[b]].est
		})
	}
	return true
}

// totals is the run's event count and end time so far, restored offsets
// included.
func (e *Engine) totals() (events uint64, end sim.Time) {
	events, end = e.baseEvents, e.baseEnd
	for i := range e.workers {
		events += e.workers[i].events
		if t := e.workers[i].lastT; t > end {
			end = t
		}
	}
	return events, end
}

// Stats assembles the run's statistics around psm, which holds every
// worker's P/S/M as the driver measured or modelled them. The driver adds
// what else it timed (RoundTrace, VirtualT) and ends the run with obs.End.
func (e *Engine) Stats(start time.Time, psm []sim.WorkerStats) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:  e.sh.Name,
		WallNS:  time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		Rounds:  e.round,
		LPs:     e.part.Count,
		Workers: psm,
	}
	st.Events, st.EndTime = e.totals()
	for i := range e.workers {
		psm[i].Events = e.workers[i].events
	}
	if e.cache != nil {
		st.CacheRefs, st.CacheMisses = e.cache.Counters()
	}
	return st
}

// Done reports whether the run has ended; Err is why, if not normally.
func (e *Engine) Done() bool { return e.done }
func (e *Engine) Err() error { return e.err }

// LBTS is the end of the current window; Round counts finished rounds.
func (e *Engine) LBTS() sim.Time { return e.lbts }
func (e *Engine) Round() uint64  { return e.round }

// Group returns group g's LPs in index order (the order phase 3 receives
// in) and in schedule order (the order phase 1 pulls in). Advance re-sorts
// the latter in place.
func (e *Engine) Group(g int) (lps, order []int32) {
	return e.groups[g].lps, e.groups[g].order
}

// Est is lp's scheduling estimate, refreshed every period rounds from what
// SetLastP recorded (MetricPrevTime) or Receive counted
// (MetricPendingEvents).
func (e *Engine) Est(lp int32) int64 { return e.lps[lp].est }

// SetLastP records lp's processing time in the round just run. This one
// field is where the drivers' clocks meet the scheduler: the live driver
// writes wall nanoseconds (lpClock does it in batches), the virtual one
// modelled nanoseconds.
func (e *Engine) SetLastP(lp int32, ns int64) { e.lps[lp].lastP = ns }
