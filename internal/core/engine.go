package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
)

// This file is the round engine's state machine: the LPs, their FELs and
// staged mailboxes, the public LP, the window, and the four steps a round
// consists of (§5.1, Fig 7). It starts no goroutine and reads no clock.
// Two drivers call the steps: the live one (kernel.go — goroutines, home
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
//	Unison  one group, Threads workers      LPs run at home unless stolen
//	hybrid  one group per host              LPs never leave their host
//	barrier one group per rank, one worker  static rank binding
//
// A hybrid shape with a Wire is one host of a distributed run: the same
// groups, only the resident one staffed here.
// Everything else about a round is the same for every shape.
type Shape struct {
	Name     string // RunStats.Kernel
	Part     *Partition
	GroupOf  []int32 // LP → group; nil puts every LP in group 0
	PerGroup int
	// Cfg carries the knobs every shape shares: Metric, Period, CacheWays,
	// MaxRounds, Observe. Threads and ManualLP were consumed by whoever
	// built the shape.
	Cfg Config
	// Wire, when non-nil, makes this engine one rank of a distributed run.
	Wire Wire
}

// Wire joins a rank's engine to the other ranks'. The shape names every
// rank's LPs and groups, but only group Resident lives in this process:
// no other is seeded or given workers, and the model reaches another rank's
// nodes only by handing the wire an event (netdev's Remote hook). Phase 4's
// serial section calls the wire once a round, which is all that keeps the
// ranks in step; an error from it ends the run. A test can put a fake
// between engines here.
type Wire interface {
	Resident() int
	// Sync ships what the model handed the wire during the window ending at
	// lbts with the resident LPs' earliest event time, local, and returns
	// what the other ranks sent here — events for resident nodes, none
	// before lbts, inserted before the next window opens — and the earliest
	// event time of every rank, those events included. A rank has no public
	// LP: bound, the time the run stops at, stands in Equation 2. Both are
	// sim.MaxTime when the run is over.
	Sync(lbts, local sim.Time) (in []sim.Event, allMin, bound sim.Time, err error)
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
	// lastP is the processing time of the last round the LP ran in, in
	// whatever nanoseconds the driver keeps (wall or modelled); pending the
	// events it got the last time it received. The scheduler reads them.
	lastP   int64
	pending int64
	// depth is the FEL's length as of the last probed round that received
	// the LP (Engine.settleDepth).
	depth int32
	// lastW is 1 + the worker that ran this LP last (0 = never); only
	// maintained when a probe is attached, to count migrations.
	lastW int32
}

// group is one set of LPs and the two lists that say which of them a round
// visits. Only the serial sections write it (phase 2 rebuilds recv, phase 4
// rebuilds run), so its lines stay shared and clean while workers read them.
// Claims write only homes: under the live driver a group of several workers
// has one per worker, a cache line each, so a claim contends only with claims
// on the same home — its owner's, until another worker runs dry and steals.
type group struct {
	// run is the LPs with an event inside the current window, in schedule
	// order: the phase-1 pull list. recv is the LPs whose FEL the round may
	// have changed — those that ran, were sent to, or had a global event
	// insert directly — in index order: the phase-3 pull list. An LP on
	// neither list is not read or written that round.
	run   []int32
	recv  []int32
	homes []home

	// order is every LP of the group in schedule order, and low[b] the
	// earliest cached next-event time among order's b-th 64 (stale when one
	// of them is to be received or the order changed). Only the serial
	// sections use them: phase 4 sorts order in place, and finds the minimum
	// and the run list by looking inside those blocks only that the window
	// reaches.
	order []int32
	low   []sim.Time
}

// home is one live worker's share of its group's two lists and the cursors
// the group's workers claim them through (kernel.go): share[runList] is its
// LPs on the run list, in schedule order, and share[recvList] its range of
// the recv list. It is exactly one cache line.
type home struct {
	share  [2][]int32
	cursor [2]atomic.Int64
}

const runList, recvList = 0, 1 // indices of home.share and home.cursor

// stale marks a block minimum to be recomputed. (A block that really held
// an event at this time would be recomputed every round, to the same value.)
const stale = sim.Time(math.MinInt64)

// block is the b-th 64 LPs of the schedule order.
func (g *group) block(b int) []int32 {
	return g.order[b<<6 : min(b<<6+64, len(g.order))]
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
	first  int // the group worker 0 pulls from: 0, or the one resident group of a rank
	// next[lp] is lp's earliest event time, cached so that phase 4 finds
	// the global minimum and the LPs inside the new window without touching
	// an FEL. Receive refreshes it for the LPs on a recv list; nobody else's
	// FEL changed. pos[lp] is lp's place in its group's order, which names
	// the block minimum (group.low) a new next time makes stale. est[lp] is
	// the scheduling estimate the order was last sorted by.
	next []sim.Time
	pos  []int32
	est  []int64
	// dirty is the set (one bit per LP) phase 2 collects a round's receivers
	// into, which is also what puts each recv list in index order.
	dirty []uint64
	// depth is the summed length of every FEL and idleDepth the part of it
	// held by LPs the round did not receive; kept for probed runs only.
	depth, idleDepth int64

	stopped bool
	done    bool
	err     error

	round  uint64
	period uint64
	fused  uint64 // rounds the live driver ran on one thread (kernel.go)

	// baseEvents/baseEnd are the restored-from-checkpoint offsets, so a
	// resumed run's RunStats match an uninterrupted one.
	baseEvents uint64
	baseEnd    sim.Time

	cache *metrics.CacheModel

	// pauses runs the model's pause clients, nil without any. While saving,
	// phase 4 has paused for a client with jobs and the save phase is open:
	// saveJobs jobs, claimed through saveCursor by every thread of the run.
	pauses     *sim.PauseRun
	saving     bool
	saveJobs   int
	saveCursor atomic.Int64

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
	e      *Engine
	w      int   // index of the thread's outbox
	curLP  int32 // -1 while executing global events (direct insertion)
	direct bool  // the thread runs fused rounds (kernel.go): every event inserts directly
}

func (s *workerSink) Put(ev sim.Event) {
	tgt := s.e.part.LPOf[ev.Node]
	if tgt == s.curLP {
		s.e.lps[tgt].fel.Push(ev)
		return
	}
	if s.curLP >= 0 && ev.Time < s.e.lbts {
		panic(fmt.Sprintf("core: causality violation: cross-LP event at %v inside window ending %v (lookahead too small)", ev.Time, s.e.lbts))
	}
	if s.curLP < 0 || s.direct {
		// A global event, or any event of a round one thread runs alone,
		// inserts directly, possibly into an LP that has been idle for
		// thousands of rounds: have phase 3 receive it, which refreshes its
		// cached next time.
		s.e.lps[tgt].fel.Push(ev)
		s.e.dirty[tgt>>6] |= 1 << (tgt & 63)
		return
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
	first, workers := 0, groups*sh.PerGroup
	if sh.Wire != nil {
		first, workers = sh.Wire.Resident(), sh.PerGroup
		if first < 0 || first >= groups {
			return nil, fmt.Errorf("core: resident group %d of a shape with %d", first, groups)
		}
	}
	e := &Engine{
		sh:        sh,
		first:     first,
		m:         m,
		part:      part,
		lps:       make([]lpState, n),
		pub:       eventq.New(16),
		seqs:      sim.NewSeqTable(m.Nodes),
		lookahead: part.Lookahead,
		groups:    make([]group, groups),
		next:      make([]sim.Time, n),
		pos:       make([]int32, n),
		est:       make([]int64, n),
		dirty:     make([]uint64, (n+63)/64),
		workers:   make([]workerState, workers),
	}
	for i := range e.lps {
		e.lps[i].fel = eventq.New(16) // a fine-grained LP holds a handful of events; busy ones grow
		g := e.groupOf(int32(i))
		g.order = append(g.order, int32(i))
	}
	for i := range e.groups {
		g := &e.groups[i]
		g.low = make([]sim.Time, (len(g.order)+63)/64)
		g.run = make([]int32, 0, len(g.order)) // openWindow writes up to every LP
		e.reindex(g)
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
	seed, restored := m.Init, false
	if ks := m.Restore; ks != nil {
		if len(ks.Seqs) != len(e.seqs) {
			return nil, fmt.Errorf("core: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(e.seqs))
		}
		copy(e.seqs, ks.Seqs)
		e.round, e.baseEvents, e.baseEnd = ks.Round, ks.Events, ks.EndTime
		seed, restored = ks.Queue, true
	}
	for _, ev := range seed {
		switch {
		case ev.Node != sim.GlobalNode: // every rank builds the whole model and seeds its part
			if lp := part.LPOf[ev.Node]; !e.away(lp) {
				e.lps[lp].fel.Push(ev)
			} else if restored {
				return nil, fmt.Errorf("core: checkpoint holds an event for node %d, which another rank owns", ev.Node)
			}
		case sh.Wire == nil:
			e.pub.Push(ev)
		case ev.Time != m.StopAt: // the stop itself is Sync's bound
			return nil, fmt.Errorf("core: a rank runs no global event but the stop; this one is at %v (use an in-process kernel)", ev.Time)
		}
	}
	for i := range e.lps {
		lp := &e.lps[i]
		e.next[i], lp.depth = lp.fel.NextTime(), int32(lp.fel.Len())
		e.depth += int64(lp.depth)
	}
	e.pauses = sim.OpenPauses("core", m.Pauses, 1, e.round, e.seqs, n+1,
		func(i int, dst []sim.Event) []sim.Event { return e.list(i).Snapshot(dst) }, func(i int) int { return e.list(i).Len() })
	obs.Begin(sh.Cfg.Observe, obs.RunMeta{Kernel: sh.Name, Workers: workers, LPs: n})
	// The first window is the phase-4 computation for round 0.
	e.done = !e.openWindow()
	return e, nil
}

// groupOf is the group lp belongs to.
func (e *Engine) groupOf(lp int32) *group {
	if e.sh.GroupOf == nil {
		return &e.groups[0]
	}
	return &e.groups[e.sh.GroupOf[lp]]
}

// away reports whether lp lives in another rank's process.
func (e *Engine) away(lp int32) bool {
	return e.sh.Wire != nil && e.sh.GroupOf != nil && int(e.sh.GroupOf[lp]) != e.sh.Wire.Resident()
}

// reindex records where g's order now has each LP. Every block minimum is
// stale after that.
func (e *Engine) reindex(g *group) {
	for i, lp := range g.order {
		e.pos[lp] = int32(i)
	}
	for b := range g.low {
		g.low[b] = stale
	}
}

// openWindow is the heart of phase 4: from the cached next-event times it
// sets the window (Equation 2) and lists, per group and in schedule order,
// the LPs with an event inside it. It reports false, leaving the window
// alone, when no LP and no global event has anything left — on any rank, if
// there is a wire — or the wire failed. An LP in a block nobody touched and
// the window does not reach costs nothing here; any other idle LP costs a
// compare.
func (e *Engine) openWindow() bool {
	pubNext, allMin := e.pub.NextTime(), sim.MaxTime
	for i := range e.groups {
		g := &e.groups[i]
		for b, low := range g.low {
			if low == stale {
				low = sim.MaxTime
				for _, lp := range g.block(b) {
					low = min(low, e.next[lp])
				}
				g.low[b] = low
			}
			allMin = min(allMin, low)
		}
	}
	if e.sh.Wire != nil {
		if allMin, pubNext, e.err = e.sync(allMin); e.err != nil {
			return false
		}
	}
	if allMin == sim.MaxTime && pubNext == sim.MaxTime {
		return false
	}
	e.lbts = Eq2(allMin, pubNext, e.lookahead)
	for i := range e.groups {
		g := &e.groups[i]
		// Every LP of a reached block is written and only those inside the
		// window kept: a branch per LP mispredicts wherever LPs inside and
		// outside the window interleave.
		run, n := g.run[:cap(g.run)], 0
		for b, low := range g.low {
			if low >= e.lbts {
				continue
			}
			for _, lp := range g.block(b) {
				run[n] = lp
				if e.next[lp] < e.lbts {
					n++
				}
			}
		}
		g.run = run[:n]
	}
	return true
}

// windowEvents counts the events inside the current window, stopping at
// limit: a pruned walk of the FELs on the run lists, each of which holds
// at least one.
func (e *Engine) windowEvents(limit int) (n int) {
	for i := range e.groups {
		if n += len(e.groups[i].run); n >= limit {
			return limit
		}
	}
	for i := range e.groups {
		for _, lp := range e.groups[i].run {
			// Its first event is counted already.
			if n += e.lps[lp].fel.CountBefore(e.lbts, limit-n+1) - 1; n >= limit {
				return limit
			}
		}
	}
	return n
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
// many there were; then list, per group and in index order, the LPs phase 3
// has to receive: those that ran, those some outbox names, and those a
// global event just inserted into.
//
//unison:owner consumer
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
	mark := func(lps []int32) {
		for _, lp := range lps {
			e.dirty[lp>>6] |= 1 << (lp & 63)
		}
	}
	for i := range e.groups {
		e.groups[i].recv = e.groups[i].recv[:0]
		mark(e.groups[i].run)
	}
	for i := range e.outboxes {
		mark(e.outboxes[i].touched)
	}
	for i, word := range e.dirty {
		for ; word != 0; word &= word - 1 {
			lp := int32(i<<6 + bits.TrailingZeros64(word))
			g := e.groupOf(lp)
			g.recv = append(g.recv, lp)
			g.low[e.pos[lp]>>6] = stale // Receive will change next[lp]
		}
		e.dirty[i] = 0
	}
	return events
}

// sync is a rank's share of phase 4: it trades the resident minimum local
// for every rank's, and what the other ranks sent goes straight into the
// resident FELs, lowering the LPs' cached next-event times and their blocks'
// minima before the window and its run lists are built. An event staged
// for another rank's LP would never be received: the model is told so
// here, off the event path.
func (e *Engine) sync(local sim.Time) (allMin, bound sim.Time, err error) {
	for _, o := range e.outboxes {
		for _, lp := range o.touched {
			if e.away(lp) {
				panic(fmt.Sprintf("core: model scheduled an event directly onto node %d of another rank — cross-host interaction must go through the data plane", o.buf[o.head[lp]].ev.Node))
			}
		}
	}
	in, allMin, bound, err := e.sh.Wire.Sync(e.lbts, local)
	for _, ev := range in {
		lp := e.part.LPOf[ev.Node]
		s := &e.lps[lp]
		s.fel.Push(ev)
		// The round's depths are settled: the event joins them as one the
		// round did not receive, so the records still sum to every FEL.
		s.depth++
		e.depth++
		e.idleDepth++
		e.next[lp] = min(e.next[lp], ev.Time)
		low := &e.groupOf(lp).low[e.pos[lp]>>6]
		*low = min(*low, ev.Time)
	}
	return allMin, bound, err
}

// Receive is phase 3 for one LP of a recv list: gather its staged events
// from every thread's outbox (events from other groups arrive the same
// way), bulk-load them into its FEL and refresh its cached next-event time.
// It returns how many arrived and the FEL's depth.
func (t *Thread) Receive(lpIdx int32) (n, depth int) {
	lp := &t.e.lps[lpIdx]
	t.recv = gather(t.e.outboxes, lpIdx, t.recv[:0]) //unison:owner transfer the driver ordered every thread's phase-1 puts before phase 3
	lp.pending = int64(len(t.recv))
	lp.fel.PushBatch(t.recv)
	t.e.next[lpIdx] = lp.fel.NextTime()
	return len(t.recv), lp.fel.Len()
}

// Advance is phase 4, run with every LP quiescent and received: count the
// round, reschedule, then either end the run or open the next window and
// pause for the clients due (sim.PauseRun); a client with jobs opens a save
// phase (Saving). It reports whether the LP orders were re-sorted.
func (e *Engine) Advance() (resorted bool) {
	e.round++
	if e.sh.Cfg.Observe != nil {
		e.settleDepth()
	}
	resorted = e.reschedule()
	switch {
	case e.stopped || e.err != nil:
		e.done = true
	case !e.openWindow():
		e.done = true
	case e.sh.Cfg.MaxRounds > 0 && e.round >= e.sh.Cfg.MaxRounds:
		e.done = true
		e.err = errors.New("core: MaxRounds exceeded")
	case e.round >= e.pauses.Next():
		// This is the quiescent point: every staged event has been
		// delivered and the new window has not started. Clients without
		// jobs are done when Begin returns; the others' save phase runs
		// before anyone enters the window.
		events, end := e.totals()
		if e.saveJobs, e.err = e.pauses.Begin(e.round, e.round, events, e.lbts, end); e.err != nil {
			e.done = true
		}
		e.saving = e.saveJobs > 0
		e.saveCursor.Store(0)
	}
	return resorted
}

// list is list i of a snapshot: LP i's FEL, or, last, the public LP's.
func (e *Engine) list(i int) *eventq.Queue {
	if i == len(e.lps) {
		return e.pub
	}
	return e.lps[i].fel
}

// Saving reports whether Advance opened a save phase. The driver then has
// every thread call Save and, when all have returned, one call EndSave,
// before the next round starts; a single thread does both in turn.
func (e *Engine) Saving() bool { return e.saving }

// Save is the save phase for one thread: it claims and runs the open
// pause's jobs until none is left. Any thread may take any job — the LPs
// are quiescent and a job only reads.
func (t *Thread) Save() {
	e := t.e
	for i := e.saveCursor.Add(1) - 1; i < int64(e.saveJobs); i = e.saveCursor.Add(1) - 1 {
		t.recv = e.pauses.Job(int(i), t.recv)
	}
}

// EndSave closes the save phase: the clients with jobs commit (a snapshot
// is framed and written). A failure ends the run.
func (e *Engine) EndSave() {
	e.saving = false
	if e.err = e.pauses.Commit(); e.err != nil {
		e.done = true
	}
}

// settleDepth brings the FEL-depth cache up to date with the LPs the round
// received and sets idleDepth to what all the others hold, so that a
// probe's per-round FELDepth still sums to the whole.
func (e *Engine) settleDepth() {
	var seen int64
	for i := range e.groups {
		for _, lp := range e.groups[i].recv {
			s := &e.lps[lp]
			d := int32(s.fel.Len())
			e.depth += int64(d - s.depth)
			s.depth = d
			seen += int64(d)
		}
	}
	e.idleDepth = e.depth - seen
}

// reschedule re-sorts every group's LP order by the scheduling estimate
// every period rounds (§4.3) and reports whether it did. The estimate is
// what the round just finished measured: lastP for the LPs on its run
// lists, pending for those on its recv lists, 0 for an LP it did not visit.
// A stable descending sort would leave those zeros behind the rest in the
// order they had, so only the LPs with an estimate are sorted (ties by old
// position) and the others close ranks behind them.
func (e *Engine) reschedule() bool {
	if e.sh.Cfg.Metric == MetricNone || e.round%e.period != 0 {
		return false
	}
	clear(e.est)
	for i := range e.groups {
		g := &e.groups[i]
		// The list is dead once read: phase 4 or the next phase 2 rebuilds
		// it. Its head becomes the LPs to sort.
		list := g.recv
		if e.sh.Cfg.Metric == MetricPrevTime {
			list = g.run
		}
		hot := list[:0]
		for _, lp := range list {
			est := e.lps[lp].pending
			if e.sh.Cfg.Metric == MetricPrevTime {
				est = e.lps[lp].lastP
			}
			if est > 0 {
				e.est[lp] = est
				hot = append(hot, lp)
			}
		}
		slices.SortFunc(hot, func(a, b int32) int {
			return cmp.Or(cmp.Compare(e.est[b], e.est[a]), cmp.Compare(e.pos[a], e.pos[b]))
		})
		w := len(g.order)
		for i := w - 1; i >= 0; i-- {
			if lp := g.order[i]; e.est[lp] == 0 {
				w--
				g.order[w] = lp
			}
		}
		copy(g.order, hot)
		e.reindex(g)
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
// what else it timed (VirtualT) and ends the run with obs.End.
func (e *Engine) Stats(start time.Time, psm []sim.WorkerStats) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:      e.sh.Name,
		WallNS:      time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		Rounds:      e.round,
		LPs:         e.part.Count,
		Workers:     psm,
		FusedRounds: e.fused,
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

// Group returns the two lists of group g's current round: the LPs phase 1
// runs, in schedule order (Advance builds it), and the LPs phase 3 receives,
// in index order (Globals builds it).
func (e *Engine) Group(g int) (run, recv []int32) {
	return e.groups[g].run, e.groups[g].recv
}

// IdleDepth is the summed FEL depth of the LPs the round just advanced did
// not receive. Only probed runs keep it.
func (e *Engine) IdleDepth() uint64 { return uint64(e.idleDepth) }

// Est is lp's scheduling estimate, refreshed every period rounds from what
// SetLastP recorded (MetricPrevTime) or Receive counted
// (MetricPendingEvents).
func (e *Engine) Est(lp int32) int64 { return e.est[lp] }

// SetLastP records lp's processing time in the round just run. This one
// field is where the drivers' clocks meet the scheduler: the live driver
// writes wall nanoseconds (lpClock does it in batches), the virtual one
// modelled nanoseconds.
func (e *Engine) SetLastP(lp int32, ns int64) { e.lps[lp].lastP = ns }
