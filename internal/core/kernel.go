package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unison/internal/ckpt"
	"unison/internal/eventq"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
	"unison/internal/syncx"
)

// Metric selects the load-adaptive scheduling estimate P̂ᵢ,ᵣ (§4.3).
type Metric uint8

const (
	// MetricPrevTime estimates an LP's next-round cost by its measured
	// processing time in the previous round — Unison's default
	// ("ByExecutionTime" in the artifact).
	MetricPrevTime Metric = iota
	// MetricPendingEvents estimates by the number of events the LP
	// received for the next round.
	MetricPendingEvents
	// MetricNone disables scheduling (LPs keep their original order).
	MetricNone
)

func (m Metric) String() string {
	switch m {
	case MetricPrevTime:
		return "prev-time"
	case MetricPendingEvents:
		return "pending-events"
	default:
		return "none"
	}
}

// Config tunes the Unison kernel.
type Config struct {
	// Threads is the worker count (defaults to GOMAXPROCS).
	Threads int
	// Metric selects the scheduling estimate.
	Metric Metric
	// Period is the scheduling period in rounds; 0 selects the paper's
	// ⌈log₂ n⌉ rule.
	Period int
	// ManualLP bypasses Algorithm 1 with an explicit node→LP assignment
	// (used by the partition-granularity micro-benchmarks, Fig 12).
	ManualLP []int32
	// CacheWays enables the cache-locality model when positive.
	CacheWays int
	// RecordRounds captures a per-round trace (Figures 5b/9b/13).
	RecordRounds bool
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives per-round per-worker telemetry
	// (internal/obs). A probe only observes: probed runs are bit-identical
	// to unprobed ones, and a nil probe costs one branch per round.
	Observe obs.Probe
}

// Kernel is the Unison simulation kernel.
type Kernel struct {
	cfg Config
}

// New returns a Unison kernel with cfg.
func New(cfg Config) *Kernel {
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	return &Kernel{cfg: cfg}
}

// Name implements sim.Kernel.
func (k *Kernel) Name() string { return fmt.Sprintf("unison(t=%d)", k.cfg.Threads) }

// shape is the one decision that differs between the round-based kernels:
// which workers may run which LPs. The LPs of part are divided into
// groups; each group owns perGroup workers (numbered group*perGroup+i)
// that pull that group's LPs, and only those, through the group's
// cursors:
//
//	Unison  one group, Threads workers      LPs bind to workers per round
//	hybrid  one group per host              LPs never leave their host
//	barrier one group per rank, one worker  static rank binding
//
// Everything else about a round is the same for every shape.
type shape struct {
	name     string // RunStats.Kernel
	part     *Partition
	groupOf  []int32 // LP → group; nil puts every LP in group 0
	perGroup int
	// cfg carries the knobs every shape shares: Metric, Period, CacheWays,
	// RecordRounds, MaxRounds, Observe. Threads and ManualLP were consumed
	// by whoever built the shape.
	cfg Config
}

// Run implements sim.Kernel: one group holding every LP of Algorithm 1's
// partition (or of cfg.ManualLP), pulled by cfg.Threads workers.
func (k *Kernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return run(m, func(links []sim.LinkInfo) (shape, error) {
		var part *Partition
		if k.cfg.ManualLP != nil {
			part = Manual(k.cfg.ManualLP, links)
		} else {
			part = FineGrained(m.Nodes, links)
		}
		return shape{name: k.Name(), part: part, perGroup: k.cfg.Threads, cfg: k.cfg}, nil
	})
}

// lpState is one logical process. Cross-LP events in flight live in the
// per-worker staged outboxes (mailbox.go), not on the LP.
type lpState struct {
	fel *eventq.Queue
	// est is the scheduling estimate; lastP the measured processing time
	// of the previous round; pending the events received last round.
	est     int64
	lastP   int64
	pending int64
	// lastW is 1 + the worker that ran this LP last round (0 = never);
	// only maintained when a probe is attached, to count migrations.
	lastW int32
}

// group is one set of LPs and the cursors its workers pull them through.
// The layout is two cache lines. The slice headers never change after
// setup (phase 4 sorts order in place) and fill the first, which therefore
// stays shared and clean; the cursors own the second, so a group's
// workers fight over that line only with each other and only for the
// increment. Sharing one line, every claim re-fetched the headers from
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

// rt is the shared runtime of one run.
type rt struct {
	m    *sim.Model
	part *Partition
	lps  []lpState
	pub  *eventq.Queue
	seqs sim.SeqTable

	// outboxes[w] stages worker w's outgoing cross-LP events of the
	// current round; the phase barriers order writes before the phase-3
	// reads (mailbox.go).
	outboxes []outbox

	lbts      sim.Time
	lookahead sim.Time

	groups []group

	perWorkerMin []sim.Time
	roundP       []int64

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
	trace []sim.RoundSample

	workers []workerState

	// sh is read a few times per round at most; it sits last, off the
	// lines holding what the event loop reads per event (lps, seqs, lbts).
	sh shape
}

type workerState struct {
	events  uint64
	lastT   sim.Time
	p, s, m int64
	_       [8]int64 // avoid false sharing between workers' hot counters
}

// workerSink routes events created by one worker.
type workerSink struct {
	rt    *rt
	w     int
	curLP int32 // -1 while executing global events (direct insertion)
}

func (s *workerSink) Put(ev sim.Event) {
	tgt := s.rt.part.LPOf[ev.Node]
	if s.curLP < 0 || tgt == s.curLP {
		s.rt.lps[tgt].fel.Push(ev)
		return
	}
	if ev.Time < s.rt.lbts {
		panic(fmt.Sprintf("core: causality violation: cross-LP event at %v inside window ending %v (lookahead too small)", ev.Time, s.rt.lbts))
	}
	s.rt.outboxes[s.w].put(tgt, ev)
}

func (s *workerSink) PutGlobal(ev sim.Event) {
	if s.curLP >= 0 {
		panic("core: global events may only be scheduled at setup or from other global events (§4.2)")
	}
	s.rt.pub.Push(ev)
}

// run executes m under the shape plan chooses for its links. It is the
// only place a round-based run is set up, seeded (from Model.Init or a
// checkpoint) and torn down.
func run(m *sim.Model, plan func(links []sim.LinkInfo) (shape, error)) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	sh, err := plan(m.Links())
	if err != nil {
		return nil, err
	}
	part := sh.part
	if len(part.LPOf) != m.Nodes {
		return nil, errors.New("core: partition does not cover every node")
	}
	n := part.Count
	groups := 1
	for _, g := range sh.groupOf {
		if int(g) >= groups {
			groups = int(g) + 1
		}
	}
	workers := groups * sh.perGroup
	r := &rt{
		sh:           sh,
		m:            m,
		part:         part,
		lps:          make([]lpState, n),
		outboxes:     make([]outbox, workers),
		pub:          eventq.New(16),
		seqs:         sim.NewSeqTable(m.Nodes),
		lookahead:    part.Lookahead,
		groups:       make([]group, groups),
		perWorkerMin: make([]sim.Time, workers),
		roundP:       make([]int64, workers),
		workers:      make([]workerState, workers),
	}
	for i := range r.lps {
		r.lps[i].fel = eventq.New(64)
		g := &r.groups[0]
		if sh.groupOf != nil {
			g = &r.groups[sh.groupOf[i]]
		}
		g.lps = append(g.lps, int32(i))
	}
	for i := range r.groups {
		r.groups[i].order = append([]int32(nil), r.groups[i].lps...)
	}
	for w := range r.outboxes {
		r.outboxes[w] = newOutbox(n)
	}
	if sh.cfg.CacheWays > 0 {
		r.cache = metrics.NewCacheModel(workers, sh.cfg.CacheWays)
	}
	r.period = uint64(sh.cfg.Period)
	if r.period == 0 {
		r.period = uint64(1)
		if n > 1 {
			r.period = uint64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
		}
	}
	seed := m.Init
	if hook := m.Ckpt; hook != nil && hook.Restore != nil {
		ks := hook.Restore
		if len(ks.Seqs) != len(r.seqs) {
			return nil, fmt.Errorf("core: checkpoint has %d sequence counters, model needs %d", len(ks.Seqs), len(r.seqs))
		}
		copy(r.seqs, ks.Seqs)
		r.round, r.baseEvents, r.baseEnd = ks.Round, ks.Events, ks.EndTime
		seed = ks.Queue
	}
	for _, ev := range seed {
		if ev.Node == sim.GlobalNode {
			r.pub.Push(ev)
		} else {
			r.lps[part.LPOf[ev.Node]].fel.Push(ev)
		}
	}

	probe := sh.cfg.Observe
	obs.Begin(probe, obs.RunMeta{Kernel: sh.name, Workers: workers, LPs: n})

	// Initial window (the phase-4 computation for round 0), evaluated with
	// no worker started yet.
	allMin := sim.MaxTime
	for i := range r.lps {
		if t := r.lps[i].fel.NextTime(); t < allMin {
			allMin = t
		}
	}
	if allMin == sim.MaxTime && r.pub.Empty() {
		// Nothing to do at all.
		st := r.stats(start)
		obs.End(probe, st)
		return st, nil
	}
	r.lbts = eq2(allMin, r.pub.NextTime(), r.lookahead)

	bar := syncx.NewBarrier(workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.workerLoop(w, bar)
		}(w)
	}
	r.workerLoop(0, bar)
	wg.Wait()

	st := r.stats(start)
	obs.End(probe, st)
	return st, r.err
}

// Eq2 is the paper's Equation 2 — LBTS = min(N_pub, min_i N_i +
// lookahead) — with saturation at sim.MaxTime. Exported for the baseline
// kernels, which share the window computation (their Equation 1 is the
// special case with no public LP).
func Eq2(allMin, pubNext, lookahead sim.Time) sim.Time { return eq2(allMin, pubNext, lookahead) }

// eq2 is LBTS = min(N_pub, min_i N_i + lookahead) with saturation.
func eq2(allMin, pubNext, lookahead sim.Time) sim.Time {
	window := sim.MaxTime
	if allMin != sim.MaxTime && lookahead != sim.MaxTime {
		window = allMin + lookahead
		if window < allMin { // overflow
			window = sim.MaxTime
		}
	}
	if pubNext < window {
		return pubNext
	}
	return window
}

// workerLoop is the four-phase round loop of one worker (§5.1, Fig 7).
// It is the only round loop of the live kernels: the shape decides nothing
// here except which group's cursors worker w pulls from.
func (r *rt) workerLoop(w int, bar *syncx.Barrier) {
	g := &r.groups[w/r.sh.perGroup]
	// solo: this worker is its group's only one, so it walks the group's
	// LPs with a plain counter; nobody else claims from the cursors.
	solo := r.sh.perGroup == 1
	sink := &workerSink{rt: r, w: w}
	ctx := sim.NewCtx(sink, w)
	ws := &r.workers[w]
	ob := &r.outboxes[w]
	// timed: only MetricPrevTime needs per-LP wall-clock estimates.
	timed := r.sh.cfg.Metric == MetricPrevTime
	probe := r.sh.cfg.Observe
	var clock lpClock
	var recv []sim.Event // phase-3 gather scratch, reused across rounds
	// rec escapes through the probe interface call; keeping it outside the
	// loop makes that one allocation per run, not one per round. Probes
	// must copy (the pointee is only valid during OnRound).
	var rec obs.RoundRecord
	var sw metrics.Stopwatch
	sw.Start()

	for {
		// r.round and r.lbts are stable here: they are only written in the
		// phase-4 serial section, behind the barrier this worker left.
		roundIdx := r.round
		roundLBTS := r.lbts
		evStart := ws.events
		var migrations uint64
		// Phase 1: process events within the window, pulling the group's
		// LPs in longest-estimated-job-first order via its shared cursor.
		// The previous round's staged events were all delivered in phase
		// 3, so the outbox can be recycled before the first Put.
		ob.reset()
		nLP := int64(len(g.order))
		if timed {
			clock.start()
		}
		for i := int64(0); ; i++ {
			if !solo {
				i = g.cursor1.Add(1) - 1
			}
			if i >= nLP {
				break
			}
			lpIdx := g.order[i]
			lp := &r.lps[lpIdx]
			sink.curLP = lpIdx
			var nev int64
			for {
				ev, ok := lp.fel.PopBefore(r.lbts)
				if !ok {
					break
				}
				if r.cache != nil {
					r.cache.Touch(w, ev.Node)
				}
				ctx.Begin(&ev, r.seqs.Of(ev.Node))
				ev.Fn(ctx)
				nev++
				ws.lastT = ev.Time
			}
			ws.events += uint64(nev)
			if timed && clock.note(lpIdx, nev) {
				clock.flush(r.lps)
			}
			if probe != nil && nev > 0 {
				if lp.lastW != 0 && lp.lastW != int32(w)+1 {
					migrations++
				}
				lp.lastW = int32(w) + 1
			}
		}
		if timed {
			clock.flush(r.lps)
		}
		p1 := sw.Lap()
		ws.p += p1
		r.roundP[w] = p1
		sends := uint64(len(ob.buf))
		// Phase 2 fuses into the barrier: the last worker to arrive
		// handles global events at exactly the window boundary and
		// prepares the receive phase before anyone is released. Its cost
		// lands in that worker's S, where the paper files the collective
		// step of a round (§3.2).
		bar.WaitSerial(func() { r.phase2(ctx, sink) })
		s1 := sw.Lap()
		ws.s += s1

		// Phase 3: gather each of the group's LPs' staged events from every
		// worker's outbox (events from other groups arrive the same way),
		// bulk-load them into the FEL, and compute the local minimum
		// next-event time.
		locMin := sim.MaxTime
		var recvd, depth uint64
		for i := int64(0); ; i++ {
			if !solo {
				i = g.cursor3.Add(1) - 1
			}
			if i >= nLP {
				break
			}
			lpIdx := g.lps[i]
			lp := &r.lps[lpIdx]
			recv = gather(r.outboxes, lpIdx, recv[:0]) //unison:owner transfer phase-2 barrier published every worker's phase-1 puts
			lp.pending = int64(len(recv))
			lp.fel.PushBatch(recv)
			if t := lp.fel.NextTime(); t < locMin {
				locMin = t
			}
			if probe != nil {
				recvd += uint64(len(recv))
				depth += uint64(lp.fel.Len())
			}
		}
		r.perWorkerMin[w] = locMin
		mNS := sw.Lap()
		ws.m += mNS
		// Phase 4 fuses into the barrier the same way: the last arriver
		// updates the window, reschedules LPs and decides termination.
		bar.WaitSerial(func() { r.phase4() })
		s2 := sw.Lap()
		ws.s += s2
		if probe != nil {
			rec = obs.RoundRecord{
				Round: roundIdx, Worker: int32(w), LBTS: roundLBTS,
				Events: ws.events - evStart,
				ProcNS: p1, SyncNS: s1 + s2, MsgNS: mNS, WaitGlobalNS: s1,
				Sends: sends, SendBytes: sends * obs.EventBytes,
				Recvs: recvd, FELDepth: depth, Migrations: migrations,
			}
			probe.OnRound(&rec)
		}
		if r.done {
			return
		}
	}
}

// phase2 runs as the serial section of the post-phase-1 barrier, with
// every other worker parked.
func (r *rt) phase2(ctx *sim.Ctx, sink *workerSink) {
	sink.curLP = -1
	executedGlobal := false
	for !r.pub.Empty() && r.pub.Peek().Time == r.lbts {
		ev := r.pub.Pop()
		ctx.Begin(&ev, r.seqs.Of(sim.GlobalNode))
		ev.Fn(ctx)
		r.workers[0].events++
		r.workers[0].lastT = ev.Time
		executedGlobal = true
	}
	if executedGlobal {
		// A global event may have mutated the topology: recompute the
		// lookahead from the live link set (§4.2).
		r.lookahead = CutLookahead(r.part.LPOf, r.m.Links())
		if ctx.Stopped() {
			r.stopped = true
		}
	}
	for i := range r.groups {
		r.groups[i].cursor3.Store(0)
	}
}

// phase4 runs as the serial section of the post-phase-3 barrier, with
// every other worker parked.
func (r *rt) phase4() {
	allMin := sim.MaxTime
	for _, t := range r.perWorkerMin {
		if t < allMin {
			allMin = t
		}
	}
	pubNext := r.pub.NextTime()

	if r.sh.cfg.RecordRounds {
		samp := sim.RoundSample{LBTS: r.lbts, PerWorker: append([]int64(nil), r.roundP...)}
		for _, p := range r.roundP {
			if p > samp.Makespan {
				samp.Makespan = p
			}
		}
		samp.Phase1 = samp.Makespan
		r.trace = append(r.trace, samp)
	}

	r.round++
	switch {
	case r.stopped:
		r.done = true
	case allMin == sim.MaxTime && pubNext == sim.MaxTime:
		r.done = true
	case r.sh.cfg.MaxRounds > 0 && r.round >= r.sh.cfg.MaxRounds:
		r.done = true
		r.err = errors.New("core: MaxRounds exceeded")
	default:
		r.lbts = eq2(allMin, pubNext, r.lookahead)
		if hook := r.m.Ckpt; hook.SaveEvery(r.round) {
			// The post-phase-3 serial section is the quiescent point: every
			// worker is parked, every staged event has been delivered, and
			// the new window has not started.
			if err := r.saveCkpt(); err != nil {
				r.err = err
				r.done = true
			}
		}
		r.reschedule()
		for i := range r.groups {
			r.groups[i].cursor1.Store(0)
		}
	}
}

// saveCkpt snapshots the merged FELs through the model's checkpoint
// hook. Only called from the phase-4 serial section.
func (r *rt) saveCkpt() error {
	var queue []sim.Event
	for i := range r.lps {
		queue = r.lps[i].fel.Snapshot(queue)
	}
	queue = r.pub.Snapshot(queue)
	if err := ckpt.CheckQueue(queue); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	ks := &sim.KernelState{
		Round:   r.round,
		Now:     r.lbts,
		EndTime: r.baseEnd,
		Events:  r.baseEvents,
		Seqs:    append([]uint64(nil), r.seqs...),
		Queue:   queue,
	}
	for i := range r.workers {
		ks.Events += r.workers[i].events
		if t := r.workers[i].lastT; t > ks.EndTime {
			ks.EndTime = t
		}
	}
	if err := r.m.Ckpt.Save(ks); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// reschedule re-sorts every group's LP order by the scheduling estimate
// every period rounds (§4.3).
func (r *rt) reschedule() {
	if r.sh.cfg.Metric == MetricNone || r.round%r.period != 0 {
		return
	}
	for i := range r.lps {
		lp := &r.lps[i]
		if r.sh.cfg.Metric == MetricPrevTime {
			lp.est = lp.lastP
		} else {
			lp.est = lp.pending
		}
	}
	for i := range r.groups {
		order := r.groups[i].order
		sort.SliceStable(order, func(a, b int) bool {
			return r.lps[order[a]].est > r.lps[order[b]].est
		})
	}
}

func (r *rt) stats(start time.Time) *sim.RunStats {
	st := &sim.RunStats{
		Kernel:     r.sh.name,
		WallNS:     time.Since(start).Nanoseconds(), //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
		Rounds:     r.round,
		LPs:        r.part.Count,
		Workers:    make([]sim.WorkerStats, len(r.workers)),
		RoundTrace: r.trace,
	}
	st.Events = r.baseEvents
	st.EndTime = r.baseEnd
	for i := range r.workers {
		w := &r.workers[i]
		st.Events += w.events
		if w.lastT > st.EndTime {
			st.EndTime = w.lastT
		}
		st.Workers[i] = sim.WorkerStats{P: w.p, S: w.s, M: w.m, Events: w.events}
	}
	if r.cache != nil {
		st.CacheRefs, st.CacheMisses = r.cache.Counters()
	}
	return st
}
