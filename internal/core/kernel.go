package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

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

// Run implements sim.Kernel: one group holding every LP of Algorithm 1's
// partition (or of cfg.ManualLP), pulled by cfg.Threads workers.
func (k *Kernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return run(m, func(links []sim.LinkInfo) (Shape, error) {
		var part *Partition
		if k.cfg.ManualLP != nil {
			part = Manual(k.cfg.ManualLP, links)
		} else {
			part = FineGrained(m.Nodes, links)
		}
		return Shape{Name: k.Name(), Part: part, PerGroup: k.cfg.Threads, Cfg: k.cfg}, nil
	})
}

// live is the goroutine driver of the round engine (engine.go): one
// goroutine and one engine thread per worker, the homes' cursors to hand
// out LPs, a barrier whose two serial sections run phases 2 and 4, and a
// stopwatch for P/S/M. The slices are what the workers leave each other
// across those sections.
type live struct {
	*Engine
	bar    *syncx.Barrier
	times  []sim.WorkerStats // each worker's P/S/M, written as it exits
	homeOf []int32           // LP → home in its group (homes); nil when groups have one worker

	// fuseBelow is the window size, in events, under which a serial section
	// runs rounds alone (fuse); 0 when the shape never does. For the round
	// records after phase 4: idle is the depth of the FELs the round did
	// not receive, fusedNS the wall time of the rounds fused since phase 4,
	// which those rounds' own records carry. rec is fuse's record scratch.
	fuseBelow int
	idle      uint64
	fusedNS   int64
	rec       obs.RoundRecord
}

// fuseEvents is the window size, in events per worker, below which a round
// is not worth sharing. A shared round costs two barrier episodes and a
// receive pass, about 12 µs + 0.43 µs/event on a two-core host against
// 1.5 µs + 0.67 µs/event for a round run by one worker, which crosses at
// about 40 events for two workers. Unvalidated beyond two cores.
const fuseEvents = 16

// fuseRule says when a serial section fuses a window: by the count, except
// in this package's tests, which also fuse always and never.
var fuseRule = fuseByCount

const (
	fuseByCount = iota
	fuseAlways
	fuseNever
)

// newLive is e's live driver; a group of several workers gets a home each.
// The Unison shape — one group of several workers, no wire — fuses small
// windows.
func newLive(e *Engine) *live {
	workers := len(e.workers)
	l := &live{
		Engine: e,
		bar:    syncx.NewBarrier(workers),
		times:  make([]sim.WorkerStats, workers),
	}
	if len(e.groups) == 1 && e.sh.PerGroup > 1 && e.sh.Wire == nil && fuseRule != fuseNever {
		l.fuseBelow = fuseEvents * e.sh.PerGroup
	}
	if e.sh.PerGroup > 1 {
		l.homeOf = homes(&e.sh)
		for i := range e.groups {
			e.groups[i].homes = make([]home, e.sh.PerGroup)
		}
		l.shareRun()
	}
	return l
}

// homes cuts every group's LPs, in index order, into PerGroup contiguous
// chunks whose sizes differ by at most one, and returns each LP's chunk: the
// worker of its group that claims it first. Algorithm 1 numbers LPs by their
// lowest node and the topology builders number nodes pod-, rack- or
// BCube0-locally, so a chunk is a piece of the topology.
func homes(sh *Shape) []int32 {
	of, groupOf := make([]int32, sh.Part.Count), sh.GroupOf
	if groupOf == nil {
		groupOf = make([]int32, len(of))
	}
	size, seen := make([]int, sh.Groups()), make([]int, sh.Groups())
	for _, g := range groupOf {
		size[g]++
	}
	for lp, g := range groupOf {
		of[lp] = int32(seen[g] * sh.PerGroup / size[g])
		seen[g]++
	}
	return of
}

// shareRun deals every group's run list out to its homes, each share in the
// list's schedule order, and rewinds their phase-1 cursors.
func (l *live) shareRun() {
	if l.homeOf == nil {
		return
	}
	for i := range l.groups {
		g := &l.groups[i]
		for h := range g.homes {
			g.homes[h].share[runList] = g.homes[h].share[runList][:0]
			g.homes[h].cursor[runList].Store(0)
		}
		for _, lp := range g.run {
			h := &g.homes[l.homeOf[lp]]
			h.share[runList] = append(h.share[runList], lp)
		}
	}
}

// shareRecv cuts every group's recv list, which is in index order and so
// holds each home's LPs as one range, into those ranges, and rewinds their
// phase-3 cursors.
func (l *live) shareRecv() {
	if l.homeOf == nil {
		return
	}
	for i := range l.groups {
		g := &l.groups[i]
		lo := 0
		for h := range g.homes {
			hi := lo
			for hi < len(g.recv) && l.homeOf[g.recv[hi]] == int32(h) {
				hi++
			}
			g.homes[h].share[recvList] = g.recv[lo:hi]
			g.homes[h].cursor[recvList].Store(0)
			lo = hi
		}
	}
}

// claim calls fn on every LP of a group's list (whole) that worker mine of
// the group claims. A group's only worker walks whole with a plain counter;
// otherwise a worker claims its own home's share first, then steals from
// homes mine+1, mine+2, …, through their cursors, until every share is dry.
func claim(homes []home, mine, list int, whole []int32, fn func(lp int32)) {
	if homes == nil {
		for _, lp := range whole {
			fn(lp)
		}
		return
	}
	for k := range homes {
		h := &homes[(mine+k)%len(homes)]
		share, cur := h.share[list], &h.cursor[list]
		for i := cur.Add(1) - 1; i < int64(len(share)); i = cur.Add(1) - 1 {
			fn(share[i])
		}
	}
}

// run executes m under the shape plan chooses for its links, on real
// threads against the wall clock.
func run(m *sim.Model, plan func(links []sim.LinkInfo) (Shape, error)) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	sh, err := plan(m.Links())
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(m, sh)
	if err != nil {
		return nil, err
	}
	l := newLive(e)
	if !e.done {
		workers := len(e.workers)
		threads := make([]*Thread, workers)
		for w := range threads {
			threads[w] = e.NewThread()
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				l.workerLoop(w, threads[w])
			}(w)
		}
		l.workerLoop(0, threads[0])
		wg.Wait()
	}
	st := e.Stats(start, l.times)
	obs.End(sh.Cfg.Observe, st)
	return st, e.err
}

// workerLoop drives worker w, on thread t, through the four-phase round
// (§5.1, Fig 7).
// It is the only round loop of the live kernels: the shape decides nothing
// here except which group worker w claims from, and its home there.
func (l *live) workerLoop(w int, t *Thread) {
	g := &l.groups[l.first+w/l.sh.PerGroup]
	mine := w % l.sh.PerGroup
	ob := &l.outboxes[w]
	// timed: only MetricPrevTime needs per-LP wall-clock estimates.
	timed := l.sh.Cfg.Metric == MetricPrevTime
	probe := l.sh.Cfg.Observe
	clock := lpClock{watch: probe != nil}
	var times sim.WorkerStats
	// rec escapes through the probe interface call; keeping it outside the
	// loop makes that one allocation per run, not one per round. Probes
	// must copy (the pointee is only valid during OnRound).
	var rec obs.RoundRecord
	// What the claim loops do with an LP, and count for the round's record.
	var migrations, recvd, depth uint64
	process := func(lpIdx int32) {
		nev, _ := t.Process(w, lpIdx)
		if timed && clock.note(lpIdx, nev) {
			clock.flush(l.lps)
		}
		if probe != nil && l.Migrated(w, lpIdx) {
			migrations++
		}
	}
	receive := func(lpIdx int32) {
		n, d := t.Receive(lpIdx)
		recvd += uint64(n)
		depth += uint64(d)
	}
	// The serial sections, run by whichever worker reaches the barrier last
	// with every other one parked. Phase 2 also prepares the receive phase
	// before anyone is released; phase 4, and the end of a save phase, may
	// run the next rounds alone (fuse) before dealing out the run list.
	phase2 := func() {
		t.Globals()
		l.shareRecv()
	}
	var fusedNS int64 // what this worker spent running fused rounds since phase 4
	phase4 := func() {
		l.phase4()
		fusedNS += l.fuse(w, t)
		l.shareRun()
	}
	endSave := func() {
		l.EndSave()
		fusedNS += l.fuse(w, t)
		l.shareRun()
	}
	var sw metrics.Stopwatch
	sw.Start()

	for {
		// round and lbts are stable here: they are only written in the
		// phase-4 serial section, behind the barrier this worker left.
		roundIdx := l.round
		roundLBTS := l.lbts
		evStart := l.workers[w].events
		migrations, recvd, depth = 0, 0, 0
		// Phase 1: process events within the window, claiming from the
		// group's run list — longest estimated job first within each home.
		t.StartRound()
		if timed {
			clock.start()
		}
		claim(g.homes, mine, runList, g.run, process)
		if timed {
			clock.flush(l.lps)
		}
		p1 := sw.Lap()
		times.P += p1
		sends := uint64(len(ob.buf))
		// Phase 2 fuses into the barrier: the last worker to arrive
		// handles global events at exactly the window boundary. Its cost
		// lands in that worker's S, where the paper files the collective
		// step of a round (§3.2).
		l.bar.WaitSerial(phase2)
		s1 := sw.Lap()
		times.S += s1

		// Phase 3: receive the staged events of the LPs on the group's recv
		// list, which phase 2 built.
		claim(g.homes, mine, recvList, g.recv, receive)
		mNS := sw.Lap()
		times.M += mNS
		// The round's events are all counted: nothing this worker is
		// credited with from here on belongs to it.
		events := l.workers[w].events - evStart
		// Phase 4 fuses into the barrier the same way: the last arriver
		// updates the window, reschedules LPs and decides termination.
		l.bar.WaitSerial(phase4)
		for l.Saving() {
			// A pause with jobs (a snapshot): the workers phase 4 would have
			// left parked run them between them, and the last one done
			// commits. The stall is synchronization time, like phase 4 itself.
			t.Save()
			l.bar.WaitSerial(endSave)
		}
		// Rounds fused meanwhile are this worker's processing if it ran them
		// and its waiting if not; their records already carry them.
		s2 := sw.Lap()
		times.P += fusedNS
		times.S += s2 - fusedNS
		s2 -= l.fusedNS
		fusedNS = 0
		if probe != nil {
			if w == 0 {
				// The LPs nobody received still hold events: worker 0
				// reports them, so the round's records sum to every FEL.
				depth += l.idle
			}
			rec = obs.RoundRecord{
				Round: roundIdx, Worker: int32(w), LBTS: roundLBTS,
				Events: events,
				ProcNS: p1, SyncNS: s1 + s2, MsgNS: mNS, WaitGlobalNS: s1, MaxLPNS: clock.longest,
				Sends: sends, SendBytes: sends * obs.EventBytes,
				Recvs: recvd, FELDepth: depth, Migrations: migrations,
			}
			probe.OnRound(&rec)
		}
		if l.done {
			l.times[w] = times
			return
		}
	}
}

// phase4 is the serial section of the post-phase-3 barrier, up to fusing.
func (l *live) phase4() {
	l.Advance()
	l.idle, l.fusedNS = l.IdleDepth(), 0
}

// fuse runs whole rounds on worker w's thread t while every other worker
// waits in the barrier whose serial section this is, for as long as the
// window about to open holds fewer than fuseBelow events: Process over the
// run list in schedule order, Globals, Receive, Advance. It stops at a
// window that reaches the bound, at the end of the run, or when a save
// phase opens, and returns the wall time it took. Which thread runs a
// window changes nothing in it: its LPs are independent by construction.
func (l *live) fuse(w int, t *Thread) (ns int64) {
	if !l.small() {
		return 0
	}
	// Every outbox still holds the last shared round's deliveries, which
	// Receive below would gather again. Fused rounds stage nothing: their
	// cross-LP events go straight into the target FEL (workerSink).
	for i := range l.outboxes {
		l.outboxes[i].reset()
	}
	probe, g := l.sh.Cfg.Observe, &l.groups[0]
	t.sink.direct = true
	var sw metrics.Stopwatch
	sw.Start()
	for {
		round, lbts := l.round, l.lbts
		var events int64
		var migrations uint64
		for _, lp := range g.run {
			n, _ := t.Process(w, lp)
			events += n
			if probe != nil && l.Migrated(w, lp) {
				migrations++
			}
		}
		globals := t.Globals()
		for _, lp := range g.recv {
			t.Receive(lp)
		}
		l.Advance()
		l.fused++
		if probe != nil { // time each round, not just the stretch
			wall := sw.Lap()
			ns += wall
			l.file(probe, w, round, lbts, wall, uint64(events), uint64(globals), migrations)
		}
		if !l.small() {
			break
		}
	}
	t.sink.direct = false
	if probe == nil {
		ns = sw.Lap()
	}
	l.fusedNS += ns
	return ns
}

// file reports a round worker w fused to probe: one record per worker, the
// parked workers' with no events and the round's wall time as SyncNS, w's
// with its events, the wall time as ProcNS and the depth of every FEL.
// Global events are worker 0's, as in a shared round.
func (l *live) file(probe obs.Probe, w int, round uint64, lbts sim.Time, wall int64, events, globals, migrations uint64) {
	for v := range l.workers {
		l.rec = obs.RoundRecord{Round: round, Worker: int32(v), LBTS: lbts, SyncNS: wall, Fused: true}
		if v == w {
			l.rec.Events, l.rec.ProcNS, l.rec.SyncNS = events, wall, 0
			l.rec.FELDepth, l.rec.Migrations = uint64(l.depth), migrations
		}
		if v == 0 {
			l.rec.Events += globals
		}
		probe.OnRound(&l.rec)
	}
}

// small reports whether the window just opened is to be fused: the run
// goes on, no save phase is open (a pause client without jobs has already
// run and stops nothing), and the shape fuses windows this small.
func (l *live) small() bool {
	if l.fuseBelow == 0 || l.done || l.Saving() {
		return false
	}
	return fuseRule == fuseAlways || l.windowEvents(l.fuseBelow) < l.fuseBelow
}
