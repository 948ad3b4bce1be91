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
// goroutine and one engine thread per worker, the group cursors to hand
// out LPs, a barrier whose two serial sections run phases 2 and 4, and a
// stopwatch for P/S/M. The slices are what the workers leave each other
// across those sections.
type live struct {
	*Engine
	bar    *syncx.Barrier
	roundP []int64
	times  []sim.WorkerStats // each worker's P/S/M, written as it exits
	trace  []sim.RoundSample
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
	workers := len(e.workers)
	l := &live{
		Engine: e,
		bar:    syncx.NewBarrier(workers),
		roundP: make([]int64, workers),
		times:  make([]sim.WorkerStats, workers),
	}
	if !e.done {
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
	st.RoundTrace = l.trace
	obs.End(sh.Cfg.Observe, st)
	return st, e.err
}

// workerLoop drives worker w, on thread t, through the four-phase round
// (§5.1, Fig 7).
// It is the only round loop of the live kernels: the shape decides nothing
// here except which group's cursors worker w pulls from.
func (l *live) workerLoop(w int, t *Thread) {
	g := &l.groups[l.first+w/l.sh.PerGroup]
	// solo: this worker is its group's only one, so it walks the group's
	// lists with a plain counter; nobody else claims from the cursors.
	solo := l.sh.PerGroup == 1
	ob := &l.outboxes[w]
	// timed: only MetricPrevTime needs per-LP wall-clock estimates.
	timed := l.sh.Cfg.Metric == MetricPrevTime
	probe := l.sh.Cfg.Observe
	var clock lpClock
	var times sim.WorkerStats
	// rec escapes through the probe interface call; keeping it outside the
	// loop makes that one allocation per run, not one per round. Probes
	// must copy (the pointee is only valid during OnRound).
	var rec obs.RoundRecord
	// The two serial sections, run by whichever worker reaches the barrier
	// last with every other one parked. Phase 2 also prepares the receive
	// phase before anyone is released.
	phase2 := func() {
		t.Globals()
		for i := range l.groups {
			l.groups[i].cursor3.Store(0)
		}
	}
	var sw metrics.Stopwatch
	sw.Start()

	for {
		// round and lbts are stable here: they are only written in the
		// phase-4 serial section, behind the barrier this worker left.
		roundIdx := l.round
		roundLBTS := l.lbts
		evStart := l.workers[w].events
		var migrations uint64
		// Phase 1: process events within the window, pulling the group's
		// run list — longest estimated job first — via its shared cursor.
		t.StartRound()
		run := g.run
		if timed {
			clock.start()
		}
		for i := int64(0); ; i++ {
			if !solo {
				i = g.cursor1.Add(1) - 1
			}
			if i >= int64(len(run)) {
				break
			}
			lpIdx := run[i]
			nev, _ := t.Process(w, lpIdx)
			if timed && clock.note(lpIdx, nev) {
				clock.flush(l.lps)
			}
			if probe != nil && l.Migrated(w, lpIdx) {
				migrations++
			}
		}
		if timed {
			clock.flush(l.lps)
		}
		p1 := sw.Lap()
		times.P += p1
		l.roundP[w] = p1
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
		recv := g.recv
		var recvd, depth uint64
		for i := int64(0); ; i++ {
			if !solo {
				i = g.cursor3.Add(1) - 1
			}
			if i >= int64(len(recv)) {
				break
			}
			n, d := t.Receive(recv[i])
			recvd += uint64(n)
			depth += uint64(d)
		}
		mNS := sw.Lap()
		times.M += mNS
		// Phase 4 fuses into the barrier the same way: the last arriver
		// updates the window, reschedules LPs and decides termination.
		l.bar.WaitSerial(l.phase4)
		if l.Saving() {
			// A checkpoint round: the workers phase 4 would have left parked
			// encode the snapshot between them, and the last one done writes
			// it. The stall is synchronization time, like phase 4 itself.
			t.Save()
			l.bar.WaitSerial(l.EndSave)
		}
		s2 := sw.Lap()
		times.S += s2
		if probe != nil {
			if w == 0 {
				// The LPs nobody received still hold events: worker 0
				// reports them, so the round's records sum to every FEL.
				depth += l.IdleDepth()
			}
			rec = obs.RoundRecord{
				Round: roundIdx, Worker: int32(w), LBTS: roundLBTS,
				Events: l.workers[w].events - evStart,
				ProcNS: p1, SyncNS: s1 + s2, MsgNS: mNS, WaitGlobalNS: s1,
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

// phase4 is the serial section of the post-phase-3 barrier.
func (l *live) phase4() {
	if l.sh.Cfg.RecordRounds {
		samp := sim.RoundSample{LBTS: l.lbts, PerWorker: append([]int64(nil), l.roundP...)}
		for _, p := range l.roundP {
			if p > samp.Makespan {
				samp.Makespan = p
			}
		}
		samp.Phase1 = samp.Makespan
		l.trace = append(l.trace, samp)
	}
	l.Advance()
	for i := range l.groups {
		l.groups[i].cursor1.Store(0)
	}
}
