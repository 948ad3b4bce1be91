package core_test

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/topology"
	"unison/internal/vtime"
)

// lineTopo builds a chain of n nodes with the given uniform link delay.
func lineTopo(n int, delay sim.Time) *topology.Graph {
	g := topology.New()
	for i := 0; i < n; i++ {
		g.AddNode(topology.Host, "h")
	}
	for i := 0; i < n-1; i++ {
		g.AddLink(sim.NodeID(i), sim.NodeID(i+1), 1e9, delay)
	}
	return g
}

// testDesc is a checkpoint descriptor with no payload, so the test models
// have no event a snapshot would refuse (ckpt.NoDesc).
type testDesc struct{}

func (testDesc) CkptKind() uint16             { return 0xfffe }
func (testDesc) CkptEncode(buf []byte) []byte { return buf }

// saveFunc is a checkpoint hook that hands fn every snapshot the way a
// restore sees one: the kernel's event lists, each read by its own job,
// merged into Queue.
func saveFunc(every uint64, fn func(ks *sim.KernelState) error) *sim.CkptHook {
	return &sim.CkptHook{Every: every, NewSaver: func() sim.CkptSaver { return &funcSaver{fn: fn} }}
}

type funcSaver struct {
	fn    func(ks *sim.KernelState) error
	ks    *sim.KernelState
	lists [][]sim.Event
}

func (s *funcSaver) Start(ks *sim.KernelState) int {
	s.ks, s.lists = ks, make([][]sim.Event, ks.FELs)
	return ks.FELs
}

func (s *funcSaver) Job(i int, scratch []sim.Event) []sim.Event {
	s.lists[i] = s.ks.FEL(i, nil)
	return scratch
}

func (s *funcSaver) Commit() (int64, error) {
	flat := *s.ks
	flat.Queue = slices.Concat(s.lists...)
	return 0, s.fn(&flat)
}

// relayModel passes a token down the chain `laps` times.
func relayModel(g *topology.Graph, delay sim.Time, laps int) (*sim.Model, *uint64) {
	count := new(uint64)
	n := g.N()
	s := sim.NewSetup()
	var relay func(ctx *sim.Ctx)
	dir := 1
	relay = func(ctx *sim.Ctx) {
		*count++
		cur := int(ctx.Node())
		if cur == n-1 {
			dir = -1
		} else if cur == 0 {
			dir = 1
		}
		if int(*count) < laps {
			ctx.ScheduleDesc(delay, sim.NodeID(cur+dir), relay, testDesc{})
		}
	}
	s.AtDesc(0, 0, relay, testDesc{})
	return &sim.Model{Nodes: n, Links: g.LinkInfos, Init: s.Events()}, count
}

// engineShapes lists the three live shapes of the round engine — one
// group of T workers (Unison), H groups of t (hybrid), n groups of one
// (barrier) — over a chain of n nodes (8 in most rows' tests, where lps and
// workers are what to expect). Every behaviour the engine promises is
// checked once per row, so a shape cannot lose one silently. Of c, each
// kernel takes what it has a knob for.
var engineShapes = []struct {
	name    string
	kernel  func(n int, c core.Config) sim.Kernel
	lps     int
	workers int
	// solo: node 0's LP can only run on worker 0, the calling goroutine,
	// so a panic raised by its events is recoverable by the test.
	solo bool
}{
	{"unison-1x1", unisonShape(1), 8, 1, true},
	{"unison-1x2", unisonShape(2), 8, 2, false},
	{"unison-1x4", unisonShape(4), 8, 4, false},
	{"hybrid-2x1", hybridShape(1), 8, 2, true},
	{"hybrid-2x2", hybridShape(2), 8, 4, false},
	{"barrier-2x1", barrierShape(halves), 2, 2, true},
	{"barrier-nx1", barrierShape(func(n int) []int32 { return spread(n, n) }), 8, 8, true},
	// Degenerate single rank: lookahead is infinite, so the run is one
	// window per global event, like sequential DES.
	{"barrier-1x1", barrierShape(func(n int) []int32 { return make([]int32, n) }), 1, 1, true},
}

func unisonShape(threads int) func(int, core.Config) sim.Kernel {
	return func(_ int, c core.Config) sim.Kernel {
		c.Threads = threads
		return core.New(c)
	}
}

func hybridShape(perHost int) func(int, core.Config) sim.Kernel {
	return func(n int, c core.Config) sim.Kernel {
		return core.NewHybrid(core.HybridConfig{HostOf: halves(n), ThreadsPerHost: perHost,
			Metric: c.Metric, Period: c.Period, MaxRounds: c.MaxRounds, Observe: c.Observe})
	}
}

func barrierShape(lpOf func(n int) []int32) func(int, core.Config) sim.Kernel {
	return func(n int, c core.Config) sim.Kernel {
		return &pdes.BarrierKernel{LPOf: lpOf(n), MaxRounds: c.MaxRounds, Observe: c.Observe}
	}
}

// spread assigns n nodes to k ranks in contiguous runs.
func spread(n, k int) []int32 {
	of := make([]int32, n)
	for i := range of {
		of[i] = int32(i * k / n)
	}
	return of
}

// halves assigns the first n/2 nodes to 0 and the rest to 1.
func halves(n int) []int32 {
	of := make([]int32, n)
	for i := n / 2; i < n; i++ {
		of[i] = 1
	}
	return of
}

// withStop appends a global stop event at t to m, preceded by a no-op
// global event every tick (when positive): each one ends a window, so even
// a single-LP shape, whose lookahead is infinite, runs many rounds.
func withStop(m *sim.Model, t, tick sim.Time) {
	s := sim.NewSetup()
	for at := tick; tick > 0 && at < t; at += tick {
		s.GlobalDesc(at, func(*sim.Ctx) {}, testDesc{})
	}
	s.GlobalDesc(t, func(ctx *sim.Ctx) { ctx.Stop() }, testDesc{})
	extra := s.Events()
	for i := range extra {
		extra[i].Seq = uint64(len(m.Init) + i)
	}
	m.Init = append(m.Init, extra...)
	m.StopAt = t
}

func TestEngineShapes(t *testing.T) {
	for _, sh := range engineShapes {
		sh := sh
		t.Run(sh.name+"/relay-equals-des", func(t *testing.T) {
			ref, refCount := relayModel(lineTopo(8, 500), 500, 100)
			want, err := des.New().Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			m, count := relayModel(lineTopo(8, 500), 500, 100)
			st, err := sh.kernel(8, core.Config{}).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			if *count != *refCount || st.Events != want.Events || st.EndTime != want.EndTime {
				t.Fatalf("count=%d events=%d end=%v, des has count=%d events=%d end=%v",
					*count, st.Events, st.EndTime, *refCount, want.Events, want.EndTime)
			}
			if st.LPs != sh.lps || len(st.Workers) != sh.workers {
				t.Fatalf("LPs=%d workers=%d, want %d and %d", st.LPs, len(st.Workers), sh.lps, sh.workers)
			}
			if st.Rounds == 0 {
				t.Fatal("no rounds recorded")
			}
			var perWorker uint64
			for _, w := range st.Workers {
				perWorker += w.Events
			}
			if perWorker != st.Events {
				t.Fatalf("workers executed %d events, run reports %d", perWorker, st.Events)
			}
		})
		t.Run(sh.name+"/stop-event", func(t *testing.T) {
			m, count := relayModel(lineTopo(8, 500), 500, 1_000_000)
			withStop(m, 10_000, 0)
			st, err := sh.kernel(8, core.Config{}).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			// The relay fires every 500ns; the one AT 10000 belongs to the
			// window after the stop boundary, which never runs: 20 events.
			if *count != 20 {
				t.Fatalf("count=%d", *count)
			}
			if st.EndTime != 10_000 {
				t.Fatalf("end=%v", st.EndTime)
			}
			// Global events are credited to worker 0 in every shape.
			if got := st.Events - uint64(*count); got != 1 {
				t.Fatalf("%d events beyond the relay's, want the stop event alone", got)
			}
		})
		t.Run(sh.name+"/global-from-node-panics", func(t *testing.T) {
			if !sh.solo {
				t.Skip("node 0's LP may run off the test goroutine")
			}
			s := sim.NewSetup()
			s.At(0, 0, func(ctx *sim.Ctx) {
				ctx.ScheduleGlobal(1000, func(*sim.Ctx) {})
			})
			m := &sim.Model{Nodes: 8, Links: lineTopo(8, 500).LinkInfos, Init: s.Events()}
			withStop(m, 5000, 0)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("global event from node event did not panic")
				}
				if !strings.Contains(strings.ToLower(sprint(r)), "global") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			_, _ = sh.kernel(8, core.Config{}).Run(m)
		})
		t.Run(sh.name+"/max-rounds", func(t *testing.T) {
			m, _ := relayModel(lineTopo(8, 500), 500, 1_000_000)
			withStop(m, 100_000, 1000)
			_, err := sh.kernel(8, core.Config{MaxRounds: 5}).Run(m)
			if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
				t.Fatalf("MaxRounds did not trip: %v", err)
			}
		})
		// The sparse rows: 64 nodes, of which a round visits two or three
		// (sparse_test.go has the model).
		t.Run(sh.name+"/sparse-equals-des", func(t *testing.T) {
			want, wantSt := sparseRef(t, 64, 500)
			for _, c := range []core.Config{
				{},
				{Metric: core.MetricPendingEvents, Period: 2},
				{Metric: core.MetricPrevTime, Period: 1},
			} {
				sm := newSparseModel(64, 500)
				st, err := sh.kernel(64, c).Run(sm.Model)
				if err == nil {
					err = sm.log.equals(want, st, wantSt)
				}
				if err != nil {
					t.Fatalf("%v, period %d: %v", c.Metric, c.Period, err)
				}
			}
		})
		t.Run(sh.name+"/sparse-ckpt-restore", func(t *testing.T) {
			want, wantSt := sparseRef(t, 64, 500)
			// Snapshot the first quiescent point past t = 40 delays: the
			// token is mid-life, both sleepers asleep, and the global event
			// that inserts onto the idle last node still ahead (except under
			// barrier-1x1, whose only boundaries are the global events).
			sm := newSparseModel(64, 500)
			var snap *sim.KernelState
			sm.Ckpt = saveFunc(1, func(ks *sim.KernelState) error {
				if snap == nil && ks.Now >= 40*500 {
					cp := *ks
					cp.Seqs, cp.Queue = slices.Clone(ks.Seqs), slices.Clone(ks.Queue)
					snap = &cp
				}
				return nil
			})
			st, err := sh.kernel(64, core.Config{}).Run(sm.Model)
			if err == nil {
				err = sm.log.equals(want, st, wantSt)
			}
			if err != nil {
				t.Fatalf("checkpointing run: %v", err)
			}
			busy := map[sim.NodeID]bool{}
			for _, ev := range snap.Queue {
				busy[ev.Node] = true
			}
			if len(busy) > 6 {
				t.Fatalf("snapshot has events pending on %d of 64 nodes, want over 90%% idle", len(busy))
			}
			sm.log = newEvLog(64)
			sm.Ckpt = &sim.CkptHook{Restore: snap}
			rst, err := sh.kernel(64, core.Config{}).Run(sm.Model)
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.log.endsWith(want); err != nil {
				t.Fatalf("restored run: %v", err)
			}
			if got := snap.Events + sm.log.total(); got != wantSt.Events || rst.Events != wantSt.Events ||
				rst.EndTime != wantSt.EndTime || rst.Rounds != st.Rounds {
				t.Fatalf("restored run: %d events before the snapshot + %d after, stats say events=%d end=%v rounds=%d; want events=%d end=%v rounds=%d",
					snap.Events, sm.log.total(), rst.Events, rst.EndTime, rst.Rounds, wantSt.Events, wantSt.EndTime, st.Rounds)
			}
		})
		t.Run(sh.name+"/sparse-fel-depth", func(t *testing.T) {
			// A probe's FELDepth, summed over a round's workers, is the
			// depth of every FEL — the LPs the round did not visit included.
			// A snapshot taken at the same point counts them independently.
			sm := newSparseModel(64, 500)
			pending := map[uint64]uint64{}
			sm.Ckpt = saveFunc(1, func(ks *sim.KernelState) error {
				for _, ev := range ks.Queue {
					if ev.Node != sim.GlobalNode {
						pending[ks.Round-1]++
					}
				}
				return nil
			})
			probe := &depthProbe{sum: map[uint64]uint64{}}
			if _, err := sh.kernel(64, core.Config{Observe: probe}).Run(sm.Model); err != nil {
				t.Fatal(err)
			}
			if sh.lps > 1 && len(pending) < 100 {
				t.Fatalf("only %d rounds snapshotted", len(pending))
			}
			for round, want := range pending {
				if got := probe.sum[round]; got != want {
					t.Fatalf("round %d: workers report FEL depth %d, the FELs hold %d", round, got, want)
				}
			}
		})
		t.Run(sh.name+"/empty-model", func(t *testing.T) {
			m := &sim.Model{Nodes: 8, Links: lineTopo(8, 500).LinkInfos}
			st, err := sh.kernel(8, core.Config{}).Run(m)
			if err != nil {
				t.Fatal(err)
			}
			if st.Events != 0 || st.Rounds != 0 {
				t.Fatalf("phantom work: events=%d rounds=%d", st.Events, st.Rounds)
			}
		})
		t.Run(sh.name+"/ckpt-save-error-aborts", func(t *testing.T) {
			before := runtime.NumGoroutine()
			boom := errors.New("disk full")
			m, count := relayModel(lineTopo(8, 500), 500, 1_000_000)
			withStop(m, 100_000, 1000)
			saves := 0
			m.Ckpt = saveFunc(3, func(*sim.KernelState) error {
				saves++
				return boom
			})
			_, err := sh.kernel(8, core.Config{}).Run(m)
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v, want the Save error wrapped", err)
			}
			if saves != 1 {
				t.Fatalf("run went on to save %d times after the first failure", saves)
			}
			if *count > 100 {
				t.Fatalf("run continued for %d events after a failed save at round 3", *count)
			}
			// Every worker goroutine must have left its round loop. Run waits
			// for them, so this only has to outlast their final return.
			for i := 0; i < 1_000_000 && runtime.NumGoroutine() > before; i++ {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutine leak: %d before, %d after", before, after)
			}
		})
	}
}

// depthProbe sums RoundRecord.FELDepth per round over the workers.
type depthProbe struct {
	mu  sync.Mutex
	sum map[uint64]uint64
}

func (p *depthProbe) BeginRun(obs.RunMeta) {}
func (p *depthProbe) EndRun(*sim.RunStats) {}
func (p *depthProbe) OnRound(rec *obs.RoundRecord) {
	p.mu.Lock()
	p.sum[rec.Round] += rec.FELDepth
	p.mu.Unlock()
}

// pairProbe counts run notifications: a probe that saw BeginRun without
// EndRun shows its run as in progress forever.
type pairProbe struct{ begins, ends int }

func (p *pairProbe) BeginRun(obs.RunMeta)     { p.begins++ }
func (p *pairProbe) EndRun(*sim.RunStats)     { p.ends++ }
func (p *pairProbe) OnRound(*obs.RoundRecord) {}

// TestProbeBeginEndPaired: every run that reports its beginning to a probe
// reports its end too, however it ends — for every engine shape under the
// live driver, and for the two other drivers' failing exits (the virtual
// round driver, and the live null-message kernel).
func TestProbeBeginEndPaired(t *testing.T) {
	boom := errors.New("disk full")
	type outcome struct {
		name string
		run  func(p obs.Probe) error
		fail bool
	}
	var rows []outcome
	for _, sh := range engineShapes {
		sh := sh
		rows = append(rows,
			outcome{sh.name + "/completes", func(p obs.Probe) error {
				m, _ := relayModel(lineTopo(8, 500), 500, 100)
				_, err := sh.kernel(8, core.Config{Observe: p}).Run(m)
				return err
			}, false},
			outcome{sh.name + "/empty-model", func(p obs.Probe) error {
				_, err := sh.kernel(8, core.Config{Observe: p}).Run(&sim.Model{Nodes: 8, Links: lineTopo(8, 500).LinkInfos})
				return err
			}, false},
			outcome{sh.name + "/max-rounds", func(p obs.Probe) error {
				m, _ := relayModel(lineTopo(8, 500), 500, 1_000_000)
				withStop(m, 100_000, 1000)
				_, err := sh.kernel(8, core.Config{MaxRounds: 5, Observe: p}).Run(m)
				return err
			}, true},
			outcome{sh.name + "/ckpt-save-error", func(p obs.Probe) error {
				m, _ := relayModel(lineTopo(8, 500), 500, 1_000_000)
				withStop(m, 100_000, 1000)
				m.Ckpt = saveFunc(3, func(*sim.KernelState) error { return boom })
				_, err := sh.kernel(8, core.Config{Observe: p}).Run(m)
				return err
			}, true},
		)
	}
	rows = append(rows,
		outcome{"v-unison/max-rounds", func(p obs.Probe) error {
			m, _ := relayModel(lineTopo(8, 500), 500, 1_000_000)
			withStop(m, 100_000, 1000)
			_, err := vtime.Run(m, vtime.Config{Algo: vtime.Unison, Cores: 2, MaxRounds: 5, Observe: p})
			return err
		}, true},
		outcome{"nullmsg/ckpt-save-error", func(p obs.Probe) error {
			m, _ := relayModel(lineTopo(8, 500), 500, 1_000_000)
			withStop(m, 100_000, 0)
			m.Ckpt = saveFunc(0, func(*sim.KernelState) error { return boom })
			m.Ckpt.EveryTime = 10_000
			_, err := (&pdes.NullMessageKernel{LPOf: halves(8), Observe: p}).Run(m)
			return err
		}, true},
	)
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			p := &pairProbe{}
			if err := row.run(p); (err != nil) != row.fail {
				t.Fatalf("err=%v, want failure=%v", err, row.fail)
			}
			if p.begins != 1 || p.ends != 1 {
				t.Fatalf("probe saw %d BeginRun and %d EndRun, want one of each", p.begins, p.ends)
			}
		})
	}
}

func sprint(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

func TestKernelGlobalFromGlobalAllowed(t *testing.T) {
	g := lineTopo(2, 500)
	hits := 0
	s := sim.NewSetup()
	s.Global(100, func(ctx *sim.Ctx) {
		hits++
		if hits < 3 {
			ctx.ScheduleGlobal(ctx.Now()+100, func(c *sim.Ctx) {
				hits++
				c.Stop()
			})
		}
	})
	m := &sim.Model{Nodes: 2, Links: g.LinkInfos, Init: s.Events()}
	if _, err := core.New(core.Config{Threads: 2}).Run(m); err != nil {
		t.Fatal(err)
	}
	if hits != 2 {
		t.Fatalf("hits=%d", hits)
	}
}

func TestKernelManualLP(t *testing.T) {
	g := lineTopo(6, 500)
	m, _ := relayModel(g, 500, 50)
	lpOf := []int32{0, 0, 0, 1, 1, 1}
	st, err := core.New(core.Config{Threads: 2, ManualLP: lpOf}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.LPs != 2 {
		t.Fatalf("LPs=%d", st.LPs)
	}
}

func TestKernelRecordRounds(t *testing.T) {
	g := lineTopo(4, 500)
	m, _ := relayModel(g, 500, 200)
	st, err := core.New(core.Config{Threads: 2, RecordRounds: true}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.RoundTrace) == 0 {
		t.Fatal("no round trace")
	}
	for _, r := range st.RoundTrace {
		if len(r.PerWorker) != 2 {
			t.Fatal("trace worker arity wrong")
		}
	}
}

func TestKernelCacheCounters(t *testing.T) {
	g := lineTopo(4, 500)
	m, _ := relayModel(g, 500, 200)
	st, err := core.New(core.Config{Threads: 1, CacheWays: 2}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheRefs == 0 {
		t.Fatal("cache model recorded nothing")
	}
}

func TestKernelSchedulingMetricsAllTerminate(t *testing.T) {
	for _, metric := range []core.Metric{core.MetricPrevTime, core.MetricPendingEvents, core.MetricNone} {
		g := lineTopo(8, 500)
		m, count := relayModel(g, 500, 300)
		if _, err := core.New(core.Config{Threads: 3, Metric: metric, Period: 2}).Run(m); err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		if *count != 300 {
			t.Fatalf("%v: count=%d", metric, *count)
		}
	}
}

func TestMetricString(t *testing.T) {
	if core.MetricPrevTime.String() != "prev-time" ||
		core.MetricPendingEvents.String() != "pending-events" ||
		core.MetricNone.String() != "none" {
		t.Fatal("Metric strings wrong")
	}
}
