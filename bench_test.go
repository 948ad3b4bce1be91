// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment; see DESIGN.md §4 for the mapping), plus micro-benchmarks
// of the kernels themselves.
//
// The experiment benches run the Quick-mode configuration once per
// iteration and report events/sec alongside the standard metrics; run
// them with a bounded iteration count, e.g.:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// The full-scale experiment outputs live in EXPERIMENTS.md and can be
// regenerated with `go run ./cmd/uniexp -run all`.
package unison_test

import (
	"reflect"
	"runtime/debug"
	"testing"

	"unison"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/experiments"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/vtime"
)

// benchExperiment runs a registered experiment once per b.N iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(name, experiments.Config{Quick: true, Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", name)
		}
	}
}

func BenchmarkFig01FatTreeScaling(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkTab01AdaptationLOC(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig05aSyncVsIncast(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig05bSyncPerRound(b *testing.B)     { benchExperiment(b, "fig5b") }
func BenchmarkFig05cSyncVsDelay(b *testing.B)      { benchExperiment(b, "fig5c") }
func BenchmarkFig05dSyncVsBandwidth(b *testing.B)  { benchExperiment(b, "fig5d") }
func BenchmarkFig08aVsDataDriven(b *testing.B)     { benchExperiment(b, "fig8a") }
func BenchmarkFig08bCoreScaling(b *testing.B)      { benchExperiment(b, "fig8b") }
func BenchmarkFig09aUnisonSync(b *testing.B)       { benchExperiment(b, "fig9a") }
func BenchmarkFig09bUnisonPerRound(b *testing.B)   { benchExperiment(b, "fig9b") }
func BenchmarkFig10aTorus(b *testing.B)            { benchExperiment(b, "fig10a") }
func BenchmarkFig10bBCube(b *testing.B)            { benchExperiment(b, "fig10b") }
func BenchmarkFig10cWAN(b *testing.B)              { benchExperiment(b, "fig10c") }
func BenchmarkFig10dReconfig(b *testing.B)         { benchExperiment(b, "fig10d") }
func BenchmarkFig11Determinism(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkTab02Accuracy(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkDCTCPRepro(b *testing.B)             { benchExperiment(b, "dctcp") }
func BenchmarkFig12aCacheGranularity(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12bPartitionScheme(b *testing.B)  { benchExperiment(b, "fig12b") }
func BenchmarkFig12cSchedulingMetrics(b *testing.B) {
	benchExperiment(b, "fig12c")
}
func BenchmarkFig12dSchedulingPeriod(b *testing.B) { benchExperiment(b, "fig12d") }
func BenchmarkFig13LoadHeatmap(b *testing.B)       { benchExperiment(b, "fig13") }

// --- Kernel micro-benchmarks: events/sec on a fixed fat-tree workload ---

func benchScenario(seed uint64) *unison.Sim {
	ft := unison.BuildFatTree(unison.FatTreeK(4, 10*unison.Gbps, 3*unison.Microsecond))
	stop := sim.Time(2 * unison.Millisecond)
	flows := unison.GenerateTraffic(unison.TrafficConfig{
		Seed:         seed,
		Hosts:        ft.Hosts(),
		Sizes:        unison.GRPCCDF(),
		Load:         0.3,
		BisectionBps: ft.BisectionBandwidth(),
		Start:        0,
		End:          stop / 2,
	})
	return unison.NewSim(ft.Graph, unison.NewECMP(ft.Graph, unison.Hops, seed), unison.SimConfig{
		Seed:   seed,
		NetCfg: unison.DefaultNetConfig(seed),
		TCPCfg: unison.DefaultTCP(),
		StopAt: stop,
		Flows:  flows,
	})
}

func benchKernel(b *testing.B, mk func() sim.Kernel) {
	b.Helper()
	var events uint64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(42)
		st, err := mk().Run(sc.Model())
		if err != nil {
			b.Fatal(err)
		}
		// Accumulate: multiplying the last iteration's count by b.N would
		// misreport if any iteration ever diverged.
		events += st.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// TestKernelAllocBudget holds one Unison(4) run of the benchmark workload,
// set-up included (what BenchmarkKernelUnison4 reports as allocs/op), to an
// allocation budget: ≈ 1 960 today, nearly all of it set-up, for ≈ 43 000
// events (≈ 3 730 while FELs grew to hold every timer and txDone event). A count is not perturbed by the scheduler the way a timing is, so
// it is asserted here and not compared between runs; one allocation per
// event or per hop overshoots it several times over.
func TestKernelAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's own allocations are counted")
			}
		}
	}
	const budget = 2200 // today's count + 12 %
	got := testing.AllocsPerRun(3, func() {
		if _, err := core.New(core.Config{Threads: 4}).Run(benchScenario(42).Model()); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Unison(4) run of the benchmark workload: %.0f allocations, budget %d", got, budget)
	}
}

// felDepth is a probe that keeps the deepest FEL a sequential run reports.
type felDepth struct{ peak uint64 }

func (*felDepth) BeginRun(obs.RunMeta)         {}
func (*felDepth) EndRun(*sim.RunStats)         {}
func (p *felDepth) OnRound(r *obs.RoundRecord) { p.peak = max(p.peak, r.FELDepth) }

// TestEventBudget holds the sequential run of the benchmark workload to what
// it costs in events: an event is scheduled only if it will do something, so
// nearly every one executed moves a packet or fires a timer. The counts are
// exact — nothing here is timed — so each bound is today's count plus a few
// percent. Today: 42 662 events for 30 276 packets transmitted (1.409 each),
// FEL at most 611 deep, 113 timer events for 5 204 arms (0.022). The parent
// of PR 20, where every segment sent and every new ACK pushed a
// retransmission timer event and every frame a txDone: 65 160 events (2.152
// each), FEL 5 006 deep, 4 251 timer events (0.817), every one popping
// stale, and 18 360 of 30 276 txDones finding an empty queue.
func TestEventBudget(t *testing.T) {
	sc := benchScenario(42)
	depth := &felDepth{}
	st, err := (&des.Kernel{Observe: depth, ProgressEvery: 1}).Run(sc.Model())
	if err != nil {
		t.Fatal(err)
	}
	var tx uint64
	sc.Net.Devices(func(d *netdev.Device) { tx += d.TxPackets })
	var arms, events, superseded, earlier uint64
	hosts := reflect.ValueOf(sc.Stack).Elem().FieldByName("hosts") // the tallies have no exported face
	for i := 0; i < hosts.Len(); i++ {
		n := hosts.Index(i).FieldByName("timers")
		arms += n.FieldByName("arms").Uint()
		events += n.FieldByName("events").Uint()
		superseded += n.FieldByName("superseded").Uint()
		earlier += n.FieldByName("earlier").Uint()
	}
	t.Logf("%d events, %d packets transmitted, peak FEL depth %d; timers: %d arms, %d events, %d superseded, %d deadlines moved earlier",
		st.Events, tx, depth.peak, arms, events, superseded, earlier)
	if per := float64(st.Events) / float64(tx); per > 1.45 {
		t.Errorf("%.3f events executed per transmitted packet, budget 1.45", per)
	}
	if depth.peak > 640 {
		t.Errorf("peak FEL depth %d, budget 640", depth.peak)
	}
	// A timer event pops superseded only because an arm moved the deadline
	// ahead of it and put a second one: no other path may strand an event.
	if superseded > earlier {
		t.Errorf("%d timer events popped superseded, but only %d arms moved a deadline earlier", superseded, earlier)
	}
	if share := float64(events) / float64(arms); share > 0.024 {
		t.Errorf("%d timer events executed for %d arms (%.3f), budget 0.024", events, arms, share)
	}
}

func BenchmarkKernelSequential(b *testing.B) {
	benchKernel(b, func() sim.Kernel { return des.New() })
}

func BenchmarkKernelUnison1(b *testing.B) {
	benchKernel(b, func() sim.Kernel { return core.New(core.Config{Threads: 1}) })
}

func BenchmarkKernelUnison4(b *testing.B) {
	benchKernel(b, func() sim.Kernel { return core.New(core.Config{Threads: 4}) })
}

func BenchmarkKernelBarrier(b *testing.B) {
	ft := unison.BuildFatTree(unison.FatTreeK(4, 10*unison.Gbps, 3*unison.Microsecond))
	manual := pdes.FatTreeManual(ft, 4)
	benchKernel(b, func() sim.Kernel { return &pdes.BarrierKernel{LPOf: manual} })
}

func BenchmarkKernelNullMessage(b *testing.B) {
	ft := unison.BuildFatTree(unison.FatTreeK(4, 10*unison.Gbps, 3*unison.Microsecond))
	manual := pdes.FatTreeManual(ft, 4)
	benchKernel(b, func() sim.Kernel { return &pdes.NullMessageKernel{LPOf: manual} })
}

func BenchmarkKernelHybrid(b *testing.B) {
	ft := unison.BuildFatTree(unison.FatTreeK(4, 10*unison.Gbps, 3*unison.Microsecond))
	manual := pdes.FatTreeManual(ft, 2)
	benchKernel(b, func() sim.Kernel {
		return core.NewHybrid(core.HybridConfig{HostOf: manual, ThreadsPerHost: 2})
	})
}

func BenchmarkVirtualUnison8(b *testing.B) {
	benchKernel(b, func() sim.Kernel {
		return vtimeBenchKernel{vtime.Config{Algo: vtime.Unison, Cores: 8}}
	})
}

type vtimeBenchKernel struct{ cfg vtime.Config }

func (v vtimeBenchKernel) Name() string { return v.cfg.Algo.String() }
func (v vtimeBenchKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return vtime.Run(m, v.cfg)
}

// --- Extension experiments (§7 discussion claims) ---

func BenchmarkExtMemoryOverhead(b *testing.B) { benchExperiment(b, "memory") }
func BenchmarkExtHybridScaling(b *testing.B)  { benchExperiment(b, "hybrid") }
func BenchmarkExtHeterogeneous(b *testing.B)  { benchExperiment(b, "hetero") }

// BenchmarkFlowMonSharedVsOwned compares the paper's shared-map flow
// monitor (lock per update, §5.1) with this repository's single-owner
// monitor (no synchronization at all).
func BenchmarkFlowMonSharedVsOwned(b *testing.B) {
	b.Run("owned", func(b *testing.B) {
		m := flowmon.NewMonitor(1024)
		for i := 0; i < b.N; i++ {
			id := packet.FlowID(i % 1024)
			rec := m.Sender(id)
			rec.RTT.Add(float64(i))
			m.Recv(id).BytesRcvd += 1448
		}
	})
	b.Run("shared", func(b *testing.B) {
		m := flowmon.NewSharedMonitor()
		for id := packet.FlowID(0); id < 1024; id++ {
			m.RecordStart(id, 0, 0, 1, 0)
		}
		for i := 0; i < b.N; i++ {
			id := packet.FlowID(i % 1024)
			m.RecordRTT(id, sim.Time(i))
			m.RecordBytes(id, sim.Time(i), 1448)
		}
	})
}

func BenchmarkExtTCPOptions(b *testing.B) { benchExperiment(b, "tcpopts") }
func BenchmarkExtScaleSweep(b *testing.B) { benchExperiment(b, "scale") }
