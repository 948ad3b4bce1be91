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
	"runtime/debug"
	"testing"

	"unison"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/experiments"
	"unison/internal/flowmon"
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
// allocation budget: ≈ 3 730 today, nearly all of it set-up, for ≈ 65 000
// events. A count is not perturbed by the scheduler the way a timing is, so
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
	const budget = 4100 // today's count + 10 %
	got := testing.AllocsPerRun(3, func() {
		if _, err := core.New(core.Config{Threads: 4}).Run(benchScenario(42).Model()); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Unison(4) run of the benchmark workload: %.0f allocations, budget %d", got, budget)
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
