package vtime

import (
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// scenario builds a deterministic fat-tree TCP model for the virtual
// kernels.
func scenario(seed uint64, incast float64) (*sim.Model, *flowmon.Monitor, []int32) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 10_000_000_000, 3*sim.Microsecond))
	stop := sim.Time(sim.Millisecond)
	flows := traffic.Generate(traffic.Config{
		Seed: seed, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: stop / 2,
		IncastRatio: incast,
	})
	mon := flowmon.NewMonitor(len(flows))
	net := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, seed), netdev.DefaultConfig(seed))
	stack := tcp.NewStack(net, tcp.DefaultConfig(), mon)
	s := sim.NewSetup()
	stack.Attach(s, flows)
	s.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	lpOf := make([]int32, ft.N())
	for i := range lpOf {
		lpOf[i] = int32(i % 4)
	}
	return &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}, mon, lpOf
}

func TestVirtualKernelsMatchLiveResults(t *testing.T) {
	mRef, monRef, _ := scenario(3, 0.3)
	if _, err := des.New().Run(mRef); err != nil {
		t.Fatal(err)
	}
	want := monRef.Fingerprint()
	cases := []Config{
		{Algo: Sequential},
		{Algo: Barrier},
		{Algo: NullMessage},
		{Algo: Unison, Cores: 4},
		{Algo: Unison, Cores: 16, Metric: core.MetricPendingEvents},
	}
	for _, cfg := range cases {
		m, mon, lpOf := scenario(3, 0.3)
		if cfg.Algo == Barrier || cfg.Algo == NullMessage {
			cfg.LPOf = lpOf
		}
		if _, err := Run(m, cfg); err != nil {
			t.Fatalf("%v: %v", cfg.Algo, err)
		}
		if mon.Fingerprint() != want {
			t.Errorf("%v: diverged from sequential DES", cfg.Algo)
		}
	}
}

func TestAccountingIdentity(t *testing.T) {
	// Per worker, P+S+M must sum to the run's virtual time for the
	// round-based kernels.
	m, _, lpOf := scenario(4, 0)
	st, err := Run(m, Config{Algo: Barrier, LPOf: lpOf})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range st.Workers {
		if got := w.P + w.S + w.M; got != st.VirtualT {
			t.Errorf("worker %d: P+S+M=%d != VirtualT=%d", i, got, st.VirtualT)
		}
	}
	m2, _, _ := scenario(4, 0)
	st2, err := Run(m2, Config{Algo: Unison, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range st2.Workers {
		if got := w.P + w.S + w.M; got != st2.VirtualT {
			t.Errorf("unison worker %d: P+S+M=%d != VirtualT=%d", i, got, st2.VirtualT)
		}
	}
}

func TestMoreCoresNeverSlower(t *testing.T) {
	var prev int64
	for i, cores := range []int{1, 4, 16} {
		m, _, _ := scenario(5, 0)
		st, err := Run(m, Config{Algo: Unison, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.VirtualT > prev*11/10 {
			t.Errorf("cores=%d virtual time %d much worse than %d", cores, st.VirtualT, prev)
		}
		prev = st.VirtualT
	}
}

func TestUnisonBeatsBarrierUnderIncast(t *testing.T) {
	mB, _, lpOf := scenario(6, 1.0)
	bar, err := Run(mB, Config{Algo: Barrier, LPOf: lpOf})
	if err != nil {
		t.Fatal(err)
	}
	mU, _, _ := scenario(6, 1.0)
	uni, err := Run(mU, Config{Algo: Unison, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	if uni.VirtualT >= bar.VirtualT {
		t.Errorf("unison %d not faster than barrier %d under incast", uni.VirtualT, bar.VirtualT)
	}
	if Speedup(bar, uni) <= 1 {
		t.Error("Speedup helper inconsistent")
	}
}

func TestDeterministicVirtualTimes(t *testing.T) {
	run := func() int64 {
		m, _, _ := scenario(7, 0.5)
		st, err := Run(m, Config{Algo: Unison, Cores: 8})
		if err != nil {
			t.Fatal(err)
		}
		return st.VirtualT
	}
	if run() != run() {
		t.Fatal("virtual times differ across identical runs")
	}
}

func TestConfigValidation(t *testing.T) {
	m, _, _ := scenario(9, 0)
	if _, err := Run(m, Config{Algo: Barrier}); err == nil {
		t.Error("barrier without partition accepted")
	}
	m2, _, _ := scenario(9, 0)
	if _, err := Run(m2, Config{Algo: Unison}); err == nil {
		t.Error("unison without cores accepted")
	}
	m3, _, lpOf := scenario(9, 0)
	m3.StopAt = 0
	if _, err := Run(m3, Config{Algo: NullMessage, LPOf: lpOf}); err == nil {
		t.Error("null message without StopAt accepted")
	}
}

func TestCostModelDefaults(t *testing.T) {
	var c CostModel
	c.fillDefaults()
	d := DefaultCostModel()
	if c != d {
		t.Fatalf("zero-value defaults %+v != %+v", c, d)
	}
	// Negative MissNS disables the cache term.
	c = CostModel{MissNS: -1}
	c.fillDefaults()
	if c.MissNS != 0 {
		t.Fatal("negative MissNS not treated as disable")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	m, _, _ := scenario(10, 0)
	if _, err := Run(m, Config{Algo: Unison, Cores: 4, MaxRounds: 3}); err == nil {
		t.Fatal("MaxRounds did not trip")
	}
}
