package pdes

import (
	"testing"

	"unison/internal/des"
	"unison/internal/netdev"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"

	"unison/internal/flowmon"
)

// pingModel builds a two-rank model: node 0 and node 1 joined by a link
// of the given delay, exchanging count ping-pong events over the link.
func pingModel(delay sim.Time, count int) (*sim.Model, *int) {
	hits := new(int)
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	b := g.AddNode(topology.Host, "b")
	g.AddLink(a, b, 1e9, delay)
	s := sim.NewSetup()
	var ping func(ctx *sim.Ctx)
	remaining := count
	ping = func(ctx *sim.Ctx) {
		*hits++
		remaining--
		if remaining > 0 {
			peer := a
			if ctx.Node() == a {
				peer = b
			}
			ctx.Schedule(delay, peer, ping)
		}
	}
	s.At(0, a, ping)
	s.Global(sim.Time(count+2)*delay, func(ctx *sim.Ctx) { ctx.Stop() })
	return &sim.Model{
		Nodes:  2,
		Links:  g.LinkInfos,
		Init:   s.Events(),
		StopAt: sim.Time(count+2) * delay,
	}, hits
}

func TestNullMessagePingPong(t *testing.T) {
	m, hits := pingModel(100, 50)
	st, err := (&NullMessageKernel{LPOf: []int32{0, 1}}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if *hits != 50 {
		t.Fatalf("hits=%d", *hits)
	}
	// Null messages must have flowed ("Rounds" reports them).
	if st.Rounds == 0 {
		t.Fatal("no null messages recorded")
	}
}

func TestNullMessageRequiresStopAt(t *testing.T) {
	m, _ := pingModel(100, 10)
	m.StopAt = 0
	if _, err := (&NullMessageKernel{LPOf: []int32{0, 1}}).Run(m); err == nil {
		t.Fatal("missing StopAt accepted")
	}
}

func TestNullMessageRejectsForeignGlobals(t *testing.T) {
	m, _ := pingModel(100, 10)
	s := sim.NewSetup()
	s.Global(37, func(*sim.Ctx) {})
	extra := s.Events()
	for i := range extra {
		extra[i].Seq = uint64(len(m.Init) + i)
	}
	m.Init = append(m.Init, extra...)
	if _, err := (&NullMessageKernel{LPOf: []int32{0, 1}}).Run(m); err == nil {
		t.Fatal("non-stop global event accepted")
	}
}

func TestBarrierRequiresFullPartition(t *testing.T) {
	m, _ := pingModel(100, 10)
	if _, err := (&BarrierKernel{LPOf: []int32{0}}).Run(m); err == nil {
		t.Fatal("short partition accepted")
	}
	if _, err := (&NullMessageKernel{LPOf: []int32{0}}).Run(m); err == nil {
		t.Fatal("short partition accepted by null message")
	}
}

// tcpScenario builds a realistic TCP workload over a fat-tree for the
// kernel equivalence checks.
func tcpScenario(ranks int) (*sim.Model, *flowmon.Monitor, []int32) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 3*sim.Microsecond))
	stop := sim.Time(2 * sim.Millisecond)
	flows := traffic.Generate(traffic.Config{
		Seed: 5, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: stop / 2,
	})
	mon := flowmon.NewMonitor(len(flows))
	net := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, 5), netdev.DefaultConfig(5))
	stack := tcp.NewStack(net, tcp.DefaultConfig(), mon)
	s := sim.NewSetup()
	stack.Attach(s, flows)
	s.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}
	return m, mon, FatTreeManual(ft, ranks)
}

func TestBarrierMatchesSequentialOnTCP(t *testing.T) {
	mSeq, monSeq, _ := tcpScenario(4)
	if _, err := des.New().Run(mSeq); err != nil {
		t.Fatal(err)
	}
	mBar, monBar, lpOf := tcpScenario(4)
	if _, err := (&BarrierKernel{LPOf: lpOf}).Run(mBar); err != nil {
		t.Fatal(err)
	}
	if monSeq.Fingerprint() != monBar.Fingerprint() {
		t.Fatal("barrier kernel diverged from sequential DES")
	}
}

func TestNullMessageMatchesSequentialOnTCP(t *testing.T) {
	mSeq, monSeq, _ := tcpScenario(2)
	if _, err := des.New().Run(mSeq); err != nil {
		t.Fatal(err)
	}
	mNM, monNM, lpOf := tcpScenario(2)
	if _, err := (&NullMessageKernel{LPOf: lpOf}).Run(mNM); err != nil {
		t.Fatal(err)
	}
	if monSeq.Fingerprint() != monNM.Fingerprint() {
		t.Fatal("null message kernel diverged from sequential DES")
	}
}

func TestManualPartitionsCoverEveryNode(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(8, 1e9, 1000))
	for _, ranks := range []int{2, 4, 8} {
		lpOf := FatTreeManual(ft, ranks)
		checkCover(t, lpOf, ranks)
	}
	b := topology.BuildBCube(4, 1, 1e9, 1000)
	checkCover(t, BCubeManual(b, 4), 4)
	tr := topology.BuildTorus2D(6, 6, 1e9, 1000)
	checkCover(t, TorusManual(tr, 4), 4)
	sl := topology.BuildSpineLeaf(2, 4, 2, 1e9, 1000)
	checkCover(t, SpineLeafManual(sl, 4), 4)
	d := topology.BuildDumbbell(3, 1e9, 1e9, 1000, 1000)
	checkCover(t, DumbbellManual(d), 2)
}

func checkCover(t *testing.T, lpOf []int32, ranks int) {
	t.Helper()
	seen := make([]bool, ranks)
	for n, lp := range lpOf {
		if lp < 0 || int(lp) >= ranks {
			t.Fatalf("node %d assigned to rank %d of %d", n, lp, ranks)
		}
		seen[lp] = true
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d has no nodes", r)
		}
	}
}

func TestFatTreeManualRejectsUnevenRanks(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 1000))
	defer func() {
		if recover() == nil {
			t.Fatal("3 ranks over 4 clusters did not panic")
		}
	}()
	FatTreeManual(ft, 3)
}

func TestPartitionSourceLines(t *testing.T) {
	for _, fn := range []string{"FatTreeRecipe", "BCubeRecipe", "TorusRecipe", "SpineLeafRecipe", "DumbbellManual"} {
		if loc := PartitionSourceLines(fn); loc < 5 {
			t.Errorf("%s: implausible LOC %d", fn, loc)
		}
	}
	if PartitionSourceLines("NoSuchRecipe") != 0 {
		t.Error("unknown recipe has nonzero LOC")
	}
}

func TestNullMessageDisconnectedRanks(t *testing.T) {
	// Two isolated node pairs: the ranks share no channel, so each must
	// terminate on its own at StopAt without deadlocking.
	g := topology.New()
	a1 := g.AddNode(topology.Host, "a1")
	a2 := g.AddNode(topology.Host, "a2")
	b1 := g.AddNode(topology.Host, "b1")
	b2 := g.AddNode(topology.Host, "b2")
	g.AddLink(a1, a2, 1e9, 100)
	g.AddLink(b1, b2, 1e9, 100)
	// One counter per component: disconnected ranks run truly concurrently,
	// so model state must respect the single-owner rule.
	hitsA, hitsB := 0, 0
	s := sim.NewSetup()
	s.At(0, a1, func(ctx *sim.Ctx) { hitsA++ })
	s.At(50, b1, func(ctx *sim.Ctx) { hitsB++ })
	m := &sim.Model{Nodes: 4, Links: g.LinkInfos, Init: s.Events(), StopAt: 1000}
	st, err := (&NullMessageKernel{LPOf: []int32{0, 0, 1, 1}}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if hitsA != 1 || hitsB != 1 || st.Events != 2 {
		t.Fatalf("hitsA=%d hitsB=%d events=%d", hitsA, hitsB, st.Events)
	}
}
