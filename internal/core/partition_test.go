package core

import (
	"testing"
	"testing/quick"

	"unison/internal/sim"
	"unison/internal/topology"
)

func TestFineGrainedUniformDelaysCutEverything(t *testing.T) {
	// All link delays equal: the median bound equals every delay, so every
	// stateless link is cut and each node becomes its own LP.
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 3*sim.Microsecond))
	p := FineGrained(ft.N(), ft.LinkInfos())
	if p.Count != ft.N() {
		t.Fatalf("LPs=%d, want one per node (%d)", p.Count, ft.N())
	}
	if p.Lookahead != 3*sim.Microsecond {
		t.Fatalf("lookahead=%v, want 3µs", p.Lookahead)
	}
}

func TestFineGrainedGroupsLowDelayLinks(t *testing.T) {
	// Torus host links have delay/100: hosts group with their switch.
	tr := topology.BuildTorus2D(4, 4, 1e9, 30*sim.Microsecond)
	p := FineGrained(tr.N(), tr.LinkInfos())
	if p.Count != 16 {
		t.Fatalf("LPs=%d, want 16 (one per grid point)", p.Count)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.LPOf[tr.SwitchAt[i][j]] != p.LPOf[tr.HostAt[i][j]] {
				t.Fatalf("host (%d,%d) not grouped with its switch", i, j)
			}
		}
	}
	sizes := p.Sizes()
	for lp, s := range sizes {
		if s != 2 {
			t.Fatalf("LP %d has %d nodes, want 2", lp, s)
		}
	}
}

func TestFineGrainedPaperExample(t *testing.T) {
	// §4.2's illustration: a 2-cluster topology whose host links have
	// (near-)zero delay produces one LP per {switch} plus one per
	// {host+edge} group. We model it: 2 core, 2 agg per cluster, hosts
	// with 1ns links, fabric links 1000ns. Median is 1000ns (fabric links
	// are the majority), so fabric is cut, host links are not.
	g := topology.New()
	core1 := g.AddNode(topology.Switch, "c1")
	core2 := g.AddNode(topology.Switch, "c2")
	var aggs []sim.NodeID
	for i := 0; i < 4; i++ {
		agg := g.AddNode(topology.Switch, "agg")
		aggs = append(aggs, agg)
		g.AddLink(agg, core1, 1e9, 1000)
		g.AddLink(agg, core2, 1e9, 1000)
		for h := 0; h < 2; h++ {
			host := g.AddNode(topology.Host, "h")
			g.AddLink(host, agg, 1e9, 1)
		}
	}
	p := FineGrained(g.N(), g.LinkInfos())
	// 2 cores + 4 agg-groups = 6 LPs.
	if p.Count != 6 {
		t.Fatalf("LPs=%d, want 6", p.Count)
	}
	// Each agg is grouped with its two hosts.
	for _, agg := range aggs {
		n := 0
		for node := range p.LPOf {
			if p.LPOf[node] == p.LPOf[agg] {
				n++
			}
		}
		if n != 3 {
			t.Fatalf("agg group size %d, want 3", n)
		}
	}
	if p.Lookahead != 1000 {
		t.Fatalf("lookahead=%v, want 1000ns", p.Lookahead)
	}
}

func TestFineGrainedIgnoresDownLinks(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Switch, "a")
	b := g.AddNode(topology.Switch, "b")
	h1 := g.AddNode(topology.Host, "h1")
	h2 := g.AddNode(topology.Host, "h2")
	g.AddLink(h1, a, 1e9, 1)
	g.AddLink(h2, b, 1e9, 1)
	l := g.AddLink(a, b, 1e9, 1)
	g.SetLinkUp(l, false)
	p := FineGrained(g.N(), g.LinkInfos())
	// With the a-b link down it is excluded from the median and from the
	// component search: a and b must not end up in one LP through it.
	if p.LPOf[a] == p.LPOf[b] {
		t.Fatal("down link merged two components")
	}
	// The two host links (delay 1 = median bound) are cut, so they define
	// the lookahead; the down link contributes nothing.
	if p.Lookahead != 1 {
		t.Fatalf("lookahead=%v, want 1ns from the up host links", p.Lookahead)
	}
}

func TestManualPartition(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 3*sim.Microsecond))
	lpOf := make([]int32, ft.N())
	for i := range lpOf {
		lpOf[i] = int32(i % 4)
	}
	p := Manual(lpOf, ft.LinkInfos())
	if p.Count != 4 {
		t.Fatalf("Count=%d", p.Count)
	}
	if p.Lookahead != 3*sim.Microsecond {
		t.Fatalf("lookahead=%v", p.Lookahead)
	}
}

func TestManualUnassignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unassigned node did not panic")
		}
	}()
	Manual([]int32{0, -1}, nil)
}

func TestSingleLP(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 3*sim.Microsecond))
	p := SingleLP(ft.N(), ft.LinkInfos())
	if p.Count != 1 || p.Lookahead != sim.MaxTime {
		t.Fatalf("Count=%d lookahead=%v", p.Count, p.Lookahead)
	}
}

func TestCutLookaheadTracksTopologyChange(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Switch, "a")
	b := g.AddNode(topology.Switch, "b")
	l1 := g.AddLink(a, b, 1e9, 100)
	l2 := g.AddLink(a, b, 1e9, 200)
	lpOf := []int32{0, 1}
	if la := CutLookahead(lpOf, g.LinkInfos()); la != 100 {
		t.Fatalf("lookahead=%v, want 100", la)
	}
	g.SetLinkUp(l1, false)
	if la := CutLookahead(lpOf, g.LinkInfos()); la != 200 {
		t.Fatalf("after down: lookahead=%v, want 200", la)
	}
	g.SetLinkUp(l1, true)
	g.SetLinkDelay(l2, 50)
	if la := CutLookahead(lpOf, g.LinkInfos()); la != 50 {
		t.Fatalf("after delay change: lookahead=%v, want 50", la)
	}
}

// TestPartitionInvariantsQuick checks Algorithm 1's invariants on random
// topologies: every node assigned, LP ids dense, every cut link's delay
// at least the bound, every kept link intra-LP.
func TestPartitionInvariantsQuick(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint8) bool {
		n := int(nRaw%20) + 2
		extra := int(extraRaw % 30)
		g := topology.New()
		for i := 0; i < n; i++ {
			g.AddNode(topology.Switch, "s")
		}
		// Ring + random chords, random delays.
		s := seed
		next := func(mod int64) int64 {
			s = s*6364136223846793005 + 1442695040888963407
			v := int64(s>>33) % mod
			if v < 0 {
				v += mod
			}
			return v
		}
		for i := 0; i < n; i++ {
			g.AddLink(sim.NodeID(i), sim.NodeID((i+1)%n), 1e9, sim.Time(next(1000)+1))
		}
		for e := 0; e < extra; e++ {
			a, b := sim.NodeID(next(int64(n))), sim.NodeID(next(int64(n)))
			if a == b {
				continue
			}
			g.AddLink(a, b, 1e9, sim.Time(next(1000)+1))
		}
		p := FineGrained(g.N(), g.LinkInfos())
		if p.Count < 1 || p.Count > g.N() {
			return false
		}
		seen := make([]bool, p.Count)
		for _, lp := range p.LPOf {
			if lp < 0 || int(lp) >= p.Count {
				return false
			}
			seen[lp] = true
		}
		for _, ok := range seen {
			if !ok {
				return false // LP ids not dense
			}
		}
		for _, l := range g.LinkInfos() {
			cross := p.LPOf[l.A] != p.LPOf[l.B]
			if cross && l.Delay < p.Bound {
				return false // cut a link below the bound
			}
		}
		// Lookahead is the min over cut links.
		if p.Count > 1 {
			min := sim.MaxTime
			for _, l := range g.LinkInfos() {
				if p.LPOf[l.A] != p.LPOf[l.B] && l.Delay < min {
					min = l.Delay
				}
			}
			if p.Lookahead != min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEq2(t *testing.T) {
	cases := []struct{ allMin, pub, la, want sim.Time }{
		{100, sim.MaxTime, 10, 110},
		{100, 105, 10, 105},
		{100, 120, 10, 110},
		{sim.MaxTime, 50, 10, 50},
		{sim.MaxTime, sim.MaxTime, 10, sim.MaxTime},
		{100, sim.MaxTime, sim.MaxTime, sim.MaxTime},
		{sim.MaxTime - 1, sim.MaxTime, 100, sim.MaxTime}, // overflow saturates
	}
	for i, c := range cases {
		if got := Eq2(c.allMin, c.pub, c.la); got != c.want {
			t.Errorf("case %d: Eq2=%v want %v", i, got, c.want)
		}
	}
}

func TestHybridPartitionNeverSpansHosts(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, 3*sim.Microsecond))
	hostOf := make([]int32, ft.N())
	for i := range hostOf {
		hostOf[i] = int32(i % 3)
	}
	lpOf, hostOfLP, la, err := HybridPartition(ft.N(), hostOf, ft.LinkInfos())
	if err != nil {
		t.Fatal(err)
	}
	for node, lp := range lpOf {
		if hostOfLP[lp] != hostOf[node] {
			t.Fatalf("node %d on host %d but its LP %d belongs to host %d",
				node, hostOf[node], lp, hostOfLP[lp])
		}
	}
	if la != 3*sim.Microsecond {
		t.Fatalf("lookahead=%v", la)
	}
}

func TestHybridPartitionOneHostIsFineGrained(t *testing.T) {
	tr := topology.BuildTorus2D(4, 4, 1e9, 30*sim.Microsecond)
	fg := FineGrained(tr.N(), tr.LinkInfos())
	lpOf, hostOfLP, la, err := HybridPartition(tr.N(), make([]int32, tr.N()), tr.LinkInfos())
	if err != nil {
		t.Fatal(err)
	}
	if len(hostOfLP) != fg.Count || la != fg.Lookahead {
		t.Fatalf("LPs=%d lookahead=%v, FineGrained has %d and %v", len(hostOfLP), la, fg.Count, fg.Lookahead)
	}
	for v := range lpOf {
		if lpOf[v] != fg.LPOf[v] {
			t.Fatalf("node %d: LP %d, FineGrained says %d", v, lpOf[v], fg.LPOf[v])
		}
	}
}

func TestHybridPartitionGroupsWithinHosts(t *testing.T) {
	// Torus host links (delay/100) group host+switch — but only when both
	// land on the same simulation host.
	tr := topology.BuildTorus2D(4, 4, 1e9, 30*sim.Microsecond)
	hostOf := make([]int32, tr.N())
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			h := int32(0)
			if i >= 2 {
				h = 1
			}
			hostOf[tr.SwitchAt[i][j]] = h
			hostOf[tr.HostAt[i][j]] = h
		}
	}
	lpOf, hostOfLP, _, err := HybridPartition(tr.N(), hostOf, tr.LinkInfos())
	if err != nil {
		t.Fatal(err)
	}
	if len(hostOfLP) != 16 {
		t.Fatalf("LPs=%d, want 16", len(hostOfLP))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if lpOf[tr.SwitchAt[i][j]] != lpOf[tr.HostAt[i][j]] {
				t.Fatalf("grid point (%d,%d) split across LPs", i, j)
			}
		}
	}
}

func TestHybridPartitionBadHostMap(t *testing.T) {
	if _, _, _, err := HybridPartition(4, []int32{0, 1}, nil); err == nil {
		t.Fatal("short HostOf accepted")
	}
}
