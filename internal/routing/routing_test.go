package routing

import (
	"container/heap"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"unison/internal/packet"
	"unison/internal/rng"
	"unison/internal/sim"
	"unison/internal/topology"
)

func pkt(src, dst sim.NodeID, flow packet.FlowID) packet.Packet {
	return packet.Packet{Flow: flow, Src: src, Dst: dst}
}

// walk follows a router hop by hop from src to dst, returning the path
// length, or -1 if the packet is dropped or loops.
func walk(g *topology.Graph, r Router, src, dst sim.NodeID, flow packet.FlowID) int {
	p := pkt(src, dst, flow)
	cur := src
	for hops := 0; hops < packet.MaxHops; hops++ {
		if cur == dst {
			return hops
		}
		l, ok := r.NextLink(cur, &p)
		if !ok {
			return -1
		}
		cur = g.Peer(l, cur)
		p.Hops++
	}
	return -1
}

func TestECMPFatTreeAllPairs(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond))
	e := NewECMP(ft.Graph, Hops, 1)
	hosts := ft.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if h := walk(ft.Graph, e, a, b, 7); h < 0 {
				t.Fatalf("no route %d -> %d", a, b)
			}
		}
	}
}

func TestECMPShortestPathLength(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond))
	e := NewECMP(ft.Graph, Hops, 1)
	// Same-rack hosts: host->tor->host = 2 hops.
	a, b := ft.Clusters[0][0], ft.Clusters[0][1]
	if h := walk(ft.Graph, e, a, b, 1); h != 2 {
		t.Fatalf("same-rack path length %d, want 2", h)
	}
	// Cross-pod: host->tor->agg->core->agg->tor->host = 6 hops.
	c := ft.Clusters[1][0]
	if h := walk(ft.Graph, e, a, c, 1); h != 6 {
		t.Fatalf("cross-pod path length %d, want 6", h)
	}
}

func TestECMPFlowConsistency(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond))
	e := NewECMP(ft.Graph, Hops, 1)
	a, b := ft.Clusters[0][0], ft.Clusters[2][1]
	p := pkt(a, b, 9)
	l1, _ := e.NextLink(a, &p)
	for i := 0; i < 10; i++ {
		l2, _ := e.NextLink(a, &p)
		if l1 != l2 {
			t.Fatal("ECMP choice not stable for the same flow")
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond))
	e := NewECMP(ft.Graph, Hops, 1)
	// At a ToR, cross-pod flows should use both aggregation uplinks.
	tor := ft.ToRs[0][0]
	dst := ft.Clusters[1][0]
	used := map[topology.LinkID]bool{}
	for f := packet.FlowID(0); f < 64; f++ {
		p := pkt(ft.Clusters[0][0], dst, f)
		l, ok := e.NextLink(tor, &p)
		if !ok {
			t.Fatal("no route")
		}
		used[l] = true
	}
	if len(used) < 2 {
		t.Fatalf("ECMP used %d uplinks, want >= 2", len(used))
	}
}

func TestECMPRecomputeAfterLinkDown(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	s1 := g.AddNode(topology.Switch, "s1")
	s2 := g.AddNode(topology.Switch, "s2")
	b := g.AddNode(topology.Host, "b")
	g.AddLink(a, s1, 1e9, 10)
	l12 := g.AddLink(s1, s2, 1e9, 10)
	g.AddLink(s2, b, 1e9, 10)
	// Alternate longer path.
	s3 := g.AddNode(topology.Switch, "s3")
	g.AddLink(s1, s3, 1e9, 10)
	g.AddLink(s3, s2, 1e9, 10)

	e := NewECMP(g, Hops, 1)
	if h := walk(g, e, a, b, 1); h != 3 {
		t.Fatalf("path length %d, want 3", h)
	}
	g.SetLinkUp(l12, false)
	e.Recompute()
	if h := walk(g, e, a, b, 1); h != 4 {
		t.Fatalf("after failover path length %d, want 4", h)
	}
	// Down -> up -> down rebuilds in place and must land on the same table.
	first := tableOf(e)
	g.SetLinkUp(l12, true)
	e.Recompute()
	if h := walk(g, e, a, b, 1); h != 3 {
		t.Fatalf("after repair path length %d, want 3", h)
	}
	if reflect.DeepEqual(tableOf(e), first) {
		t.Fatal("repair left the table unchanged")
	}
	g.SetLinkUp(l12, false)
	e.Recompute()
	if !reflect.DeepEqual(tableOf(e), first) {
		t.Fatal("second failure did not return to the first failure's table")
	}
}

// tableOf copies the forwarding state Recompute rebuilds in place.
func tableOf(e *ECMP) [3]any {
	return [3]any{slices.Clone(e.dest), slices.Clone(e.table), slices.Clone(e.arena)}
}

func TestECMPRecomputeReusesStorage(t *testing.T) {
	ft := fatTree(8)
	e := NewECMP(ft.Graph, Hops, 1)
	uplink := ft.Nodes[ft.ToRs[0][0]].Links[0]
	up := true
	allocs := testing.AllocsPerRun(10, func() {
		up = !up
		ft.SetLinkUp(uplink, up)
		e.Recompute()
	})
	if allocs > 64 {
		t.Fatalf("k=8 Recompute made %.0f allocations, want <= 64", allocs)
	}
}

func TestECMPMemBytes(t *testing.T) {
	g8, g16 := fatTree(8).Graph, fatTree(16).Graph
	m8, m16 := NewECMP(g8, Hops, 1).MemBytes(), NewECMP(g16, Hops, 1).MemBytes()
	t.Logf("MemBytes: k=8 %d (%d/node), k=16 %d (%d/node)", m8, m8/g8.N(), m16, m16/g16.N())
	if unsafe.Sizeof(dest{}) != 12 {
		t.Fatalf("dest is %d bytes, MemBytes counts 12", unsafe.Sizeof(dest{}))
	}
	if m16 > 2<<20 {
		t.Fatalf("k=16 table is %d bytes, want <= 2 MiB", m16)
	}
	if m16/g16.N() > 4*(m8/g8.N()) {
		t.Fatalf("bytes per node grew from %d at k=8 to %d at k=16, want <= 4x", m8/g8.N(), m16/g16.N())
	}
}

func TestECMPNoRoute(t *testing.T) {
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	s := g.AddNode(topology.Switch, "s")
	b := g.AddNode(topology.Host, "b")
	g.AddLink(a, s, 1e9, 10)
	l := g.AddLink(s, b, 1e9, 10)
	e := NewECMP(g, Hops, 1)
	g.SetLinkUp(l, false)
	e.Recompute()
	p := pkt(a, b, 1)
	if _, ok := e.NextLink(a, &p); ok {
		t.Fatal("route returned over a partitioned graph")
	}
	// A destination that is no host of the graph (a switch, or a node ID a
	// corrupted packet carries) has no route and must not panic.
	for _, dst := range []sim.NodeID{s, -1, sim.NodeID(g.N()), 1 << 30} {
		p := pkt(a, dst, 1)
		if l, ok := e.NextLink(a, &p); ok || l != topology.NoLink {
			t.Fatalf("NextLink toward node %d = (%d, %v), want no route", dst, l, ok)
		}
	}
}

func TestECMPDelayMetric(t *testing.T) {
	// Two paths: 2 hops with large delay vs 3 hops with small delay.
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	b := g.AddNode(topology.Host, "b")
	s1 := g.AddNode(topology.Switch, "s1")
	s2 := g.AddNode(topology.Switch, "s2")
	s3 := g.AddNode(topology.Switch, "s3")
	g.AddLink(a, s1, 1e9, 1)
	g.AddLink(s1, b, 1e9, 1000) // short but slow
	g.AddLink(s1, s2, 1e9, 10)
	g.AddLink(s2, s3, 1e9, 10)
	g.AddLink(s3, b, 1e9, 10)

	byHops := NewECMP(g, Hops, 1)
	byDelay := NewECMP(g, Delay, 1)
	if h := walk(g, byHops, a, b, 1); h != 2 {
		t.Fatalf("hop-metric path %d, want 2", h)
	}
	if h := walk(g, byDelay, a, b, 1); h != 4 {
		t.Fatalf("delay-metric path %d, want 4", h)
	}
}

// referenceECMP is the table this package built before the flat one: a
// [node][dst] slice of separately allocated next-hop sets, one boxed
// container/heap Dijkstra per destination host. It is kept verbatim as the
// oracle the flat table is compared against.
type referenceECMP struct {
	g      *topology.Graph
	metric Metric
	salt   uint64
	next   [][][]topology.LinkID
}

func newReferenceECMP(g *topology.Graph, metric Metric, seed uint64) *referenceECMP {
	e := &referenceECMP{g: g, metric: metric, salt: rng.Mix(seed, 0xec3b)}
	e.Recompute()
	return e
}

func (e *referenceECMP) Recompute() {
	n := e.g.N()
	next := make([][][]topology.LinkID, n)
	for i := range next {
		next[i] = make([][]topology.LinkID, n)
	}
	for _, dst := range e.g.Hosts() {
		dist := shortestTo(e.g, dst, e.metric)
		for v := 0; v < n; v++ {
			if dist[v] < 0 || sim.NodeID(v) == dst {
				continue
			}
			var set []topology.LinkID
			for _, l := range e.g.Nodes[v].Links {
				lk := &e.g.Links[l]
				if !lk.Up {
					continue
				}
				u := e.g.Peer(l, sim.NodeID(v))
				if dist[u] >= 0 && dist[u]+linkCost(lk, e.metric) == dist[v] {
					set = append(set, l)
				}
			}
			next[v][dst] = set
		}
	}
	e.next = next
}

func (e *referenceECMP) NextLink(n sim.NodeID, p *packet.Packet) (topology.LinkID, bool) {
	set := e.next[n][p.Dst]
	if len(set) == 0 {
		return topology.NoLink, false
	}
	if len(set) == 1 {
		return set[0], true
	}
	h := rng.Mix(e.salt, uint64(p.Flow), uint64(uint32(p.Src))<<32|uint64(uint32(p.Dst)))
	return set[h%uint64(len(set))], true
}

// shortestTo runs Dijkstra toward dst and returns per-node distance
// (-1 when unreachable).
func shortestTo(g *topology.Graph, dst sim.NodeID, m Metric) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = -1
	}
	pq := &nodeHeap{}
	heap.Push(pq, nodeDist{dst, 0})
	for pq.Len() > 0 {
		nd := heap.Pop(pq).(nodeDist)
		if dist[nd.n] >= 0 {
			continue
		}
		dist[nd.n] = nd.d
		for _, l := range g.Nodes[nd.n].Links {
			lk := &g.Links[l]
			if !lk.Up {
				continue
			}
			u := g.Peer(l, nd.n)
			if dist[u] < 0 {
				heap.Push(pq, nodeDist{u, nd.d + linkCost(lk, m)})
			}
		}
	}
	return dist
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].n < h[j].n
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mixedGraph has what the builders lack: multi-homed hosts beside leaf
// hosts, parallel links, a leaf host whose only neighbour is a host, an
// isolated host, and unequal delays so the two metrics disagree.
func mixedGraph() *topology.Graph {
	g := topology.New()
	r := rng.New(11, 0x6d78)
	delay := func() sim.Time { return sim.Time(1 + r.Int63n(50)) }
	var sw []sim.NodeID
	for i := 0; i < 8; i++ {
		sw = append(sw, g.AddNode(topology.Switch, fmt.Sprintf("s%d", i)))
	}
	for i := range sw {
		g.AddLink(sw[i], sw[(i+1)%len(sw)], 1e9, delay())
		g.AddLink(sw[i], sw[(i+3)%len(sw)], 1e9, delay())
	}
	g.AddLink(sw[0], sw[1], 1e9, delay()) // parallel to the ring link
	for i := range sw {
		for j := 0; j <= i%3; j++ { // 1 to 3 leaf hosts per switch
			g.AddLink(g.AddNode(topology.Host, fmt.Sprintf("leaf%d.%d", i, j)), sw[i], 1e9, delay())
		}
	}
	for i := 0; i < 4; i++ { // multi-homed hosts
		h := g.AddNode(topology.Host, fmt.Sprintf("dual%d", i))
		g.AddLink(h, sw[i], 1e9, delay())
		g.AddLink(h, sw[i+4], 1e9, delay())
	}
	relay := g.AddNode(topology.Host, "relay") // a host that forwards
	g.AddLink(relay, sw[2], 1e9, delay())
	g.AddLink(g.AddNode(topology.Host, "behind-relay"), relay, 1e9, delay())
	pairA, pairB := g.AddNode(topology.Host, "pairA"), g.AddNode(topology.Host, "pairB")
	g.AddLink(pairA, pairB, 1e9, delay()) // two leaf hosts, each the other's gateway
	g.AddNode(topology.Host, "isolated")
	return g
}

// TestECMPEqualsReference is the differential oracle for the forwarding
// table: on every topology family, under both metrics and after seeded
// link failures and repairs, every (node, destination) pair — host or not,
// n == dst included — must route exactly as referenceECMP does.
func TestECMPEqualsReference(t *testing.T) {
	const bw, us = 1e9, sim.Microsecond
	cases := []struct {
		name   string
		build  func() *topology.Graph
		rounds int
	}{
		{"fattree-k4", func() *topology.Graph { return fatTree(4).Graph }, 20},
		{"fattree-k8", func() *topology.Graph { return fatTree(8).Graph }, 20},
		// 1344^2 pairs per comparison and a 0.8 s reference build: the two
		// forced failure sets and one random one.
		{"fattree-k16", func() *topology.Graph { return fatTree(16).Graph }, 3},
		{"bcube-4-1", func() *topology.Graph { return topology.BuildBCube(4, 1, bw, us).Graph }, 20},
		{"torus-6x6", func() *topology.Graph { return topology.BuildTorus2D(6, 6, bw, us).Graph }, 20},
		{"spineleaf", func() *topology.Graph { return topology.BuildSpineLeaf(4, 6, 5, bw, us).Graph }, 20},
		{"dumbbell", func() *topology.Graph { return topology.BuildDumbbell(6, bw, bw/10, us, 10*us).Graph }, 20},
		{"geant", func() *topology.Graph { return topology.Geant().Graph }, 20},
		{"chinanet", func() *topology.Graph { return topology.ChinaNet().Graph }, 20},
		{"mixed", mixedGraph, 20},
	}
	for _, tc := range cases {
		for _, metric := range []Metric{Hops, Delay} {
			tc, metric := tc, metric
			t.Run(fmt.Sprintf("%s/metric=%d", tc.name, metric), func(t *testing.T) {
				t.Parallel()
				g := tc.build()
				e := NewECMP(g, metric, 42)
				ref := newReferenceECMP(g, metric, 42)
				compareToReference(t, g, e, ref, "intact")
				r := rng.New(42, 0xd1ff)
				var down []topology.LinkID
				for round := 0; round < tc.rounds; round++ {
					for _, l := range down {
						g.SetLinkUp(l, true)
					}
					down = failureSet(g, r, round)
					for _, l := range down {
						g.SetLinkUp(l, false)
						e.Recompute()
					}
					ref.Recompute()
					compareToReference(t, g, e, ref, fmt.Sprintf("round %d, links down %v", round, down))
				}
				for _, l := range down {
					g.SetLinkUp(l, true)
				}
				e.Recompute()
				ref.Recompute()
				compareToReference(t, g, e, ref, "repaired")
			})
		}
	}
}

// failureSet picks the links to take down in one round: round 0 a leaf
// host's only link, round 1 every switch-facing link of a switch that has
// a leaf host (an edge switch's uplinks), later rounds 1 to 5 % of all
// links at random.
func failureSet(g *topology.Graph, r *rng.Rand, round int) []topology.LinkID {
	var leaves []sim.NodeID
	for _, h := range g.Hosts() {
		if len(g.Nodes[h].Links) == 1 {
			leaves = append(leaves, h)
		}
	}
	if round < 2 && len(leaves) > 0 {
		h := leaves[r.Intn(len(leaves))]
		only := g.Nodes[h].Links[0]
		if round == 0 {
			return []topology.LinkID{only}
		}
		edge := g.Peer(only, h)
		var up []topology.LinkID
		for _, l := range g.Nodes[edge].Links {
			if g.Nodes[g.Peer(l, edge)].Kind == topology.Switch {
				up = append(up, l)
			}
		}
		return up
	}
	var set []topology.LinkID
	for n := 1 + r.Intn(1+len(g.Links)/20); n > 0; n-- {
		set = append(set, topology.LinkID(r.Intn(len(g.Links))))
	}
	return set
}

func compareToReference(t *testing.T, g *topology.Graph, e *ECMP, ref *referenceECMP, when string) {
	t.Helper()
	n := sim.NodeID(g.N())
	for at := sim.NodeID(0); at < n; at++ {
		for dst := sim.NodeID(0); dst < n; dst++ {
			for flow := packet.FlowID(0); flow < 8; flow++ {
				p := pkt((at+dst+sim.NodeID(flow))%n, dst, flow)
				got, gotOK := e.NextLink(at, &p)
				want, wantOK := ref.NextLink(at, &p)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s: NextLink(at %d, dst %d, flow %d) = (%d, %v), reference (%d, %v)",
						when, at, dst, flow, got, gotOK, want, wantOK)
				}
				if !gotOK {
					break // no route for one flow is no route for all
				}
			}
		}
	}
}

func fatTree(k int) *topology.FatTree {
	return topology.BuildFatTree(topology.FatTreeK(k, 1e9, sim.Microsecond))
}

func BenchmarkECMPBuild(b *testing.B) {
	for _, k := range []int{8, 16} {
		g := fatTree(k).Graph
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchECMP = NewECMP(g, Hops, 42)
			}
		})
	}
}

// BenchmarkECMPNextLink walks packets of random host pairs hop by hop, so
// the lookups hit rows and columns the way a run does.
func BenchmarkECMPNextLink(b *testing.B) {
	for _, k := range []int{8, 16} {
		ft := fatTree(k)
		e := NewECMP(ft.Graph, Hops, 42)
		hosts := ft.Hosts()
		r := rng.New(42, 0xbe9c)
		pkts := make([]packet.Packet, 4096)
		for i := range pkts {
			pkts[i] = pkt(hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))], packet.FlowID(i))
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; {
				p := &pkts[i%len(pkts)]
				for at := p.Src; at != p.Dst; i++ {
					l, _ := e.NextLink(at, p)
					at = ft.Peer(l, at)
				}
				i++ // src == dst pairs still make progress
			}
		})
	}
}

var benchECMP *ECMP
