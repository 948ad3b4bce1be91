// Package routing provides the routing substrates the paper's models rely
// on: static shortest-path tables with ECMP and a RIP-like distance-vector
// protocol for the dynamic-routing WAN scenarios.
package routing

import (
	"slices"

	"unison/internal/packet"
	"unison/internal/rng"
	"unison/internal/sim"
	"unison/internal/topology"
)

// Router decides, at each switch, which output link a packet takes next.
// Implementations must be safe for concurrent use from multiple logical
// processes (reads are lock-free in the steady state).
type Router interface {
	// NextLink returns the up output link at node n toward p.Dst.
	// ok is false when no route exists (the packet is dropped).
	NextLink(n sim.NodeID, p *packet.Packet) (topology.LinkID, bool)
	// Recompute rebuilds routing state after a topology mutation. It must
	// only be called from a global event (all workers quiescent).
	Recompute()
}

// Metric selects the shortest-path weight.
type Metric uint8

const (
	// Hops minimizes hop count (data center fabrics, maximizes ECMP).
	Hops Metric = iota
	// Delay minimizes propagation delay (WANs).
	Delay
)

// ECMP is a static shortest-path router with equal-cost multipath: for
// every (node, destination host) it precomputes the set of next-hop links
// on shortest paths and picks one per flow with a deterministic hash.
//
// The table is flat (DESIGN.md §10). Destinations that share a search root
// share a column: a host with one link is reached through its only
// neighbour, so every such host behind one neighbour reads the column
// searched from that neighbour, and dest carries the one row that differs.
// A host with several links is its own root.
type ECMP struct {
	g      *topology.Graph
	metric Metric
	salt   uint64

	dest  []dest       // per destination node
	roots []sim.NodeID // search root per class: the columns of table
	table []int32      // [node*len(roots) + class] -> arena offset of a set
	arena []int32      // interned sets of link ids, see intern; offset 0 is the empty set

	// Build scratch, kept so Recompute on a same-size graph allocates nothing.
	chain  []int32 // per node: offset of its last interned set
	set    []int32 // the set being assembled
	search search
}

// dest is what NextLink knows about one destination node.
type dest struct {
	class int32           // column of table; -1: not a host, or a leaf host cut off
	gw    sim.NodeID      // a leaf host's only neighbour, else -1
	last  topology.LinkID // the link from gw to the leaf host
}

// NewECMP builds the static tables for g.
func NewECMP(g *topology.Graph, metric Metric, seed uint64) *ECMP {
	e := &ECMP{g: g, metric: metric, salt: rng.Mix(seed, 0xec3b)}
	e.Recompute()
	return e
}

// Recompute rebuilds all tables from the current topology.
func (e *ECMP) Recompute() {
	g, n := e.g, e.g.N()
	e.dest, e.chain, e.roots = resize(e.dest, n), resize(e.chain, n), e.roots[:0]
	for i := range e.dest {
		e.dest[i] = dest{class: -1, gw: -1, last: topology.NoLink}
	}
	clear(e.chain) // while classes are assigned: root node -> class+1
	for _, h := range g.Hosts() {
		d, root := &e.dest[h], h
		if links := g.Nodes[h].Links; len(links) == 1 {
			lk := &g.Links[links[0]]
			if !lk.Up {
				continue // unreachable from everywhere
			}
			root = lk.Other(h)
			d.gw, d.last = root, links[0]
		}
		if e.chain[root] == 0 {
			e.roots = append(e.roots, root)
			e.chain[root] = int32(len(e.roots))
		}
		d.class = e.chain[root] - 1
	}
	clear(e.chain)
	classes := len(e.roots)
	e.table = resize(e.table, n*classes)
	e.arena = append(e.arena[:0], 0)
	for c, root := range e.roots {
		dist := e.search.run(g, root, e.metric)
		for v := 0; v < n; v++ {
			set := e.set[:0]
			if sim.NodeID(v) != root && dist[v] >= 0 {
				for _, l := range g.Nodes[v].Links {
					lk := &g.Links[l]
					if !lk.Up {
						continue
					}
					if du := dist[lk.Other(sim.NodeID(v))]; du >= 0 && du+linkCost(lk, e.metric) == dist[v] {
						set = append(set, int32(l))
					}
				}
			}
			e.set = set
			e.table[v*classes+c] = e.intern(v, set)
		}
	}
}

// intern returns the arena offset of node v's copy of set, appending one
// if v has none. A set at offset o is arena[o] = its length followed by
// its links in v's link order; arena[o-1] chains to v's previous set.
func (e *ECMP) intern(v int, set []int32) int32 {
	if len(set) == 0 {
		return 0
	}
	for o := e.chain[v]; o != 0; o = e.arena[o-1] {
		if slices.Equal(e.arena[o+1:o+1+e.arena[o]], set) {
			return o
		}
	}
	e.arena = append(e.arena, e.chain[v], int32(len(set)))
	e.chain[v] = int32(len(e.arena) - 1)
	e.arena = append(e.arena, set...)
	return e.chain[v]
}

// MemBytes returns the size of the forwarding state NextLink reads: the
// set arena, the table and the 12-byte per-destination entries.
func (e *ECMP) MemBytes() int {
	return 4*cap(e.arena) + 4*cap(e.table) + 12*cap(e.dest)
}

// NextLink picks the flow's next-hop link at n by consistent hashing over
// the equal-cost set. A destination that is not a host of the graph has
// no route.
func (e *ECMP) NextLink(n sim.NodeID, p *packet.Packet) (topology.LinkID, bool) {
	if uint(p.Dst) >= uint(len(e.dest)) {
		return topology.NoLink, false
	}
	d := &e.dest[p.Dst]
	if d.class < 0 || n == p.Dst {
		return topology.NoLink, false
	}
	if n == d.gw {
		return d.last, true
	}
	set := e.arena[e.table[int(n)*len(e.roots)+int(d.class)]:]
	switch size := uint64(set[0]); size {
	case 0:
		return topology.NoLink, false
	case 1:
		return topology.LinkID(set[1]), true
	default:
		h := rng.Mix(e.salt, uint64(p.Flow), uint64(uint32(p.Src))<<32|uint64(uint32(p.Dst)))
		return topology.LinkID(set[1+h%size]), true
	}
}

// resize returns s with length n and unspecified contents, reusing its storage if it can.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func linkCost(l *topology.Link, m Metric) int64 {
	if m == Delay {
		return int64(l.Delay)
	}
	return 1
}

// search is one single-source shortest-path run with reusable buffers.
type search struct {
	dist  []int64
	queue []sim.NodeID // breadth-first frontier (Hops)
	heap  distHeap     // Dijkstra frontier (Delay)
}

// run returns every node's distance to root over up links, -1 when
// unreachable. The slice is overwritten by the next run.
func (s *search) run(g *topology.Graph, root sim.NodeID, m Metric) []int64 {
	s.dist = resize(s.dist, g.N())
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	if m == Hops {
		dist[root] = 0
		q := append(s.queue[:0], root)
		for i := 0; i < len(q); i++ {
			for _, l := range g.Nodes[q[i]].Links {
				lk := &g.Links[l]
				if u := lk.Other(q[i]); lk.Up && dist[u] < 0 {
					dist[u] = dist[q[i]] + 1
					q = append(q, u)
				}
			}
		}
		s.queue = q
		return dist
	}
	s.heap = append(s.heap[:0], nodeDist{root, 0})
	for len(s.heap) > 0 {
		nd := s.heap.pop()
		if dist[nd.n] >= 0 {
			continue
		}
		dist[nd.n] = nd.d
		for _, l := range g.Nodes[nd.n].Links {
			lk := &g.Links[l]
			if u := lk.Other(nd.n); lk.Up && dist[u] < 0 {
				s.heap.push(nodeDist{u, nd.d + linkCost(lk, m)})
			}
		}
	}
	return dist
}

type nodeDist struct {
	n sim.NodeID
	d int64
}

// distHeap is a binary min-heap on d.
type distHeap []nodeDist

func (h *distHeap) push(x nodeDist) {
	a := append(*h, x)
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if a[up].d <= a[i].d {
			break
		}
		a[up], a[i] = a[i], a[up]
		i = up
	}
	*h = a
}

func (h *distHeap) pop() nodeDist {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < last && a[c+1].d < a[c].d {
			c++
		}
		if c >= last || a[i].d <= a[c].d {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}
