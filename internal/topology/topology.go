// Package topology models simulated network topologies as graphs of nodes
// (hosts and switches) and point-to-point links with bandwidth and
// propagation delay. It provides builders for every topology family in the
// paper's evaluation: k-ary fat-trees (clustered, MimicNet-style), BCube,
// 2D-torus, spine-leaf, dumbbell, and wide-area backbones, plus mutation
// primitives for the reconfigurable-DCN scenario.
//
// Graphs are mutable: link delay, connectivity and up/down state may change
// during a simulation, but only from within a *global* event (the public LP
// under Unison) so every logical process observes the change atomically.
package topology

import (
	"fmt"

	"unison/internal/sim"
)

// Kind classifies a node.
type Kind uint8

const (
	// Host is an end system running applications and transports.
	Host Kind = iota
	// Switch forwards packets between its links.
	Switch
)

func (k Kind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// LinkID indexes a link within its Graph.
type LinkID int32

// NoLink is the absent-link sentinel.
const NoLink LinkID = -1

// Link is a full-duplex point-to-point link. Links are stateless in the
// paper's sense (§4.2): no state variables are shared between the two
// endpoints, so a link may be logically cut between two logical processes.
type Link struct {
	ID        LinkID
	A, B      sim.NodeID
	Bandwidth int64    // bits per second
	Delay     sim.Time // one-way propagation delay
	Up        bool
	Stateless bool
}

// Other returns the endpoint of l that is not n, which must be one of the
// two. It is Graph.Peer for a caller that already holds the link, without
// the membership check, so it inlines: routing searches call it once per
// link visited (BenchmarkECMPBuild/k=16 reads 5.6 ms with it, 10.5 ms with
// Peer).
func (l *Link) Other(n sim.NodeID) sim.NodeID {
	if l.A == n {
		return l.B
	}
	return l.A
}

// Node is one vertex of the topology.
type Node struct {
	ID    sim.NodeID
	Kind  Kind
	Name  string
	Links []LinkID // incident links, in insertion order
}

// Graph is a mutable network topology.
type Graph struct {
	Nodes []Node
	Links []Link

	version uint64
	hosts   []sim.NodeID
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind Kind, name string) sim.NodeID {
	id := sim.NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name})
	if kind == Host {
		g.hosts = append(g.hosts, id)
	}
	return id
}

// AddLink connects a and b with the given bandwidth (bits/s) and one-way
// propagation delay, and returns the link's ID. The link starts up.
func (g *Graph) AddLink(a, b sim.NodeID, bandwidth int64, delay sim.Time) LinkID {
	if a == b {
		panic(fmt.Sprintf("topology: self link on node %d", a))
	}
	if delay <= 0 {
		panic(fmt.Sprintf("topology: link %d-%d needs positive delay", a, b))
	}
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{
		ID: id, A: a, B: b, Bandwidth: bandwidth, Delay: delay, Up: true, Stateless: true,
	})
	g.Nodes[a].Links = append(g.Nodes[a].Links, id)
	g.Nodes[b].Links = append(g.Nodes[b].Links, id)
	g.version++
	return id
}

// AddHalfDuplexLink connects a and b with a shared half-duplex channel:
// only one endpoint may transmit at a time, so the two endpoints share
// state. Such links are *stateful* in the paper's sense (§4.2) and can
// never be cut between logical processes — Algorithm 1 always keeps their
// endpoints in one LP, and a wireless-style model built only from them
// degenerates to sequential execution (the §7 applicability limit).
func (g *Graph) AddHalfDuplexLink(a, b sim.NodeID, bandwidth int64, delay sim.Time) LinkID {
	id := g.AddLink(a, b, bandwidth, delay)
	g.Links[id].Stateless = false
	return id
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Nodes) }

// Hosts returns the IDs of all host nodes, in creation order.
func (g *Graph) Hosts() []sim.NodeID { return g.hosts }

// Version increases on every topology mutation; routing caches use it to
// detect staleness (the NIx-vector "dirty" flag analog).
func (g *Graph) Version() uint64 { return g.version }

// Peer returns the endpoint of link l that is not n.
func (g *Graph) Peer(l LinkID, n sim.NodeID) sim.NodeID {
	lk := &g.Links[l]
	if lk.A == n {
		return lk.B
	}
	if lk.B != n {
		panic(fmt.Sprintf("topology: node %d not on link %d", n, l))
	}
	return lk.A
}

// SetLinkUp changes a link's up/down state. Must be called from a global
// event during a simulation.
func (g *Graph) SetLinkUp(l LinkID, up bool) {
	if g.Links[l].Up != up {
		g.Links[l].Up = up
		g.version++
	}
}

// SetLinkDelay changes a link's propagation delay. Must be called from a
// global event during a simulation.
func (g *Graph) SetLinkDelay(l LinkID, d sim.Time) {
	if d <= 0 {
		panic("topology: link delay must be positive")
	}
	if g.Links[l].Delay != d {
		g.Links[l].Delay = d
		g.version++
	}
}

// LinkBetween returns the first up link between a and b, or NoLink.
func (g *Graph) LinkBetween(a, b sim.NodeID) LinkID {
	for _, l := range g.Nodes[a].Links {
		if g.Links[l].Up && g.Peer(l, a) == b {
			return l
		}
	}
	return NoLink
}

// LinkInfos adapts the graph to the kernel's partitioning view.
func (g *Graph) LinkInfos() []sim.LinkInfo {
	infos := make([]sim.LinkInfo, len(g.Links))
	for i, l := range g.Links {
		infos[i] = sim.LinkInfo{A: l.A, B: l.B, Delay: l.Delay, Stateless: l.Stateless, Up: l.Up}
	}
	return infos
}

// Neighbors returns the IDs of nodes adjacent to n over up links.
func (g *Graph) Neighbors(n sim.NodeID) []sim.NodeID {
	var out []sim.NodeID
	for _, l := range g.Nodes[n].Links {
		if g.Links[l].Up {
			out = append(out, g.Peer(l, n))
		}
	}
	return out
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		if l.A < 0 || int(l.A) >= len(g.Nodes) || l.B < 0 || int(l.B) >= len(g.Nodes) {
			return fmt.Errorf("topology: link %d endpoints out of range", l.ID)
		}
		if l.Bandwidth <= 0 {
			return fmt.Errorf("topology: link %d has bandwidth %d", l.ID, l.Bandwidth)
		}
		if l.Delay <= 0 {
			return fmt.Errorf("topology: link %d has delay %v", l.ID, l.Delay)
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == Host && len(n.Links) == 0 {
			return fmt.Errorf("topology: host %d (%s) has no links", n.ID, n.Name)
		}
	}
	return nil
}

// BisectionBandwidth returns a simple estimate of the topology's bisection
// bandwidth in bits/s: half the total host access bandwidth. Workload
// generators use it to translate "30% of bisection bandwidth" into a flow
// arrival rate, matching how the paper's experiments are parameterized.
func (g *Graph) BisectionBandwidth() int64 {
	var total int64
	for _, h := range g.hosts {
		for _, l := range g.Nodes[h].Links {
			if g.Links[l].Up {
				total += g.Links[l].Bandwidth
			}
		}
	}
	return total / 2
}
