// Package core implements the Unison kernel: automatic fine-grained
// topology partition (Algorithm 1), load-adaptive longest-job-first
// scheduling over decoupled logical processes, lock-free four-phase round
// execution with SPSC mailboxes, the public LP for global events
// (Equation 2), deterministic tie-breaking, and a hybrid multi-host mode.
package core

import (
	"errors"
	"fmt"
	"sort"

	"unison/internal/sim"
)

// Partition is the result of the spatial partition stage: every node is
// assigned a logical process, and the lookahead is the minimum delay over
// the links that were logically cut between LPs.
type Partition struct {
	// LPOf maps node -> LP index in [0, Count).
	LPOf []int32
	// Count is the number of LPs (excluding the public LP).
	Count int
	// Lookahead is the minimum propagation delay over cut links;
	// sim.MaxTime when nothing is cut (single LP).
	Lookahead sim.Time
	// Bound is the lookahead lower bound chosen by the algorithm (the
	// median link delay).
	Bound sim.Time
}

// FineGrained runs the paper's Algorithm 1: choose the median link delay
// as the lookahead lower bound, logically cut every stateless link whose
// delay is at least the bound, and make each remaining connected
// component an LP. Cutting at the median guarantees at least half the
// links are cut, producing fine granularity for the scheduler while
// preserving a useful lookahead.
func FineGrained(nodes int, links []sim.LinkInfo) *Partition {
	if nodes <= 0 {
		panic("core: partition of empty topology")
	}
	bound := medianDelay(links)
	lpOf, count := components(nodes, links, func(l *sim.LinkInfo) bool {
		// Keep (do not cut) links below the bound; stateful links can
		// never be cut, regardless of delay.
		return l.Up && (l.Delay < bound || !l.Stateless)
	})
	p := &Partition{LPOf: lpOf, Count: count, Bound: bound}
	p.Lookahead = CutLookahead(p.LPOf, links)
	return p
}

// HybridPartition computes the two-level partition of §5.2: Algorithm 1
// applied within each host's subgraph (links crossing hosts are always
// cut). It returns the node→LP map, the LP→host map, and the global
// lookahead. With every node on one host it is FineGrained.
func HybridPartition(nodes int, hostOf []int32, links []sim.LinkInfo) (lpOf []int32, hostOfLP []int32, lookahead sim.Time, err error) {
	if len(hostOf) != nodes {
		return nil, nil, 0, errors.New("core: HostOf must cover every node")
	}
	bound := medianDelay(links)
	lpOf, count := components(nodes, links, func(l *sim.LinkInfo) bool {
		return l.Up && hostOf[l.A] == hostOf[l.B] && (l.Delay < bound || !l.Stateless)
	})
	hostOfLP = make([]int32, count)
	for v, lp := range lpOf {
		hostOfLP[lp] = hostOf[v]
	}
	return lpOf, hostOfLP, CutLookahead(lpOf, links), nil
}

// Manual builds a partition from an explicit node -> LP assignment (the
// baselines' static manual partition, and the Fig 12 granularity studies).
func Manual(lpOf []int32, links []sim.LinkInfo) *Partition {
	count := int32(0)
	for _, lp := range lpOf {
		if lp < 0 {
			panic("core: manual partition leaves a node unassigned")
		}
		if lp+1 > count {
			count = lp + 1
		}
	}
	p := &Partition{LPOf: append([]int32(nil), lpOf...), Count: int(count)}
	p.Lookahead = CutLookahead(p.LPOf, links)
	return p
}

// SingleLP assigns every node to one LP (sequential execution shape).
func SingleLP(nodes int, links []sim.LinkInfo) *Partition {
	return Manual(make([]int32, nodes), links)
}

// CutLookahead returns the minimum delay over up links whose endpoints
// live in different LPs; sim.MaxTime when there is no such link. Kernels
// recompute this whenever a global event mutates the topology (§4.2).
func CutLookahead(lpOf []int32, links []sim.LinkInfo) sim.Time {
	la := sim.MaxTime
	for i := range links {
		l := &links[i]
		if !l.Up || lpOf[l.A] == lpOf[l.B] {
			continue
		}
		if !l.Stateless {
			panic(fmt.Sprintf("core: stateful link %d-%d crosses LPs", l.A, l.B))
		}
		if l.Delay < la {
			la = l.Delay
		}
	}
	return la
}

// medianDelay returns the median delay of up links (MaxTime if no links,
// so everything collapses into one LP).
func medianDelay(links []sim.LinkInfo) sim.Time {
	var ds []sim.Time
	for i := range links {
		if links[i].Up {
			ds = append(ds, links[i].Delay)
		}
	}
	if len(ds) == 0 {
		return sim.MaxTime
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// components labels the connected components of the graph made of the
// links keep accepts, numbering them by their lowest node, and returns the
// node→component map and the component count. Every partition that is
// computed rather than given is a choice of keep.
func components(nodes int, links []sim.LinkInfo, keep func(*sim.LinkInfo) bool) ([]int32, int) {
	adj := make([][]int32, nodes)
	for i := range links {
		l := &links[i]
		if keep(l) {
			adj[l.A] = append(adj[l.A], int32(l.B))
			adj[l.B] = append(adj[l.B], int32(l.A))
		}
	}
	label := make([]int32, nodes)
	for i := range label {
		label[i] = -1
	}
	var count int32
	queue := make([]int32, 0, nodes)
	for v := 0; v < nodes; v++ {
		if label[v] >= 0 {
			continue
		}
		queue = append(queue[:0], int32(v))
		label[v] = count
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if label[w] < 0 {
					label[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return label, int(count)
}

// Sizes returns the node count of each LP (diagnostics).
func (p *Partition) Sizes() []int {
	s := make([]int, p.Count)
	for _, lp := range p.LPOf {
		s[lp]++
	}
	return s
}
