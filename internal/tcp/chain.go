package tcp

import (
	"cmp"
	"fmt"
	"slices"

	"unison/internal/sim"
)

// A materialized workload keeps one pending start per host, not one per
// flow. Attach reserves one setup identity per flow, (SetupSrc, base+i) for
// flow i — the identity setup.AtDesc would have given it — and links each
// host's flows in (Start, i) order. The host's first flow is its one init
// event; each start, once it has opened its flow, puts the host's next start
// on its own node under that flow's reserved identity. Every start runs
// where and when, and sorts where, it would have run from Model.Init, so
// results do not move; what goes is a workload's worth of pending events
// held from set-up to the end of the run.

// startChain is one Attach call's workload, chained per host.
type startChain struct {
	s     *Stack
	flows []FlowSpec // the caller's slice, retained and never written
	// next[i] is the flow its host starts after flow i, -1 after its last.
	next []int32
	base uint64 // flow i starts as the setup event (SetupSrc, base+i)
	off  int32  // flows[0]'s index among every flow the stack chained
}

// chainEvt is a host's one pending start: it starts flow i, then puts
// itself again for the host's next flow.
type chainEvt struct {
	c  *startChain
	i  int32
	fn sim.Proc
}

func (e *chainEvt) run(ctx *sim.Ctx) {
	c := e.c
	c.s.StartFlow(ctx, c.flows[e.i])
	if n := c.next[e.i]; n >= 0 {
		e.i = n
		f := &c.flows[n]
		ctx.RedeemSetup(f.Start, f.Src, c.base+uint64(n), e.fn, e)
	}
}

// link fills next for a topology of nodes nodes and returns each host's
// first flow, in flow order. One pass appends every flow to its host's list; a host whose
// flows are not in Start order in the slice then has that list alone
// stable-sorted, which keeps equal starts in slice order.
func (c *startChain) link(nodes int) []int32 {
	flows := c.flows
	c.next = make([]int32, len(flows))
	head := make([]int32, nodes)
	tail := make([]int32, nodes)
	unsorted := make([]bool, nodes)
	for n := range head {
		head[n] = -1
	}
	heads := 0
	for i := range flows {
		src := flows[i].Src
		if src < 0 || int(src) >= nodes {
			panic(fmt.Sprintf("tcp: flow %d source %d outside the %d nodes", flows[i].ID, src, nodes))
		}
		c.next[i] = -1
		if t := tail[src]; head[src] < 0 {
			head[src] = int32(i)
			heads++
		} else {
			c.next[t] = int32(i)
			unsorted[src] = unsorted[src] || flows[i].Start < flows[t].Start
		}
		tail[src] = int32(i)
	}
	var list []int32
	for n, u := range unsorted {
		if !u {
			continue
		}
		list = list[:0]
		for i := head[n]; i >= 0; i = c.next[i] {
			list = append(list, i)
		}
		slices.SortStableFunc(list, func(a, b int32) int { return cmp.Compare(flows[a].Start, flows[b].Start) })
		head[n] = list[0]
		for k := 1; k < len(list); k++ {
			c.next[list[k-1]] = list[k]
		}
		c.next[list[len(list)-1]] = -1
	}
	first := make([]int32, 0, heads)
	for i := range flows {
		if head[flows[i].Src] == int32(i) {
			first = append(first, int32(i))
		}
	}
	return first
}
