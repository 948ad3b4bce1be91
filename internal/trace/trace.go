// Package trace is the packet-event tracing subsystem — the analog of
// ns-3's pcap/ascii tracing. Devices emit records for enqueue, dequeue,
// drop, ECN mark and delivery events; records are collected per node
// (single-owner, lock-free under every kernel) and merged into a
// deterministic total order, which a run-artifact bundle writes as
// trace.pcapng (internal/netobs).
package trace

import (
	"cmp"
	"fmt"
	"slices"

	"unison/internal/packet"
	"unison/internal/sim"
)

// Kind classifies a trace record.
type Kind uint8

const (
	// Enqueue: a packet entered a device queue.
	Enqueue Kind = iota
	// Dequeue: a packet left a queue and began transmission.
	Dequeue
	// Drop: a packet was discarded (queue overflow, TTL, dead link...).
	Drop
	// Mark: a packet received an ECN congestion mark.
	Mark
	// Deliver: a packet reached its destination host.
	Deliver
	kindCount
)

func (k Kind) String() string {
	switch k {
	case Enqueue:
		return "enq"
	case Dequeue:
		return "deq"
	case Drop:
		return "drop"
	case Mark:
		return "mark"
	case Deliver:
		return "rcv"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one trace entry.
type Record struct {
	Time sim.Time
	Node sim.NodeID
	Kind Kind
	Flow packet.FlowID
	Seq  uint32 // the packet's TCP sequence number (0 for UDP)
	Size int32  // on-wire bytes
}

// Collector gathers records per node. The per-node slices are only
// appended from events executing on that node, so collection needs no
// locks under any kernel; Merged sorts the union afterwards.
type Collector struct {
	perNode [][]Record
	cap     int //unison:ckpt-skip config, fixed at NewCollector
	lost    []uint64
}

// NewCollector creates a collector for n nodes, keeping at most perNodeCap
// records per node (0 = unlimited). Overflowing records are counted, not
// stored.
func NewCollector(n, perNodeCap int) *Collector {
	return &Collector{
		perNode: make([][]Record, n),
		cap:     perNodeCap,
		lost:    make([]uint64, n),
	}
}

// Add records one event on node rec.Node.
func (c *Collector) Add(rec Record) {
	n := rec.Node
	if c.cap > 0 && len(c.perNode[n]) >= c.cap {
		c.lost[n]++
		return
	}
	c.perNode[n] = append(c.perNode[n], rec)
}

// Lost returns the number of records dropped due to the per-node cap.
func (c *Collector) Lost() uint64 {
	var t uint64
	for _, l := range c.lost {
		t += l
	}
	return t
}

// Count returns the number of stored records.
func (c *Collector) Count() int {
	t := 0
	for _, rs := range c.perNode {
		t += len(rs)
	}
	return t
}

// Merged returns all records in a deterministic total order: by time,
// then node, then per-node emission order. Because per-node emission
// order is fixed by the deterministic event order, the merged trace is
// identical across kernels and thread counts.
func (c *Collector) Merged() []Record {
	type keyed struct {
		r   Record
		idx int
	}
	var all []keyed
	for _, rs := range c.perNode {
		for i, r := range rs {
			all = append(all, keyed{r, i})
		}
	}
	// (time, node, index) is unique, so any sort yields the one order.
	slices.SortFunc(all, func(x, y keyed) int {
		return cmp.Or(cmp.Compare(x.r.Time, y.r.Time), cmp.Compare(x.r.Node, y.r.Node), cmp.Compare(x.idx, y.idx))
	})
	out := make([]Record, len(all))
	for i, k := range all {
		out[i] = k.r
	}
	return out
}

// CountKind returns how many stored records have the given kind.
func (c *Collector) CountKind(k Kind) int {
	t := 0
	for _, rs := range c.perNode {
		for _, r := range rs {
			if r.Kind == k {
				t++
			}
		}
	}
	return t
}
