package trace

import (
	"testing"

	"unison/internal/packet"
	"unison/internal/sim"
)

func rec(t sim.Time, n sim.NodeID, k Kind, flow packet.FlowID) Record {
	return Record{Time: t, Node: n, Kind: k, Flow: flow, Seq: 7, Size: 1488}
}

func TestCollectorMergeOrder(t *testing.T) {
	c := NewCollector(3, 0)
	c.Add(rec(20, 1, Enqueue, 0))
	c.Add(rec(10, 2, Deliver, 1))
	c.Add(rec(10, 0, Drop, 2))
	c.Add(rec(10, 2, Enqueue, 3)) // same (time,node): emission order
	m := c.Merged()
	if len(m) != 4 {
		t.Fatalf("merged=%d", len(m))
	}
	wantFlows := []packet.FlowID{2, 1, 3, 0}
	for i, w := range wantFlows {
		if m[i].Flow != w {
			t.Fatalf("merged[%d].Flow=%d, want %d", i, m[i].Flow, w)
		}
	}
}

func TestCollectorCap(t *testing.T) {
	c := NewCollector(1, 2)
	for i := 0; i < 5; i++ {
		c.Add(rec(sim.Time(i), 0, Enqueue, 0))
	}
	if c.Count() != 2 || c.Lost() != 3 {
		t.Fatalf("count=%d lost=%d", c.Count(), c.Lost())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
	// Every defined kind renders its own name, not a neighbor's: the
	// switch must have an explicit case per kind.
	names := map[Kind]string{
		Enqueue: "enq", Dequeue: "deq", Drop: "drop", Mark: "mark", Deliver: "rcv",
	}
	if len(names) != int(kindCount) {
		t.Fatalf("test covers %d kinds, enum has %d", len(names), kindCount)
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	// Unknown kinds render diagnosably instead of aliasing a real kind.
	if got := kindCount.String(); got != "kind(5)" {
		t.Fatalf("unknown kind renders %q, want kind(5)", got)
	}
}
