package eventq

import (
	"math/rand"
	"slices"
	"testing"

	"unison/internal/sim"
)

// countRef is CountBefore by brute force over a snapshot of a copy of q,
// whose layout Snapshot would change.
func countRef(q *Queue, bound sim.Time, limit int) int {
	cp := &Queue{h: slices.Clone(q.h), slots: slots{arena: slices.Clone(q.arena)}}
	n := 0
	for _, e := range cp.Snapshot(nil) {
		if e.Time < bound {
			n++
		}
	}
	return max(0, min(n, limit))
}

func TestCountBefore(t *testing.T) {
	q := New(0)
	for i, at := range []sim.Time{50, 10, 30, 10, 20, 40, 30, 60, 10, 70} {
		q.Push(ev(at, sim.NodeID(i%3), uint64(i)))
	}
	for _, c := range []struct {
		bound      sim.Time
		limit, out int
	}{
		{0, 100, 0},
		{10, 100, 0}, // three events at exactly the bound: none is before it
		{11, 100, 3}, // all three ties
		{30, 100, 4}, // 10 ×3, 20
		{31, 100, 6}, // and both 30s
		{31, 5, 5},   // stops at the limit
		{31, 6, 6},   // a limit equal to the count
		{31, 1, 1},   // the root alone
		{31, 0, 0},   // no limit, no count
		{31, -3, 0},  // nor a negative one
		{sim.MaxTime, 100, 10},
	} {
		if got := q.CountBefore(c.bound, c.limit); got != c.out {
			t.Errorf("CountBefore(%v, %d) = %d, want %d", c.bound, c.limit, got, c.out)
		}
	}
	if got := New(0).CountBefore(sim.MaxTime, 10); got != 0 {
		t.Errorf("empty queue counts %d", got)
	}
}

// TestCountBeforeRandom checks CountBefore against a brute-force count on
// heaps built by interleaved Push, PushBatch (both of its paths) and
// PopBefore, with coarse times so that many events tie at the bound.
func TestCountBeforeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		q := New(0)
		seq := uint64(0)
		next := func(now sim.Time) sim.Event {
			seq++
			return ev(now+sim.Time(r.Intn(40)), sim.NodeID(r.Intn(4)), seq)
		}
		now := sim.Time(0)
		for step := 0; step < 30; step++ {
			switch r.Intn(3) {
			case 0:
				q.Push(next(now))
			case 1:
				batch := make([]sim.Event, r.Intn(min(q.Len(), 40)+3))
				for i := range batch {
					batch[i] = next(now)
				}
				q.PushBatch(batch)
			default:
				now += sim.Time(r.Intn(15))
				for _, ok := q.PopBefore(now); ok; _, ok = q.PopBefore(now) {
				}
			}
			bound, limit := now+sim.Time(r.Intn(45)), r.Intn(q.Len()+3)
			if got, want := q.CountBefore(bound, limit), countRef(q, bound, limit); got != want {
				t.Fatalf("trial %d step %d: CountBefore(%v, %d) = %d over %d events, want %d", trial, step, bound, limit, got, q.Len(), want)
			}
		}
	}
}
