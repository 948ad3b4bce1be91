package eventq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unison/internal/sim"
)

// TestPeekEmpty pins the empty-queue contract: Peek returns nil instead
// of indexing an empty backing slice (regression for the unconditional
// q.h[0] access).
func TestPeekEmpty(t *testing.T) {
	q := New(0)
	if got := q.Peek(); got != nil {
		t.Fatalf("Peek on empty queue = %v, want nil", got)
	}
	q.Push(ev(1, 0, 0))
	q.Pop()
	if got := q.Peek(); got != nil {
		t.Fatalf("Peek after draining = %v, want nil", got)
	}
}

// randomEvents builds n events with many Time ties so that the pop order
// exercises the (Src, Seq) tie-breaking levels of the total order. Seq is
// globally unique, matching the kernel invariant that (Time, Src, Seq)
// admits no duplicate keys.
func randomEvents(r *rand.Rand, n int) []sim.Event {
	evs := make([]sim.Event, n)
	for i := range evs {
		evs[i] = ev(sim.Time(r.Intn(7)), sim.NodeID(r.Intn(5)), uint64(i))
	}
	return evs
}

// popAll drains q and returns the dequeue sequence.
func popAll(q *Queue) []sim.Event {
	out := make([]sim.Event, 0, q.Len())
	for !q.Empty() {
		out = append(out, q.Pop())
	}
	return out
}

// TestPushBatchEquivalence is the bulk-load correctness property: for a
// random pre-population and a random batch, PushBatch produces a heap
// whose pop order is identical to a naive Push loop over the same events.
// Batch and heap sizes are drawn to land on both sides of the Floyd
// heapify threshold.
func TestPushBatchEquivalence(t *testing.T) {
	f := func(seed int64, preN, batchN uint8) bool {
		r := rand.New(rand.NewSource(seed))
		pre := randomEvents(r, int(preN))
		batch := make([]sim.Event, int(batchN))
		for i := range batch {
			batch[i] = ev(sim.Time(r.Intn(7)), sim.NodeID(r.Intn(5)), uint64(1000+i))
		}

		bulk, naive := New(0), New(0)
		for _, e := range pre {
			bulk.Push(e)
			naive.Push(e)
		}
		bulk.PushBatch(batch)
		for _, e := range batch {
			naive.Push(e)
		}

		if bulk.Len() != naive.Len() {
			return false
		}
		want := popAll(naive)
		got := popAll(bulk)
		for i := range want {
			if got[i].Time != want[i].Time || got[i].Src != want[i].Src || got[i].Seq != want[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPushBatchThresholdEdges drives the exact boundary cases of the
// heapify threshold: empty batch, batch into empty heap (pure Floyd),
// single event, and a tiny batch into a large heap (sift-up path).
func TestPushBatchThresholdEdges(t *testing.T) {
	q := New(0)
	q.PushBatch(nil)
	if !q.Empty() {
		t.Fatalf("PushBatch(nil) created events")
	}

	r := rand.New(rand.NewSource(7))
	all := randomEvents(r, 257)
	q.PushBatch(all[:256]) // empty heap: Floyd path
	q.PushBatch(all[256:]) // 1 into 256: sift-up path
	want := New(0)
	for _, e := range all {
		want.Push(e)
	}
	got, exp := popAll(q), popAll(want)
	for i := range exp {
		if got[i].Time != exp[i].Time || got[i].Src != exp[i].Src || got[i].Seq != exp[i].Seq {
			t.Fatalf("pop %d: got (%v,%d,%d), want (%v,%d,%d)",
				i, got[i].Time, got[i].Src, got[i].Seq, exp[i].Time, exp[i].Src, exp[i].Seq)
		}
	}
}

func BenchmarkPushBatchVsLoop(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	batch := make([]sim.Event, 64)
	for i := range batch {
		batch[i] = ev(sim.Time(r.Intn(1<<20)), 0, uint64(i))
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := New(64)
			q.PushBatch(batch)
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := New(64)
			for _, e := range batch {
				q.Push(e)
			}
		}
	})
}
