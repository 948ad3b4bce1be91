package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"unison/internal/sim"
)

func ev(t sim.Time, src sim.NodeID, seq uint64) sim.Event {
	return sim.Event{Time: t, Src: src, Seq: seq}
}

func TestEmptyQueue(t *testing.T) {
	q := New(4)
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("new queue not empty")
	}
	if q.NextTime() != sim.MaxTime {
		t.Fatalf("NextTime of empty queue = %v, want MaxTime", q.NextTime())
	}
	if _, ok := q.PopBefore(sim.MaxTime); ok {
		t.Fatalf("PopBefore on empty queue returned an event")
	}
}

func TestPushPopOrdering(t *testing.T) {
	q := New(0)
	q.Push(ev(30, 1, 0))
	q.Push(ev(10, 2, 5))
	q.Push(ev(20, 0, 1))
	q.Push(ev(10, 1, 3))
	q.Push(ev(10, 2, 4))
	want := []sim.Event{ev(10, 1, 3), ev(10, 2, 4), ev(10, 2, 5), ev(20, 0, 1), ev(30, 1, 0)}
	for i, w := range want {
		got := q.Pop()
		if got.Time != w.Time || got.Src != w.Src || got.Seq != w.Seq {
			t.Fatalf("pop %d = (%v,%d,%d), want (%v,%d,%d)", i, got.Time, got.Src, got.Seq, w.Time, w.Src, w.Seq)
		}
	}
	if !q.Empty() {
		t.Fatalf("queue not empty after draining")
	}
}

func TestTieBreakOrder(t *testing.T) {
	// Same timestamp: order by (Src, Seq).
	q := New(0)
	q.Push(ev(5, 3, 0))
	q.Push(ev(5, 1, 9))
	q.Push(ev(5, 1, 2))
	q.Push(ev(5, 2, 0))
	srcs := []sim.NodeID{1, 1, 2, 3}
	seqs := []uint64{2, 9, 0, 0}
	for i := range srcs {
		got := q.Pop()
		if got.Src != srcs[i] || got.Seq != seqs[i] {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, got.Src, got.Seq, srcs[i], seqs[i])
		}
	}
}

func TestPopBefore(t *testing.T) {
	q := New(0)
	for i := 0; i < 10; i++ {
		q.Push(ev(sim.Time(i*10), 0, uint64(i)))
	}
	var popped []sim.Time
	for {
		e, ok := q.PopBefore(45)
		if !ok {
			break
		}
		popped = append(popped, e.Time)
	}
	if len(popped) != 5 {
		t.Fatalf("PopBefore(45) returned %d events, want 5", len(popped))
	}
	// Strictness: event exactly at the bound must stay.
	if q.NextTime() != 50 {
		t.Fatalf("NextTime = %v, want 50", q.NextTime())
	}
	if _, ok := q.PopBefore(50); ok {
		t.Fatalf("PopBefore(50) popped the event at exactly 50")
	}
}

func TestPeek(t *testing.T) {
	q := New(0)
	q.Push(ev(7, 1, 1))
	q.Push(ev(3, 2, 2))
	if q.Peek().Time != 3 {
		t.Fatalf("Peek = %v, want 3", q.Peek().Time)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek must not remove")
	}
}

func TestClearAndDrain(t *testing.T) {
	q := New(0)
	for i := 0; i < 5; i++ {
		q.Push(ev(sim.Time(i), 0, uint64(i)))
	}
	got := q.Drain(nil)
	if len(got) != 5 || !q.Empty() {
		t.Fatalf("Drain returned %d events, empty=%v", len(got), q.Empty())
	}
	q.Push(ev(1, 0, 0))
	q.Clear()
	if !q.Empty() {
		t.Fatalf("Clear left events")
	}
}

type testDesc struct{}

func (testDesc) CkptKind() uint16             { return 0 }
func (testDesc) CkptEncode(buf []byte) []byte { return buf }
func slotsHeld(q *Queue) (fns, descs int) {
	for _, s := range q.arena[:cap(q.arena)] {
		if s.fn != nil {
			fns++
		}
		if s.desc != nil {
			descs++
		}
	}
	return fns, descs
}

// TestClearReleasesDescriptors: a cleared or drained queue keeps no closure
// and no descriptor reachable from its arena — the pooled events the model
// layers attach as descriptors must not outlive the events.
func TestClearReleasesDescriptors(t *testing.T) {
	for _, empty := range []func(*Queue){(*Queue).Clear, func(q *Queue) { q.Drain(nil) }} {
		q := New(0)
		for i := 0; i < 9; i++ {
			e := ev(sim.Time(i), 0, uint64(i))
			e.Fn, e.Desc = func(*sim.Ctx) {}, &testDesc{}
			q.Push(e)
		}
		q.Pop()
		empty(q)
		if fns, descs := slotsHeld(q); fns != 0 || descs != 0 {
			t.Fatalf("emptied queue still holds %d closures and %d descriptors", fns, descs)
		}
	}
}

// TestSnapshotSortsInPlace: a snapshot comes out in the total order, and
// the queue — its array now sorted, which is still a heap — goes on popping
// and taking pushes exactly as an untouched twin does.
func TestSnapshotSortsInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q, twin := New(0), New(0)
	for i := 0; i < 1000; i++ {
		e := ev(sim.Time(r.Intn(50)), sim.NodeID(r.Intn(4)), uint64(i))
		q.Push(e)
		twin.Push(e)
	}
	for i := 0; i < 300; i++ {
		q.Pop()
		twin.Pop()
	}
	snap := q.Snapshot(nil)
	if len(snap) != 700 || q.Len() != 700 {
		t.Fatalf("snapshot of %d events, queue left with %d; want 700", len(snap), q.Len())
	}
	for i := 1; i < len(snap); i++ {
		if !snap[i-1].Before(&snap[i]) {
			t.Fatalf("snapshot out of order at %d: %+v then %+v", i, snap[i-1], snap[i])
		}
	}
	for i := 0; q.Len() > 0; i++ {
		if i%3 == 0 {
			e := ev(sim.Time(50+r.Intn(50)), 9, uint64(i))
			q.Push(e)
			twin.Push(e)
		}
		if got, want := q.Pop(), twin.Pop(); got.Time != want.Time || got.Src != want.Src || got.Seq != want.Seq {
			t.Fatalf("pop %d after the snapshot: got %+v, the untouched queue gave %+v", i, got, want)
		}
	}
}

// TestHeapPropertyQuick is a property test: for random insertion orders,
// popping yields the (Time, Src, Seq) sorted order.
func TestHeapPropertyQuick(t *testing.T) {
	f := func(times []uint16, salt uint32) bool {
		if len(times) > 512 {
			times = times[:512]
		}
		r := rand.New(rand.NewSource(int64(salt)))
		q := New(0)
		var evs []sim.Event
		for i, tm := range times {
			e := ev(sim.Time(tm%97), sim.NodeID(r.Intn(7)), uint64(i))
			evs = append(evs, e)
			q.Push(e)
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].Before(&evs[j]) })
		for i := range evs {
			got := q.Pop()
			if got.Time != evs[i].Time || got.Src != evs[i].Src || got.Seq != evs[i].Seq {
				return false
			}
		}
		return q.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedPushPop mixes pushes and pops and checks monotone
// non-decreasing pop order when no earlier events are inserted.
func TestInterleavedPushPop(t *testing.T) {
	q := New(0)
	r := rand.New(rand.NewSource(1))
	last := sim.Time(-1)
	next := sim.Time(0)
	var seq uint64
	for i := 0; i < 10000; i++ {
		if q.Empty() || r.Intn(2) == 0 {
			// Push an event at or after the last popped time.
			at := last
			if at < 0 {
				at = 0
			}
			q.Push(ev(at+sim.Time(r.Intn(50)), 0, seq))
			seq++
		} else {
			e := q.Pop()
			if e.Time < last {
				t.Fatalf("pop went backwards: %v after %v", e.Time, last)
			}
			last = e.Time
		}
		_ = next
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New(1024)
	r := rand.New(rand.NewSource(3))
	times := make([]sim.Time, 1024)
	for i := range times {
		times[i] = sim.Time(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(ev(times[i%1024], 0, uint64(i)))
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
