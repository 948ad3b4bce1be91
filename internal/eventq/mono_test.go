package eventq

import (
	"fmt"
	"math/rand"
	"testing"

	"unison/internal/sim"
)

// sameKeys fails unless a and b hold the same (Time, Src, Seq) keys in
// the same order.
func sameKeys(t *testing.T, what string, a, b []sim.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d events, want %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || a[i].Src != b[i].Src || a[i].Seq != b[i].Seq {
			t.Fatalf("%s: event %d is (%v,%d,%d), want (%v,%d,%d)",
				what, i, a[i].Time, a[i].Src, a[i].Seq, b[i].Time, b[i].Src, b[i].Seq)
		}
	}
}

// FuzzMono drives Mono and the heap Queue through the same interleaving of
// pushes, batch loads, pops and snapshots decoded from the fuzz input.
// Every push is at or after the last pop, as the sequential kernel's are.
// The two must agree on every popped key, every Snapshot, NextTime and
// Len. The decoder yields heavy timestamp ties, zero-delay pushes at the
// last popped time, timers more than 2³² ns ahead and batch loads mid-run.
// CI runs it with -fuzz=FuzzMono -fuzztime=10s beside FuzzPushBatch.
func FuzzMono(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 2, 1, 0, 0, 0, 0, 0, 0})           // ties, then pops
	f.Add([]byte{3, 20, 5, 5, 5, 5, 5, 0, 0, 3, 9, 1, 2, 4, 0, 4}) // batch loads mid-run
	f.Add([]byte{2, 7, 3, 1, 1, 0, 0, 1, 0, 0, 2, 255, 23, 0, 0})  // far timers
	f.Add([]byte{5, 200, 9, 1, 5, 3, 30, 0, 5, 9, 17, 0, 4, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Mono
		q := New(0)
		var last sim.Time
		var seq uint64
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// at draws a timestamp at or after last, of the kind op asks for.
		at := func(op byte) sim.Time {
			switch op {
			case 1: // a tie, or a zero-delay push at last
				return last + sim.Time(next()%3)
			case 2: // a timer more than 2^32 ns ahead
				return last + 1<<32 + sim.Time(next())<<(next()%24)
			default: // anywhere in the next 2^(b%40) ns
				return last + sim.Time(next())<<(next()%40)
			}
		}
		event := func(op byte) sim.Event {
			seq++
			return ev(at(op), sim.NodeID(next()%4), seq)
		}

		for len(data) > 0 {
			switch op := next() % 6; op {
			case 0: // Pop
				if q.Empty() {
					if !m.Empty() {
						t.Fatalf("Mono holds %d events, Queue none", m.Len())
					}
					continue
				}
				got, want := m.Pop(), q.Pop()
				sameKeys(t, "pop", []sim.Event{got}, []sim.Event{want})
				last = got.Time
			case 1, 2, 5: // Push
				e := event(op)
				m.Push(e)
				q.Push(e)
			case 3: // batch load
				batch := make([]sim.Event, next()%40)
				kind := next() % 3
				for i := range batch {
					batch[i] = event(kind)
				}
				m.PushBatch(batch)
				q.PushBatch(batch)
			case 4: // Snapshot
				sameKeys(t, "snapshot", m.Snapshot(nil), q.Snapshot(nil))
			}
			if m.Len() != q.Len() || m.NextTime() != q.NextTime() {
				t.Fatalf("Mono Len %d NextTime %v, Queue Len %d NextTime %v",
					m.Len(), m.NextTime(), q.Len(), q.NextTime())
			}
		}
		for !q.Empty() {
			sameKeys(t, "drain", []sim.Event{m.Pop()}, []sim.Event{q.Pop()})
		}
		if !m.Empty() {
			t.Fatalf("Queue drained, Mono still holds %d events", m.Len())
		}
	})
}

func TestMonoEmpty(t *testing.T) {
	var m Mono
	if !m.Empty() || m.Len() != 0 || m.NextTime() != sim.MaxTime {
		t.Fatalf("zero Mono: Empty %v Len %d NextTime %v", m.Empty(), m.Len(), m.NextTime())
	}
}

func TestMonoPushIntoThePastPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		at     sim.Time
		panics bool
	}{
		{"before last", 99, true},
		{"far before last", 0, true},
		{"at last", 100, false},
		{"after last", 101, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var m Mono
			m.Push(ev(100, 0, 1))
			m.Push(ev(200, 0, 2))
			m.Pop()
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Fatalf("push at %v after a pop at 100: panic %v, want panic %v", c.at, r, c.panics)
				}
			}()
			m.Push(ev(c.at, 1, 3))
		})
	}
}

// TestMonoSnapshotThenPops: a Snapshot leaves the queue as it was, so the
// pops after it are the snapshot's order.
func TestMonoSnapshotThenPops(t *testing.T) {
	var m Mono
	for i, at := range []sim.Time{50, 10, 30, 10, 1 << 40, 40, 30, 60, 10, 70} {
		m.Push(ev(at, sim.NodeID(i%3), uint64(i)))
	}
	for range 3 { // leave bucket 0 part-drained and the rest spread out
		m.Pop()
	}
	m.Push(ev(30, 2, 10))
	m.Push(ev(10, 0, 11)) // zero delay: at the last popped time
	snap := m.Snapshot(nil)
	for i := 1; i < len(snap); i++ {
		if !snap[i-1].Before(&snap[i]) {
			t.Fatalf("snapshot out of order at %d: %v then %v", i, snap[i-1], snap[i])
		}
	}
	var popped []sim.Event
	for !m.Empty() {
		popped = append(popped, m.Pop())
	}
	sameKeys(t, "pops after snapshot", popped, snap)
}

// TestMonoSteadyStateAllocs is the exact gate on the FEL of the sequential
// kernel: once its buckets and arena have grown, a Push and a Pop allocate
// nothing.
func TestMonoSteadyStateAllocs(t *testing.T) {
	var m Mono
	r := rand.New(rand.NewSource(1))
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(r.Intn(1 << 20))
	}
	var seq uint64
	hold := func() {
		e := m.Pop()
		seq++
		m.Push(ev(e.Time+delays[seq%1024], 0, seq))
	}
	for range 4096 {
		seq++
		m.Push(ev(delays[seq%1024], 0, seq))
	}
	for range 1 << 16 {
		hold()
	}
	if n := testing.AllocsPerRun(10000, hold); n != 0 {
		t.Fatalf("steady-state Push+Pop allocates %v times, want 0", n)
	}
}

// BenchmarkHold is the classic hold model: pop the earliest event and push
// one a random delay after it, at a fixed depth, on both queue types.
func BenchmarkHold(b *testing.B) {
	type fel interface {
		Push(sim.Event)
		Pop() sim.Event
	}
	r := rand.New(rand.NewSource(3))
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(r.Intn(1 << 20))
	}
	for _, depth := range []int{16, 1 << 10, 1 << 16} {
		for _, c := range []struct {
			name string
			new  func() fel
		}{
			{"queue", func() fel { return New(depth) }},
			{"mono", func() fel { return &Mono{} }},
		} {
			b.Run(fmt.Sprintf("%s/d%d", c.name, depth), func(b *testing.B) {
				q := c.new()
				for i := range depth {
					q.Push(ev(delays[i%1024], 0, uint64(i)))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e := q.Pop()
					q.Push(ev(e.Time+delays[i%1024], 0, uint64(depth+i)))
				}
			})
		}
	}
}
