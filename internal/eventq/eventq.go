// Package eventq implements the future event list (FEL): a priority queue
// of discrete events ordered by the deterministic total order
// (Time, Src, Seq) defined in internal/sim.
//
// The implementation is a 4-ary implicit heap over a value slice. A 4-ary
// heap halves tree height versus a binary heap and keeps siblings on one
// cache line, which matters because FEL operations dominate kernel
// overhead in fine-grained-partition runs (many small per-LP queues).
//
// The heap stores only the 24-byte pointer-free comparison key
// (Time, Src, Seq) plus an arena index; the event's payload (Node, Fn)
// lives in a side arena addressed by that index. Sift operations
// therefore move small pointer-free values — no GC write barriers, no
// closure shuffling — which profiles show cuts the per-operation cost of
// the kernels' hottest data structure roughly in half.
package eventq

import (
	"slices"

	"unison/internal/sim"
)

// entry is one heap node: the deterministic comparison key and the arena
// slot of the event's payload. Pointer-free by construction.
type entry struct {
	time sim.Time
	seq  uint64
	src  sim.NodeID
	idx  int32
}

// before is (Time, Src, Seq) lexicographic order, mirroring sim.Event.Before.
func (e *entry) before(o *entry) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.src != o.src {
		return e.src < o.src
	}
	return e.seq < o.seq
}

// slot holds the payload of one pending event.
type slot struct {
	fn   sim.Proc
	desc sim.EvDesc
	node sim.NodeID
}

// Queue is a future event list. The zero value is an empty, usable queue.
type Queue struct {
	h     []entry
	arena []slot
	free  []int32   // recycled arena slots
	top   sim.Event // Peek scratch
}

// New returns an empty queue with capacity hint n.
func New(n int) *Queue {
	return &Queue{h: make([]entry, 0, n), arena: make([]slot, 0, n)}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Empty reports whether the queue has no pending events.
func (q *Queue) Empty() bool { return len(q.h) == 0 }

// Clear removes all events without releasing storage.
func (q *Queue) Clear() {
	q.h = q.h[:0]
	clear(q.arena) // release closures and descriptors for GC, as Pop does
	q.arena = q.arena[:0]
	q.free = q.free[:0]
}

// NextTime returns the timestamp of the earliest event, or sim.MaxTime if
// the queue is empty. Kernels use this for LBTS computation.
func (q *Queue) NextTime() sim.Time {
	if len(q.h) == 0 {
		return sim.MaxTime
	}
	return q.h[0].time
}

// Peek returns the earliest event without removing it, or nil if the
// queue is empty. The pointed-to value is overwritten by the next Peek
// and invalidated by any mutation of the queue.
func (q *Queue) Peek() *sim.Event {
	if len(q.h) == 0 {
		return nil
	}
	e := &q.h[0]
	s := &q.arena[e.idx]
	q.top = sim.Event{Time: e.time, Src: e.src, Seq: e.seq, Node: s.node, Fn: s.fn, Desc: s.desc}
	return &q.top
}

// alloc parks (Node, Fn) in the arena and returns its slot.
func (q *Queue) alloc(ev *sim.Event) int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		q.arena[i] = slot{fn: ev.Fn, desc: ev.Desc, node: ev.Node}
		return i
	}
	q.arena = append(q.arena, slot{fn: ev.Fn, desc: ev.Desc, node: ev.Node})
	return int32(len(q.arena) - 1)
}

// Push inserts ev.
func (q *Queue) Push(ev sim.Event) {
	idx := q.alloc(&ev)
	q.h = append(q.h, entry{time: ev.Time, seq: ev.Seq, src: ev.Src, idx: idx})
	q.up(len(q.h) - 1)
}

// PushBatch inserts every event of evs. When the batch is at least a
// quarter of the resulting heap, the whole key slice is rebuilt with
// Floyd's bottom-up heapify — O(n+m) instead of O(m log(n+m)) sift-ups —
// which is the common case for the phase-3 mailbox drain of the parallel
// kernels (small per-LP heaps receiving a round's worth of cross-LP
// events at once). Smaller batches fall back to individual inserts.
// Because (Time, Src, Seq) is a total order with no duplicate keys, the
// dequeue sequence is identical to a Push loop either way.
func (q *Queue) PushBatch(evs []sim.Event) {
	if len(evs) == 0 {
		return
	}
	if 4*len(evs) >= len(q.h)+len(evs) {
		for i := range evs {
			ev := &evs[i]
			idx := q.alloc(ev)
			q.h = append(q.h, entry{time: ev.Time, seq: ev.Seq, src: ev.Src, idx: idx})
		}
		// Floyd: sift down every internal node, deepest first. The parent
		// of the last element in a 4-ary heap is (n-2)/4.
		for i := (len(q.h) - 2) / 4; i >= 0; i-- {
			q.down(i)
		}
		return
	}
	for _, ev := range evs {
		q.Push(ev)
	}
}

// Pop removes and returns the earliest event. It panics on an empty queue.
func (q *Queue) Pop() sim.Event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	s := &q.arena[top.idx]
	ev := sim.Event{Time: top.time, Src: top.src, Seq: top.seq, Node: s.node, Fn: s.fn, Desc: s.desc}
	s.fn = nil // release the closure for GC
	s.desc = nil
	q.free = append(q.free, top.idx)
	return ev
}

// PopBefore removes and returns the earliest event if its timestamp is
// strictly less than bound; ok reports whether an event was returned.
// This is the hot-path operation of every conservative PDES kernel:
// "execute all events within the LBTS window".
func (q *Queue) PopBefore(bound sim.Time) (ev sim.Event, ok bool) {
	if len(q.h) == 0 || q.h[0].time >= bound {
		return sim.Event{}, false
	}
	return q.Pop(), true
}

// CountBefore returns how many pending events are earlier than bound, or
// limit if at least limit are. Every ancestor of such an event is earlier
// too, so the walk descends only below them and stops at limit: at most
// about 4 × limit compares, however deep the queue.
func (q *Queue) CountBefore(bound sim.Time, limit int) int {
	if limit <= 0 || len(q.h) == 0 || q.h[0].time >= bound {
		return 0
	}
	return q.countBelow(0, bound, limit)
}

// countBelow is CountBefore for the subtree under i, whose root is earlier
// than bound: 1 for the root, and the earlier of its children's subtrees.
func (q *Queue) countBelow(i int, bound sim.Time, limit int) int {
	n := 1
	for c, end := 4*i+1, min(4*i+5, len(q.h)); c < end && n < limit; c++ {
		if q.h[c].time < bound {
			n += q.countBelow(c, bound, limit-n)
		}
	}
	return n
}

// up sifts the element at i toward the root, moving displaced parents
// down into the hole instead of swapping (one copy per level, not three).
func (q *Queue) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		i = p
	}
	q.h[i] = e
}

// down sifts the element at i toward the leaves with the same hole
// technique as up.
func (q *Queue) down(i int) {
	n := len(q.h)
	e := q.h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.h[c].before(&q.h[min]) {
				min = c
			}
		}
		if !q.h[min].before(&e) {
			break
		}
		q.h[i] = q.h[min]
		i = min
	}
	q.h[i] = e
}

// Drain appends all events to dst as Snapshot does and clears the queue.
func (q *Queue) Drain(dst []sim.Event) []sim.Event {
	dst = q.Snapshot(dst)
	q.Clear()
	return dst
}

// Snapshot appends all pending events to dst in the deterministic total
// order, which is how checkpointing reads a quiescent FEL. The queue keeps
// its events but not their layout: the heap's array is sorted where it
// stands — a sorted array is a heap, and pops the same sequence — so the
// sort needs no scratch and moves 24-byte keys, not events.
func (q *Queue) Snapshot(dst []sim.Event) []sim.Event {
	slices.SortFunc(q.h, func(a, b entry) int {
		if a.before(&b) {
			return -1
		}
		return 1
	})
	for i := range q.h {
		e := &q.h[i]
		s := &q.arena[e.idx]
		dst = append(dst, sim.Event{Time: e.time, Src: e.src, Seq: e.seq, Node: s.node, Fn: s.fn, Desc: s.desc})
	}
	return dst
}
