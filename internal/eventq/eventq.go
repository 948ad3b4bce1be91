// Package eventq implements the future event lists (FELs): priority
// queues of discrete events ordered by the deterministic total order
// (Time, Src, Seq) defined in internal/sim. There are two.
//
// Queue, the FEL of every parallel kernel's LPs, is a 4-ary implicit heap
// over a value slice. A 4-ary heap halves tree height versus a binary heap
// and keeps siblings on one cache line, which matters because FEL
// operations dominate kernel overhead in fine-grained-partition runs (many
// small per-LP queues). It also pops within a window (PopBefore), counts
// one (CountBefore) and takes a round's mail at once (PushBatch).
//
// Mono, the FEL of the sequential kernel, is a monotone radix heap: it
// relies on never being pushed an event earlier than the last one it
// popped, and then costs O(1) amortised per event however deep it is.
//
// Both store only the 24-byte pointer-free comparison key (Time, Src, Seq)
// plus an arena index; the event's payload (Node, Fn, Desc) lives in a
// side arena addressed by that index. Sift and bucket moves therefore copy
// small pointer-free values — no GC write barriers, no closure shuffling —
// which profiles show cuts the per-operation cost of the kernels' hottest
// data structure roughly in half.
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

// slots is the payload arena of a queue and its free list. Both queue
// types order entries and keep the payloads here.
type slots struct {
	arena []slot
	free  []int32 // recycled arena slots
}

// alloc parks (Node, Fn, Desc) in the arena and returns its slot.
func (s *slots) alloc(ev *sim.Event) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.arena[i] = slot{fn: ev.Fn, desc: ev.Desc, node: ev.Node}
		return i
	}
	s.arena = append(s.arena, slot{fn: ev.Fn, desc: ev.Desc, node: ev.Node})
	return int32(len(s.arena) - 1)
}

// event rebuilds the event of e from its key and its payload.
func (s *slots) event(e *entry) sim.Event {
	p := &s.arena[e.idx]
	return sim.Event{Time: e.time, Src: e.src, Seq: e.seq, Node: p.node, Fn: p.fn, Desc: p.desc}
}

// take is event for an entry leaving the queue: it also releases the slot.
func (s *slots) take(e *entry) sim.Event {
	ev := s.event(e)
	p := &s.arena[e.idx]
	p.fn = nil // release the closure for GC
	p.desc = nil
	s.free = append(s.free, e.idx)
	return ev
}

// clear drops every payload without releasing storage.
func (s *slots) clear() {
	clear(s.arena) // release closures and descriptors for GC, as take does
	s.arena = s.arena[:0]
	s.free = s.free[:0]
}

// Queue is a future event list. The zero value is an empty, usable queue.
type Queue struct {
	h []entry
	slots
	top sim.Event // Peek scratch
}

// New returns an empty queue with capacity hint n.
func New(n int) *Queue {
	return &Queue{h: make([]entry, 0, n), slots: slots{arena: make([]slot, 0, n)}}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Empty reports whether the queue has no pending events.
func (q *Queue) Empty() bool { return len(q.h) == 0 }

// Clear removes all events without releasing storage.
func (q *Queue) Clear() {
	q.h = q.h[:0]
	q.slots.clear()
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
	q.top = q.event(&q.h[0])
	return &q.top
}

// Push inserts ev.
func (q *Queue) Push(ev sim.Event) {
	idx := q.alloc(&ev)
	q.h = append(q.h, entry{time: ev.Time, seq: ev.Seq, src: ev.Src, idx: idx})
	up(q.h, len(q.h)-1)
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
		heapify(q.h)
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
		down(q.h, 0)
	}
	return q.take(&top)
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

// up sifts h[i] toward the root of the 4-ary heap h, moving displaced
// parents down into the hole instead of swapping (one copy per level, not
// three).
func up(h []entry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down sifts h[i] toward the leaves with the same hole technique as up.
func down(h []entry, i int) {
	n := len(h)
	e := h[i]
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
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// heapify is Floyd's bottom-up build: sift down every internal node,
// deepest first. The parent of the last element in a 4-ary heap is
// (n-2)/4.
func heapify(h []entry) {
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		down(h, i)
	}
}

// sortEntries sorts h in the deterministic total order.
func sortEntries(h []entry) {
	slices.SortFunc(h, func(a, b entry) int {
		if a.before(&b) {
			return -1
		}
		return 1
	})
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
	sortEntries(q.h)
	for i := range q.h {
		dst = append(dst, q.event(&q.h[i]))
	}
	return dst
}
