package eventq

import (
	"fmt"
	"math/bits"

	"unison/internal/sim"
)

// Mono is a monotone future event list: a radix heap for a queue that is
// never pushed an event earlier than the last one it popped. The
// sequential kernel's FEL is such a queue, because the model cannot
// schedule into the past. It pops the same (Time, Src, Seq) order as
// Queue.
//
// Bucket i > 0 holds, unordered, the events whose timestamp first differs
// from last, the last popped time, at bit i-1; a push is an append.
// Push refuses a time before last, which starts at 0, so timestamps are
// non-negative: bit 63 never differs and 64 buckets suffice.
// Bucket 0 holds the events at last itself, as a 4-ary heap on (Src, Seq).
// When bucket 0 runs dry, Pop takes the first non-empty bucket, makes its
// earliest timestamp the new last and spreads the bucket over lower ones.
// Every event moves down at most 63 times over its life, so an event
// costs O(1) amortised plus its share of the tie heap, where Queue pays a
// sift through the whole depth on every pop.
//
// The zero value is an empty, usable queue.
type Mono struct {
	last sim.Time
	n    int
	full uint64 // bit i is set when bucket i > 0 is non-empty
	b    [64][]entry
	slots
}

// Len returns the number of pending events.
func (q *Mono) Len() int { return q.n }

// Empty reports whether the queue has no pending events.
func (q *Mono) Empty() bool { return q.n == 0 }

// Push inserts ev. It panics if ev is earlier than the last popped event.
func (q *Mono) Push(ev sim.Event) {
	if ev.Time < q.last {
		panic(fmt.Sprintf("eventq: push at %v after a pop at %v", ev.Time, q.last))
	}
	e := entry{time: ev.Time, seq: ev.Seq, src: ev.Src, idx: q.alloc(&ev)}
	i := bits.Len64(uint64(ev.Time ^ q.last))
	q.b[i] = append(q.b[i], e)
	if i == 0 {
		up(q.b[0], len(q.b[0])-1)
	} else {
		q.full |= 1 << uint(i)
	}
	q.n++
}

// PushBatch inserts every event of evs, as a Push loop would.
func (q *Mono) PushBatch(evs []sim.Event) {
	for _, ev := range evs {
		q.Push(ev)
	}
}

// Pop removes and returns the earliest event. It panics on an empty queue.
func (q *Mono) Pop() sim.Event {
	if len(q.b[0]) == 0 {
		q.refill()
	}
	h := q.b[0]
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.b[0] = h[:n]
	if n > 0 {
		down(q.b[0], 0)
	}
	q.n--
	return q.take(&top)
}

// refill moves last up to the earliest pending timestamp. The events of
// the first non-empty bucket agree with last above their bucket's bit, and
// so with their own minimum, so each lands in a lower bucket; the ones at
// the minimum fill bucket 0, which is heapified once.
func (q *Mono) refill() {
	i := bits.TrailingZeros64(q.full)
	bk := q.b[i]
	m := minTime(bk)
	q.last = m
	for _, e := range bk {
		j := bits.Len64(uint64(e.time ^ m))
		q.b[j] = append(q.b[j], e)
		q.full |= 1 << uint(j)
	}
	q.b[i] = bk[:0]
	q.full &^= 1<<uint(i) | 1 // bucket 0 is not tracked
	if len(q.b[0]) > 1 {
		heapify(q.b[0])
	}
}

// NextTime returns the timestamp of the earliest event, or sim.MaxTime if
// the queue is empty. It does not change the queue: when bucket 0 is
// empty it scans the first non-empty bucket.
func (q *Mono) NextTime() sim.Time {
	if len(q.b[0]) > 0 {
		return q.last
	}
	if q.full == 0 {
		return sim.MaxTime
	}
	return minTime(q.b[bits.TrailingZeros64(q.full)])
}

// minTime returns the earliest timestamp in the non-empty bucket bk.
func minTime(bk []entry) sim.Time {
	m := bk[0].time
	for j := 1; j < len(bk); j++ {
		m = min(m, bk[j].time)
	}
	return m
}

// Snapshot appends all pending events to dst in the deterministic total
// order, which is how checkpointing reads a quiescent FEL. The queue is
// left as it was.
func (q *Mono) Snapshot(dst []sim.Event) []sim.Event {
	keys := make([]entry, 0, q.n)
	for _, bk := range q.b {
		keys = append(keys, bk...)
	}
	sortEntries(keys)
	for i := range keys {
		dst = append(dst, q.event(&keys[i]))
	}
	return dst
}
