package core

import "time"

// This file amortizes the scheduling-estimate timing of phase 1.
//
// MetricPrevTime needs a per-LP, per-round processing-time estimate
// (P̂ᵢ,ᵣ in §4.3), and the original loop bracketed every LP with its own
// time.Now()/time.Since pair — two clock reads per LP per round, which on
// fine-grained partitions (a handful of events per LP per round) costs a
// measurable fraction of the events themselves. The lpClock instead reads
// the clock once per batch of up to timingBatch LPs and distributes the
// elapsed time over the batch in proportion to each LP's executed event
// count. The estimate keeps MetricPrevTime semantics — lastP is still
// nanoseconds of measured phase-1 work attributed to that LP in the round
// just finished — while cutting clock reads by ~timingBatch×.
//
// When a whole batch lands inside the clock's resolution (elapsed == 0),
// the event counts themselves become the estimate: for such tiny LPs the
// scheduler only needs the relative ordering, which event counts preserve
// at a resolution wall time cannot offer.
const timingBatch = 16

// lpClock accumulates one worker's current timing batch. Workers own
// their lpClock exclusively; the LPs noted in a batch were claimed by
// this worker in phase 1, so the flush writes race with nothing.
type lpClock struct {
	lps  [timingBatch]int32
	evs  [timingBatch]int64
	n    int
	mark time.Time
	// longest is the largest elapsed-based share since start (an
	// event-count estimate is no time), kept only when watch is set (a
	// probe is attached): the round's RoundRecord.MaxLPNS.
	longest int64
	watch   bool
}

// start opens a fresh measurement window at the top of phase 1.
func (c *lpClock) start() {
	c.n, c.longest = 0, 0
	c.mark = time.Now() //unison:wallclock-ok measures real per-LP processing cost (the P-hat estimate)
}

// note records that LP lp executed events events; it reports whether the
// batch is full and must be flushed.
func (c *lpClock) note(lp int32, events int64) bool {
	c.lps[c.n] = lp
	c.evs[c.n] = events
	c.n++
	return c.n == timingBatch
}

// flush reads the clock once and distributes the elapsed window over the
// batch, writing each LP's lastP estimate. Callers also flush the partial
// batch at the end of phase 1.
func (c *lpClock) flush(lps []lpState) {
	if c.n == 0 {
		return
	}
	now := time.Now() //unison:wallclock-ok measures real per-LP processing cost (the P-hat estimate)
	elapsed := now.Sub(c.mark).Nanoseconds()
	c.mark = now
	var total int64
	for i := 0; i < c.n; i++ {
		total += c.evs[i]
	}
	for i := 0; i < c.n; i++ {
		if elapsed <= 0 {
			// Below timer resolution: fall back to event counts.
			lps[c.lps[i]].lastP = c.evs[i]
		} else {
			// Every noted LP came off a run list, so total ≥ n.
			p := elapsed * c.evs[i] / total
			lps[c.lps[i]].lastP = p
			if c.watch && p > c.longest {
				c.longest = p
			}
		}
	}
	c.n = 0
}
