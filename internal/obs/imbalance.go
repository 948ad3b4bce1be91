package obs

import (
	"math"
	"math/bits"
	"sync"

	"unison/internal/sim"
)

// maxPendingRounds bounds the tracker's working set of partially-reported
// rounds. Workers emit records for the same round within one barrier of
// each other, so in practice a handful of rounds are in flight; the bound
// only matters for kernels whose "rounds" are local iterations (null
// message, dist hosts), where full coverage may never happen and stale
// rounds must be evicted.
const maxPendingRounds = 1024

// roundAgg accumulates one round's per-worker processing times until
// every worker has reported.
type roundAgg struct {
	seen       int
	sumP       int64
	maxP       int64
	maxWorker  int32
	migrations uint64
}

// ImbalanceTracker is a Probe computing the per-round load-imbalance
// diagnostics the load-adaptive scheduler (and ROADMAP item 3's LP
// migration) consume: for every round where all workers reported, the
// ratio max(P)/mean(P), the worker on the critical path, and migration
// counts. It composes with other probes via Tee.
//
// The result does not depend on the order records arrive in: a round's
// ProcNS tie goes to the lowest worker id, an equal worst ratio keeps the
// lowest round, and the ratios are summed exactly in fixed point. Two
// trackers fed the same records in different interleavings (the CLI's and
// a watcher folding the record stream) agree field for field.
//
// Like every probe it only observes; Apply stamps the result into a
// RunStats after the run so the diagnostics land in run_stats.json
// without kernels knowing the tracker exists.
type ImbalanceTracker struct {
	mu      sync.Mutex
	workers int
	pending map[uint64]*roundAgg

	covered        uint64    // rounds with full worker coverage and sumP > 0
	sumRatio       [2]uint64 // hi, lo: sum over covered rounds of maxP*workers/sumP, in units of 1/ratioUnit
	worst          float64
	worstRnd       uint64
	worstWkr       int32
	stragglerCount map[int32]uint64 // worker -> rounds it was the max
	migrations     uint64
}

// NewImbalanceTracker returns an empty tracker; BeginRun resets it, so
// one tracker can observe a sequence of runs (keeping the last).
func NewImbalanceTracker() *ImbalanceTracker {
	return &ImbalanceTracker{}
}

// BeginRun implements Probe.
func (t *ImbalanceTracker) BeginRun(meta RunMeta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workers = meta.Workers
	if t.workers < 1 {
		t.workers = 1
	}
	t.pending = make(map[uint64]*roundAgg)
	t.covered = 0
	t.sumRatio = [2]uint64{}
	t.worst = 0
	t.worstRnd = 0
	t.worstWkr = 0
	t.stragglerCount = make(map[int32]uint64)
	t.migrations = 0
}

// ratioUnit is the fixed-point scale of the ratio sum: each round's ratio
// is rounded to a multiple of 1/ratioUnit before it is added, so the sum
// is exact and the same in any order.
const ratioUnit = 1 << 32

// OnRound implements Probe. A fused round, run by one worker alone, has
// no balance to measure and is skipped; so is a snapshot's record (a
// checkpoint hook's, with CkptNS set and no round time), which is no
// round at all.
func (t *ImbalanceTracker) OnRound(rec *RoundRecord) {
	if rec.Fused || rec.CkptNS > 0 && rec.ProcNS == 0 && rec.SyncNS == 0 && rec.MsgNS == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == nil {
		// OnRound without BeginRun (defensive): treat as single-worker.
		t.workers = 1
		t.pending = make(map[uint64]*roundAgg)
		t.stragglerCount = make(map[int32]uint64)
	}
	agg := t.pending[rec.Round]
	if agg == nil {
		if len(t.pending) >= maxPendingRounds {
			// Evict the oldest pending round; its coverage never
			// completed, so it contributes nothing.
			var oldest uint64
			first := true
			for r := range t.pending { //unison:ordered guarded min is order-free
				if first || r < oldest {
					oldest, first = r, false
				}
			}
			delete(t.pending, oldest)
		}
		agg = &roundAgg{maxWorker: -1}
		t.pending[rec.Round] = agg
	}
	agg.seen++
	agg.sumP += rec.ProcNS
	agg.migrations += rec.Migrations
	if rec.ProcNS > agg.maxP || agg.maxWorker < 0 || rec.ProcNS == agg.maxP && rec.Worker < agg.maxWorker {
		agg.maxP = rec.ProcNS
		agg.maxWorker = rec.Worker
	}
	if agg.seen >= t.workers {
		delete(t.pending, rec.Round)
		if agg.sumP > 0 {
			ratio := float64(agg.maxP) * float64(t.workers) / float64(agg.sumP)
			t.covered++
			var carry uint64
			t.sumRatio[1], carry = bits.Add64(t.sumRatio[1], uint64(math.Round(ratio*ratioUnit)), 0)
			t.sumRatio[0] += carry
			t.stragglerCount[agg.maxWorker]++
			t.migrations += agg.migrations
			if ratio > t.worst || ratio == t.worst && rec.Round < t.worstRnd {
				t.worst = ratio
				t.worstRnd = rec.Round
				t.worstWkr = agg.maxWorker
			}
		}
	}
}

// EndRun implements Probe (no-op: results are pulled via Summary/Apply).
func (t *ImbalanceTracker) EndRun(st *sim.RunStats) {}

// Summary returns the diagnostics accumulated so far, or nil when no
// round reached full coverage. Safe to call while a run is in flight.
func (t *ImbalanceTracker) Summary() *sim.Imbalance {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.summaryLocked()
}

func (t *ImbalanceTracker) summaryLocked() *sim.Imbalance {
	if t.covered == 0 {
		return nil
	}
	im := &sim.Imbalance{
		Rounds:           t.covered,
		MeanMaxOverMean:  (float64(t.sumRatio[0])*0x1p64 + float64(t.sumRatio[1])) / ratioUnit / float64(t.covered),
		WorstMaxOverMean: t.worst,
		WorstRound:       t.worstRnd,
		WorstWorker:      t.worstWkr,
		Migrations:       t.migrations,
	}
	var bestN uint64
	best := int32(-1)
	for w, n := range t.stragglerCount { //unison:ordered lowest-id tie-break is order-free
		if n > bestN || (n == bestN && (best < 0 || w < best)) {
			best, bestN = w, n
		}
	}
	im.StragglerWorker = best
	im.StragglerShare = float64(bestN) / float64(t.covered)
	return im
}

// StragglerRounds returns, per worker index, how many covered rounds that
// worker was on the critical path. Indexes beyond the reported workers
// are zero.
func (t *ImbalanceTracker) StragglerRounds(workers int) []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, workers)
	for w, n := range t.stragglerCount {
		if int(w) >= 0 && int(w) < workers {
			out[w] = n
		}
	}
	return out
}

// Apply stamps the tracker's diagnostics into st: RunStats.Imbalance and
// per-worker WorkerStats.StragglerRounds. Call after the run ends and
// before the stats are serialized. A nil tracker or st is a no-op.
func (t *ImbalanceTracker) Apply(st *sim.RunStats) {
	if t == nil || st == nil {
		return
	}
	t.mu.Lock()
	st.Imbalance = t.summaryLocked()
	for i := range st.Workers {
		st.Workers[i].StragglerRounds = t.stragglerCount[int32(i)]
	}
	t.mu.Unlock()
}
