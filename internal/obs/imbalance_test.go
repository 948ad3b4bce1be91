package obs

import (
	"math"
	"reflect"
	"testing"

	"unison/internal/sim"
)

func feedRound(t *ImbalanceTracker, round uint64, procNS ...int64) {
	for w, p := range procNS {
		t.OnRound(&RoundRecord{Round: round, Worker: int32(w), ProcNS: p})
	}
}

func TestImbalanceSummary(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 2})

	// Round 0: perfectly balanced (ratio 1.0). Round 1: worker 1 takes
	// 3x of 4 total over 2 workers → ratio = 3*2/4 = 1.5.
	feedRound(tr, 0, 10, 10)
	feedRound(tr, 1, 1, 3)

	im := tr.Summary()
	if im == nil {
		t.Fatal("no summary despite covered rounds")
	}
	if im.Rounds != 2 {
		t.Fatalf("covered rounds = %d, want 2", im.Rounds)
	}
	if want := (1.0 + 1.5) / 2; math.Abs(im.MeanMaxOverMean-want) > 1e-9 {
		t.Fatalf("mean ratio = %g, want %g", im.MeanMaxOverMean, want)
	}
	if im.WorstMaxOverMean != 1.5 || im.WorstRound != 1 || im.WorstWorker != 1 {
		t.Fatalf("worst = %.2f @ round %d worker %d", im.WorstMaxOverMean, im.WorstRound, im.WorstWorker)
	}
	// Straggler: worker 0 won round 0 (a ProcNS tie goes to the lower
	// worker id), worker 1 won round 1 — 1 each; lower id wins the tie.
	if im.StragglerWorker != 0 || im.StragglerShare != 0.5 {
		t.Fatalf("straggler = w%d share %.2f", im.StragglerWorker, im.StragglerShare)
	}
}

func TestImbalancePartialCoverageExcluded(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 3})
	// Only two of three workers report round 0: never covered.
	tr.OnRound(&RoundRecord{Round: 0, Worker: 0, ProcNS: 5})
	tr.OnRound(&RoundRecord{Round: 0, Worker: 1, ProcNS: 5})
	if tr.Summary() != nil {
		t.Fatal("summary should be nil without a fully-covered round")
	}
}

func TestImbalanceApply(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 2})
	feedRound(tr, 0, 1, 9)
	feedRound(tr, 1, 2, 8)

	st := &sim.RunStats{Workers: make([]sim.WorkerStats, 2)}
	tr.Apply(st)
	if st.Imbalance == nil || st.Imbalance.Rounds != 2 {
		t.Fatalf("imbalance = %+v", st.Imbalance)
	}
	if st.Workers[0].StragglerRounds != 0 || st.Workers[1].StragglerRounds != 2 {
		t.Fatalf("straggler rounds = %d/%d, want 0/2",
			st.Workers[0].StragglerRounds, st.Workers[1].StragglerRounds)
	}

	// A nil tracker stamps nothing.
	st2 := &sim.RunStats{}
	(*ImbalanceTracker)(nil).Apply(st2)
	if st2.Imbalance != nil {
		t.Fatalf("nil-tracker apply: %+v", st2)
	}
}

func TestImbalanceBeginRunResets(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 2})
	feedRound(tr, 0, 1, 99)
	tr.BeginRun(RunMeta{Workers: 2})
	if tr.Summary() != nil {
		t.Fatal("summary should reset on BeginRun")
	}
	feedRound(tr, 0, 5, 5)
	if im := tr.Summary(); im == nil || im.Rounds != 1 || im.WorstMaxOverMean != 1 {
		t.Fatalf("post-reset summary = %+v", im)
	}
}

func TestImbalancePendingEviction(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 2})
	// Fill pending with maxPendingRounds half-covered rounds, then one
	// more: the tracker must evict rather than grow without bound.
	for r := uint64(0); r < maxPendingRounds+10; r++ {
		tr.OnRound(&RoundRecord{Round: r, Worker: 0, ProcNS: 1})
	}
	tr.mu.Lock()
	pending := len(tr.pending)
	tr.mu.Unlock()
	if pending > maxPendingRounds {
		t.Fatalf("pending rounds = %d, want <= %d", pending, maxPendingRounds)
	}
}

// TestImbalanceIgnoresRecordOrder folds one set of rounds in two orders,
// each round's records reversed and the rounds themselves reversed, and
// gets the same diagnostics: ProcNS ties go to the lowest worker, an
// equal worst ratio keeps the lowest round, and the ratio sum is exact.
func TestImbalanceIgnoresRecordOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds [][]int64 // rounds[r][w] is worker w's ProcNS in round r
	}{
		{"ties within rounds", [][]int64{{5, 5, 5}, {2, 7, 7}, {7, 7, 2}}},
		{"equal worst ratios", [][]int64{{1, 3, 2}, {3, 1, 2}, {2, 2, 2}, {2, 1, 3}}},
		{"inexact ratios", [][]int64{{3, 7, 11}, {13, 1, 5}, {17, 19, 2}, {1, 1, 9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fold := func(reverse bool) (*sim.Imbalance, []uint64) {
				tr := NewImbalanceTracker()
				tr.BeginRun(RunMeta{Workers: 3})
				n := len(tc.rounds)
				for i := range n {
					r := i
					if reverse {
						r = n - 1 - i
					}
					for j := range 3 {
						w := j
						if reverse {
							w = 2 - j
						}
						tr.OnRound(&RoundRecord{Round: uint64(r), Worker: int32(w), ProcNS: tc.rounds[r][w]})
					}
				}
				return tr.Summary(), tr.StragglerRounds(3)
			}
			a, as := fold(false)
			b, bs := fold(true)
			if a == nil || !reflect.DeepEqual(a, b) || !reflect.DeepEqual(as, bs) {
				t.Fatalf("in order: %+v %v\nreversed: %+v %v", a, as, b, bs)
			}
		})
	}
}

// TestImbalanceSkipsSnapshotRecords: a checkpoint hook's record, filed
// under worker 0 with no round time, neither covers nor splits a round.
func TestImbalanceSkipsSnapshotRecords(t *testing.T) {
	tr := NewImbalanceTracker()
	tr.BeginRun(RunMeta{Workers: 2})
	tr.OnRound(&RoundRecord{Round: 0, Worker: 0, CkptNS: 50, CkptBytes: 9})
	feedRound(tr, 0, 1, 3)
	if im := tr.Summary(); im == nil || im.Rounds != 1 || im.WorstMaxOverMean != 1.5 {
		t.Fatalf("summary = %+v, want one round at 1.5", im)
	}
}
