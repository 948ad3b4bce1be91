package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/obs"
	"unison/internal/sim"
)

// fuseRules are the three rules the live driver can fuse windows by.
var fuseRules = []struct {
	name string
	rule int
}{{"never", core.FuseNever}, {"always", core.FuseAlways}, {"count", core.FuseByCount}}

// fusedRun runs sm under Unison with threads workers, fusing by rule, with a
// Registry and the round trace attached, and checks the telemetry contract:
// one record per worker per round, fused or not; a round trace as long as
// the run; every worker's records summing to its RunStats entry; and as
// many rounds marked fused as the run reports. It returns the stats and the
// rounds it fused.
func fusedRun(t *testing.T, sm *sparseModel, threads int, metric core.Metric, rule int, want *sim.RunStats) (*sim.RunStats, []uint64, error) {
	t.Helper()
	defer core.SetFuseRule(rule)()
	reg := obs.NewRegistry(1 << 20)
	probe := obs.Tee(reg, &budget{left: 2 * int64(want.Events)})
	st, err := core.New(core.Config{Threads: threads, Metric: metric, RecordRounds: true, Observe: probe}).Run(sm.Model)
	if err != nil {
		return nil, nil, err
	}
	from := uint64(0) // a restored run's first round
	if sm.Ckpt != nil && sm.Ckpt.Restore != nil {
		from = sm.Ckpt.Restore.Round
	}
	perRound := make([]int, st.Rounds-from)
	var fused []uint64
	sums := make([]sim.WorkerStats, threads)
	for _, rec := range reg.Records() {
		if rec.Round < from || rec.Round >= st.Rounds {
			return nil, nil, fmt.Errorf("a record for round %d, the run went from %d to %d", rec.Round, from, st.Rounds)
		}
		if perRound[rec.Round-from]++; rec.Fused && rec.Worker == 0 {
			fused = append(fused, rec.Round)
		}
		s := &sums[rec.Worker]
		s.P, s.S, s.M, s.Events = s.P+rec.ProcNS, s.S+rec.SyncNS, s.M+rec.MsgNS, s.Events+rec.Events
	}
	for r, n := range perRound {
		if n != threads {
			return nil, nil, fmt.Errorf("round %d has %d records, want one per worker (%d)", from+uint64(r), n, threads)
		}
	}
	if uint64(len(st.RoundTrace)) != st.Rounds-from {
		return nil, nil, fmt.Errorf("the round trace has %d samples for rounds %d to %d", len(st.RoundTrace), from, st.Rounds)
	}
	if !slices.Equal(sums, st.Workers) {
		return nil, nil, fmt.Errorf("the records sum to %+v per worker, the run reports %+v", sums, st.Workers)
	}
	if uint64(len(fused)) != st.FusedRounds {
		return nil, nil, fmt.Errorf("%d rounds have fused records, the run reports %d fused", len(fused), st.FusedRounds)
	}
	return st, fused, nil
}

// budget stops a run that has executed more events than are left: one that
// executes events twice would otherwise grow without bound.
type budget struct {
	mu   sync.Mutex
	left int64
}

func (b *budget) BeginRun(obs.RunMeta) {}
func (b *budget) EndRun(*sim.RunStats) {}
func (b *budget) OnRound(rec *obs.RoundRecord) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left -= int64(rec.Events); b.left < 0 {
		panic(fmt.Sprintf("round %d: the run has executed more events than twice the sequential kernel's", rec.Round))
	}
}

// busyModel is genModel(seed) with three bursts of 40 to 100 extra chains
// at random times: windows then hold more events than the count lets a
// worker run alone, and fewer again as the chains die out, so runs switch
// between fused and shared rounds.
func busyModel(seed int64) *sparseModel {
	sm := genModel(seed)
	r := rand.New(rand.NewSource(^seed))
	for burst := 0; burst < 3; burst++ {
		at := sim.Time(r.Intn(200 * 400))
		for i := 40 + r.Intn(60); i > 0; i-- {
			ttl := 5 + r.Intn(30)
			// Setup numbered the model's own initial events 0, 1, …
			sm.Init = append(sm.Init, sim.Event{Time: at + sim.Time(r.Intn(400)), Src: sim.SetupSrc, Seq: uint64(len(sm.Init)),
				Node: sim.NodeID(r.Intn(sm.Nodes)), Fn: sm.chain(ttl), Desc: chainDesc(ttl)})
		}
	}
	return sm
}

// TestFusionInvisible: whether the live driver runs small windows on one
// worker — never, always, or by the count — changes no event, and the
// telemetry contract holds under each rule (fusedRun). Only the count rule
// depends on the models; "always" fuses every round but the first.
func TestFusionInvisible(t *testing.T) {
	mixed := 0
	for seed := int64(1); seed <= 80; seed++ {
		ref := busyModel(seed)
		want, err := des.New().Run(ref.Model)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		threads, metric := 2+r.Intn(3), core.Metric(r.Intn(3))
		for _, fr := range fuseRules {
			sm := busyModel(seed)
			st, fused, err := fusedRun(t, sm, threads, metric, fr.rule, want)
			if err == nil {
				err = sm.log.equals(ref.log, st, want)
			}
			if err == nil && fr.rule == core.FuseNever && len(fused) > 0 ||
				fr.rule == core.FuseAlways && st.Rounds > 0 && st.FusedRounds != st.Rounds-1 {
				err = fmt.Errorf("%d of %d rounds fused", st.FusedRounds, st.Rounds)
			}
			if err != nil {
				t.Fatalf("seed %d, %d nodes, unison(%d), %v, fusing %s: %v", seed, sm.Nodes, threads, metric, fr.name, err)
			}
			if fr.rule == core.FuseByCount && 0 < st.FusedRounds && st.FusedRounds < st.Rounds-1 {
				mixed++
			}
		}
	}
	if mixed < 60 {
		t.Errorf("the count fused some rounds and shared others on %d seeds, want at least 60 of 80", mixed)
	}
}

// TestFusionCheckpoints: snapshots are the same bytes whether windows are
// fused or not; a checkpointing run fuses the rounds a plain run does (a
// save phase hands back, and fusing resumes after it); and a run restored
// from any snapshot fuses the rounds after it that the uninterrupted run
// fused, its first round always shared.
func TestFusionCheckpoints(t *testing.T) {
	const every = 5
	for seed := int64(1); seed <= 6; seed++ {
		ref := busyModel(seed)
		want, err := des.New().Run(ref.Model)
		if err != nil {
			t.Fatal(err)
		}
		var never map[uint64]string
		for _, fr := range fuseRules {
			what := fmt.Sprintf("seed %d, fusing %s", seed, fr.name)
			sm := busyModel(seed)
			plain, plainFused, err := fusedRun(t, sm, 3, core.MetricPrevTime, fr.rule, want)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			snaps, images := map[uint64]*sim.KernelState{}, map[uint64]string{}
			sm = busyModel(seed)
			sm.Ckpt = saveFunc(every, func(ks *sim.KernelState) error {
				cp := *ks
				cp.Seqs, cp.Queue = slices.Clone(ks.Seqs), slices.Clone(ks.Queue)
				snaps[ks.Round], images[ks.Round] = &cp, image(ks)
				return nil
			})
			st, fused, err := fusedRun(t, sm, 3, core.MetricPrevTime, fr.rule, want)
			if err == nil {
				err = sm.log.equals(ref.log, st, want)
			}
			if err != nil {
				t.Fatalf("%s, checkpointing: %v", what, err)
			}
			if !slices.Equal(fused, plainFused) || st.Rounds != plain.Rounds {
				t.Fatalf("%s: checkpointing every %d rounds fused rounds %v of %d, a plain run %v of %d", what, every, fused, st.Rounds, plainFused, plain.Rounds)
			}
			if never == nil {
				never = images
			} else if len(images) != len(never) {
				t.Fatalf("%s: %d snapshots, %d fusing never", what, len(images), len(never))
			}
			for round, img := range images {
				if img != never[round] {
					t.Fatalf("%s: the snapshot of round %d differs from the one taken fusing never", what, round)
				}
				sm.log = newEvLog(sm.Nodes)
				sm.Ckpt = &sim.CkptHook{Restore: snaps[round]}
				rst, after, err := fusedRun(t, sm, 3, core.MetricPrevTime, fr.rule, want)
				if err == nil {
					err = sm.log.endsWith(ref.log)
				}
				var wantAfter []uint64
				for _, r := range fused {
					if r > round {
						wantAfter = append(wantAfter, r)
					}
				}
				if err == nil && (rst.Events != want.Events || rst.Rounds != st.Rounds || !slices.Equal(after, wantAfter)) {
					err = fmt.Errorf("events=%d rounds=%d fused %v; want events=%d rounds=%d fused %v", rst.Events, rst.Rounds, after, want.Events, st.Rounds, wantAfter)
				}
				if err != nil {
					t.Fatalf("%s, restored from round %d: %v", what, round, err)
				}
			}
		}
	}
}

// image renders a snapshot as its bytes would be, field by field.
func image(ks *sim.KernelState) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %d %d %d %v\n", ks.Round, ks.Events, ks.Now, ks.EndTime, ks.Seqs)
	for _, ev := range ks.Queue {
		fmt.Fprintf(&b, "%d %d %d %d\n", ev.Time, ev.Src, ev.Seq, ev.Node)
	}
	return b.String()
}
