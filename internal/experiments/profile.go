package experiments

import (
	"unison/internal/sim"
	"unison/internal/vtime"
)

func init() {
	register("fig5a", fig5a)
	register("fig5b", fig5b)
	register("fig5c", fig5c)
	register("fig5d", fig5d)
	register("fig9a", fig9a)
	register("fig9b", fig9b)
}

// profileBW is the paper's 100 Gbps link speed for the §3.2 profiling
// experiments; the event density per synchronization window matters for
// the S/T ratios, so it is not scaled down.
const profileBW = int64(100_000_000_000)

// profileFatTree returns the k-ary fat-tree spec used by the §3.2
// profiling experiments (k=8, 100G, 3 µs; only duration is scaled).
func profileFatTree(cfg Config, incast float64) (*scenarioSpec, int) {
	k := 8
	stop := 500 * sim.Microsecond
	if cfg.Quick {
		stop = 150 * sim.Microsecond
	}
	return fatTreeSpec(cfg.Seed, k, profileBW, 3*sim.Microsecond, stop, incast), k
}

// psm returns the P/S ratios of a run.
func psm(st *sim.RunStats) (p, s, m float64) {
	tot := float64(st.TotalP() + st.TotalS() + st.TotalM())
	if tot == 0 {
		return 0, 0, 0
	}
	return float64(st.TotalP()) / tot, float64(st.TotalS()) / tot, float64(st.TotalM()) / tot
}

// fig5a — P and S of the barrier and null-message baselines as the incast
// traffic ratio grows (Observation 1: S dominates under skew).
func fig5a(cfg Config) (*Table, error) {
	ratios := []float64{0, 0.25, 0.5, 0.75, 1}
	if cfg.Quick {
		ratios = []float64{0, 0.5, 1}
	}
	t := &Table{
		ID:      "fig5a",
		Title:   "P/S decomposition vs incast ratio, barrier (B) and null message (N)",
		Columns: []string{"incast", "T_B(s)", "P_B/T", "S_B/T", "T_N(s)", "P_N/T", "S_N/T"},
	}
	for _, ratio := range ratios {
		spec, k := profileFatTree(cfg, ratio)
		manual := manualFatTree(k, k, profileBW, 3*sim.Microsecond)
		bar, _, err := vrun(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
		if err != nil {
			return nil, err
		}
		nm, _, err := vrun(spec, vtime.Config{Algo: vtime.NullMessage, LPOf: manual})
		if err != nil {
			return nil, err
		}
		pb, sb, _ := psm(bar)
		pn, sn, _ := psm(nm)
		t.AddRow(ratio, secondsV(bar), pb, sb, secondsV(nm), pn, sn)
	}
	t.Note("paper: S exceeds 70%% of T at incast ratio 1 for both baselines")
	return t, nil
}

// roundRatios renders per-round S/T from a run's rounds, bucketed.
func roundRatios(t *Table, trace []round, buckets int) {
	if len(trace) == 0 {
		return
	}
	per := len(trace) / buckets
	if per == 0 {
		per = 1
	}
	for b := 0; b*per < len(trace); b++ {
		end := (b + 1) * per
		if end > len(trace) {
			end = len(trace)
		}
		var busy, span int64
		for _, r := range trace[b*per : end] {
			for _, p := range r.PerWorker {
				busy += p
			}
			// Phase1 is the processing-phase span: the wait it implies is
			// the S the paper plots per round.
			phase := r.Phase1
			if phase == 0 {
				phase = r.Makespan
			}
			span += phase * int64(len(r.PerWorker))
		}
		ratio := 0.0
		if span > 0 {
			ratio = 1 - float64(busy)/float64(span)
		}
		t.AddRow(b*per, ratio)
	}
}

// fig5b — per-round S/T of the barrier algorithm under balanced traffic
// (Observation 2: transient imbalance even when traffic is balanced).
func fig5b(cfg Config) (*Table, error) {
	spec, k := profileFatTree(cfg, 0)
	manual := manualFatTree(k, k, profileBW, 3*sim.Microsecond)
	bar, err := vrounds(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5b",
		Title:   "Barrier synchronization: S/T per round bucket, balanced traffic",
		Columns: []string{"round", "S/T"},
	}
	roundRatios(t, bar, 20)
	t.Note("%d rounds total; paper: S/T fluctuates around 20%%+ in transient windows", len(bar))
	return t, nil
}

// fig5c — S/T of the baselines versus link delay (Observation 3: low
// latency shrinks the window and raises S).
func fig5c(cfg Config) (*Table, error) {
	delays := []sim.Time{300, 3 * sim.Microsecond, 30 * sim.Microsecond, 300 * sim.Microsecond}
	if cfg.Quick {
		delays = []sim.Time{3 * sim.Microsecond, 300 * sim.Microsecond}
	}
	t := &Table{
		ID:      "fig5c",
		Title:   "S/T vs link delay (10G fat-tree)",
		Columns: []string{"delay", "S_B/T", "S_N/T"},
	}
	k := 8
	stop := sim.Millisecond
	if cfg.Quick {
		k = 4
		stop = 500 * sim.Microsecond
	}
	for _, d := range delays {
		spec := fatTreeSpec(cfg.Seed, k, 10_000_000_000, d, stop, 0)
		manual := manualFatTree(k, k, 10_000_000_000, d)
		bar, _, err := vrun(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
		if err != nil {
			return nil, err
		}
		nm, _, err := vrun(spec, vtime.Config{Algo: vtime.NullMessage, LPOf: manual})
		if err != nil {
			return nil, err
		}
		_, sb, _ := psm(bar)
		_, sn, _ := psm(nm)
		t.AddRow(d, sb, sn)
	}
	t.Note("paper: S/T decreases as the delay (and thus the window) grows")
	return t, nil
}

// fig5d — S/T of the baselines versus link bandwidth at a fixed offered
// load (higher bandwidth = more events per window = more imbalance).
func fig5d(cfg Config) (*Table, error) {
	bws := []int64{2, 4, 6, 8, 10}
	if cfg.Quick {
		bws = []int64{2, 10}
	}
	t := &Table{
		ID:      "fig5d",
		Title:   "S/T vs link bandwidth (Gbps), 30µs delay, fixed offered load",
		Columns: []string{"Gbps", "S_B/T", "S_N/T"},
	}
	k := 8
	stop := 2 * sim.Millisecond
	if cfg.Quick {
		k = 4
		stop = sim.Millisecond
	}
	const refBW = int64(10_000_000_000)
	for _, gb := range bws {
		bw := gb * 1_000_000_000
		spec := fatTreeSpec(cfg.Seed, k, bw, 30*sim.Microsecond, stop, 0)
		// Fixed absolute load: scale the relative load so the generated
		// traffic volume stays constant as the bandwidth varies.
		spec.load = 0.3 * float64(refBW) / float64(bw)
		manual := manualFatTree(k, k, bw, 30*sim.Microsecond)
		bar, _, err := vrun(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
		if err != nil {
			return nil, err
		}
		nm, _, err := vrun(spec, vtime.Config{Algo: vtime.NullMessage, LPOf: manual})
		if err != nil {
			return nil, err
		}
		_, sb, _ := psm(bar)
		_, sn, _ := psm(nm)
		t.AddRow(gb, sb, sn)
	}
	t.Note("paper: S/T increases with bandwidth at fixed load")
	return t, nil
}

// fig9a — Unison's P/S/M over the incast sweep: S nearly vanishes.
func fig9a(cfg Config) (*Table, error) {
	ratios := []float64{0, 0.25, 0.5, 0.75, 1}
	if cfg.Quick {
		ratios = []float64{0, 0.5, 1}
	}
	t := &Table{
		ID:      "fig9a",
		Title:   "Unison P/S/M vs incast ratio (8 threads)",
		Columns: []string{"incast", "T_U(s)", "P_U/T", "S_U/T", "M_U/T"},
	}
	for _, ratio := range ratios {
		spec, _ := profileFatTree(cfg, ratio)
		uni, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 8})
		if err != nil {
			return nil, err
		}
		p, s, m := psm(uni)
		t.AddRow(ratio, secondsV(uni), p, s, m)
	}
	t.Note("paper: Unison's S < 2%% and M < 0.3%% of T in every case")
	return t, nil
}

// fig9b — Unison's per-round S/T under balanced traffic.
func fig9b(cfg Config) (*Table, error) {
	spec, _ := profileFatTree(cfg, 0)
	uni, err := vrounds(spec, vtime.Config{Algo: vtime.Unison, Cores: 8})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9b",
		Title:   "Unison: S/T per round bucket, balanced traffic (8 threads)",
		Columns: []string{"round", "S/T"},
	}
	roundRatios(t, uni, 20)
	t.Note("%d rounds total; paper: Unison's per-round S/T is mainly under 1%%", len(uni))
	return t, nil
}
