package vtime

import (
	"errors"
	"fmt"
	"time"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/sim"
)

// shape is the round engine's Shape (core/engine.go) plus what only the
// cost model knows about it. The four round-based algorithms are four
// shapes:
//
//	Sequential  SingleLP                one group,  1 core        no sync cost
//	Barrier     StaticShape(LPOf)       one per LP, 1 core each   2·BarrierNS
//	Unison      FineGrained (or LPOf)   one group,  Cores         4·SpinBarrierNS
//	Hybrid      HybridShape             one per host, CoresPerHost
//	                                                4·SpinBarrierNS + 2·BarrierNS
//
// and differ in nothing else but the per-round synchronisation constant.
type shape struct {
	core.Shape
	// syncNS is what every core pays per round to synchronise;
	// allReduceNS is the share of it probes see as the inter-host
	// all-reduce.
	syncNS, allReduceNS int64
	// speeds gives every core a relative speed (nil = identical cores);
	// speedAware lets phase 1 place LPs by projected finish time (§7).
	speeds     []float64
	speedAware bool
}

// shapeOf derives the shape from what cfg already says; nothing about it
// is separately settable.
func shapeOf(m *sim.Model, cfg Config) (shape, error) {
	links := m.Links()
	spin, mpi := 4*cfg.Cost.SpinBarrierNS, 2*cfg.Cost.BarrierNS
	// The engine touches its cache model per event; the cost model turns
	// the misses it reports into time.
	eng := core.Config{Metric: core.MetricNone, Period: cfg.Period, CacheWays: cfg.Cost.CacheWays,
		MaxRounds: cfg.MaxRounds, Observe: cfg.Observe}
	switch cfg.Algo {
	case Sequential:
		return shape{Shape: core.Shape{Name: Sequential.String(), Part: core.SingleLP(m.Nodes, links),
			PerGroup: 1, Cfg: eng}}, nil
	case Barrier:
		if cfg.LPOf == nil {
			return shape{}, errors.New("vtime: Barrier requires a manual partition (LPOf)")
		}
		return shape{Shape: core.StaticShape(Barrier.String(), core.Manual(cfg.LPOf, links), eng), syncNS: mpi}, nil
	case Unison:
		if cfg.Cores <= 0 {
			return shape{}, errors.New("vtime: Unison requires Cores > 0")
		}
		var part *core.Partition
		if cfg.LPOf != nil {
			part = core.Manual(cfg.LPOf, links)
		} else {
			part = core.FineGrained(m.Nodes, links)
		}
		// Core speeds: identical by default; heterogeneous per §7 otherwise.
		if cfg.CoreSpeeds != nil && len(cfg.CoreSpeeds) != cfg.Cores {
			return shape{}, errors.New("vtime: CoreSpeeds length must equal Cores")
		}
		for _, sp := range cfg.CoreSpeeds {
			if sp <= 0 {
				return shape{}, errors.New("vtime: CoreSpeeds must be positive")
			}
		}
		eng.Metric = cfg.Metric
		return shape{Shape: core.Shape{Name: fmt.Sprintf("v-unison(t=%d)", cfg.Cores), Part: part,
			PerGroup: cfg.Cores, Cfg: eng}, syncNS: spin,
			speeds: cfg.CoreSpeeds, speedAware: cfg.SpeedAware}, nil
	case Hybrid:
		if cfg.CoresPerHost <= 0 {
			return shape{}, errors.New("vtime: Hybrid requires CoresPerHost > 0")
		}
		// LPs never migrate across hosts, and every round pays the
		// MPI-style collective on top of the intra-host spin barriers.
		eng.Metric = cfg.Metric
		hs, err := core.HybridShape(m.Nodes, cfg.HostOf, links, cfg.CoresPerHost, eng)
		if err != nil {
			return shape{}, err
		}
		hs.Name = fmt.Sprintf("v-hybrid(%dx%d)", hs.Groups(), cfg.CoresPerHost)
		return shape{Shape: hs, syncNS: spin + mpi, allReduceNS: mpi}, nil
	}
	return shape{}, errors.New("vtime: unknown algorithm")
}

// runRounds is the virtual driver of the round engine: it calls the
// engine's four steps (core/engine.go) from a single real thread, emulates
// the live workers' cursor pulls by greedy list scheduling onto each
// group's virtual cores, and charges every step to the cost model. What
// the run computes is the engine's doing; only the clocks are modelled.
func runRounds(m *sim.Model, cfg Config, sh shape, start time.Time) (*sim.RunStats, error) {
	e, err := core.NewEngine(m, sh.Shape)
	if err != nil {
		return nil, err
	}
	th := e.NewThread()
	cm := cfg.Cost
	n := int64(sh.Part.Count)
	groups := sh.Groups()
	workers := groups * sh.PerGroup
	ws := make([]sim.WorkerStats, workers) // modelled P/S/M; the engine counts events
	var virt int64

	speeds := sh.speeds
	if speeds == nil {
		speeds = make([]float64, workers)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	avail := make([]int64, workers)
	busyP := make([]int64, workers)
	maxP := make([]int64, workers) // the longest LP's wall on each core
	busyM := make([]int64, workers)
	probe := cfg.Observe
	evT := make([]uint64, workers)
	recvT := make([]uint64, workers)
	depthT := make([]uint64, workers)
	migT := make([]uint64, workers)

	// idlest is the core in [lo, hi) that falls idle first — where the live
	// cursor pull would hand the next LP.
	idlest := func(lo, hi int) int {
		best := lo
		for i := lo + 1; i < hi; i++ {
			if avail[i] < avail[best] {
				best = i
			}
		}
		return best
	}
	// place picks the core the next LP of a group runs on: the idlest, or,
	// when speed-aware, the one with the earliest projected finish for the
	// estimated cost (LPT on uniform machines).
	place := func(lo, hi int, estimate int64) int {
		if !sh.speedAware {
			return idlest(lo, hi)
		}
		best := lo
		fin := float64(avail[lo]) + float64(estimate)/speeds[lo]
		for i := lo + 1; i < hi; i++ {
			if f := float64(avail[i]) + float64(estimate)/speeds[i]; f < fin {
				fin, best = f, i
			}
		}
		return best
	}
	for !e.Done() {
		roundIdx, lbts := e.Round(), e.LBTS()
		th.StartRound()
		for i := range avail {
			avail[i], busyP[i], maxP[i], busyM[i] = 0, 0, 0, 0
			evT[i], recvT[i], depthT[i], migT[i] = 0, 0, 0, 0
		}
		// Phase 1: every group list-schedules its run list, longest
		// estimated job first, onto its own cores.
		for g := 0; g < groups; g++ {
			lo, hi := g*sh.PerGroup, (g+1)*sh.PerGroup
			run, _ := e.Group(g)
			for _, lp := range run {
				t := place(lo, hi, e.Est(lp))
				nev, misses := th.Process(t, lp)
				cost := nev*cm.EventNS + misses*cm.MissNS
				e.SetLastP(lp, cost)
				wall := int64(float64(cost) / speeds[t])
				avail[t] += wall
				busyP[t] += wall
				maxP[t] = max(maxP[t], wall)
				evT[t] += uint64(nev)
				if probe != nil && e.Migrated(t, lp) {
					migT[t]++
				}
			}
		}
		var span1 int64
		for t := 0; t < workers; t++ {
			ws[t].P += busyP[t]
			if avail[t] > span1 {
				span1 = avail[t]
			}
		}
		// Phase 2: worker 0 handles globals.
		globals := th.Globals()
		g := globals * cm.EventNS
		ws[0].P += g
		evT[0] += uint64(globals)
		// Phase 3: the same greedy assignment for receiving.
		for i := range avail {
			avail[i] = 0
		}
		for gi := 0; gi < groups; gi++ {
			lo, hi := gi*sh.PerGroup, (gi+1)*sh.PerGroup
			_, recv := e.Group(gi)
			for _, lp := range recv {
				t := idlest(lo, hi)
				k, depth := th.Receive(lp)
				mc := int64(float64(int64(k)*cm.MsgNS) / speeds[t])
				avail[t] += mc
				busyM[t] += mc
				recvT[t] += uint64(k)
				depthT[t] += uint64(depth)
			}
		}
		var span3 int64
		for t := 0; t < workers; t++ {
			ws[t].M += busyM[t]
			if avail[t] > span3 {
				span3 = avail[t]
			}
		}
		// Phase 4: window update plus periodic rescheduling on worker 0.
		var schedCost int64
		if e.Advance() {
			schedCost = n * cm.SortPerLPNS
		}
		if e.Saving() { // a pause client's jobs, on the one real thread
			th.Save()
			e.EndSave()
		}
		depthT[0] += e.IdleDepth()
		ws[0].M += schedCost
		roundTotal := span1 + g + span3 + schedCost + sh.syncNS
		for t := 0; t < workers; t++ {
			busy := busyP[t] + busyM[t]
			proc := busyP[t]
			msg := busyM[t]
			if t == 0 {
				busy += g + schedCost
				proc += g
				msg += schedCost
			}
			ws[t].S += roundTotal - busy
			if probe != nil {
				rec := obs.RoundRecord{
					Round: roundIdx, Worker: int32(t), LBTS: lbts,
					Events: evT[t],
					ProcNS: proc, SyncNS: roundTotal - busy, MsgNS: msg,
					WaitGlobalNS: span1 - busyP[t], MaxLPNS: maxP[t],
					Recvs: recvT[t], FELDepth: depthT[t],
					Migrations: migT[t], AllReduceNS: sh.allReduceNS,
				}
				probe.OnRound(&rec)
			}
		}
		virt += roundTotal
	}
	st := e.Stats(start, ws)
	st.VirtualT = virt
	return st, e.Err()
}
