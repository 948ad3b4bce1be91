package vtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"unison/internal/core"
	"unison/internal/eventq"
	"unison/internal/obs"
	"unison/internal/sim"
)

// vrt is the shared single-threaded runtime of the round-based virtual
// kernels (sequential, barrier, unison, hybrid).
type vrt struct {
	m    *sim.Model
	part *core.Partition
	fels []*eventq.Queue
	mail [][]sim.Event
	pub  *eventq.Queue
	seqs sim.SeqTable

	lbts      sim.Time
	lookahead sim.Time

	sink *vsink
	ctx  *sim.Ctx

	events  uint64
	endTime sim.Time
}

type vsink struct {
	rt    *vrt
	curLP int32 // -1 during global events
}

func (s *vsink) Put(ev sim.Event) {
	tgt := s.rt.part.LPOf[ev.Node]
	if s.curLP < 0 || tgt == s.curLP {
		s.rt.fels[tgt].Push(ev)
		return
	}
	if ev.Time < s.rt.lbts {
		panic(fmt.Sprintf("vtime: causality violation: cross-LP event at %v inside window ending %v", ev.Time, s.rt.lbts))
	}
	s.rt.mail[tgt] = append(s.rt.mail[tgt], ev)
}

func (s *vsink) PutGlobal(ev sim.Event) {
	if s.curLP >= 0 {
		panic("vtime: global events may only be scheduled at setup or from other global events")
	}
	s.rt.pub.Push(ev)
}

func newVrt(m *sim.Model, part *core.Partition) *vrt {
	r := &vrt{
		m:         m,
		part:      part,
		fels:      make([]*eventq.Queue, part.Count),
		mail:      make([][]sim.Event, part.Count),
		pub:       eventq.New(16),
		seqs:      sim.NewSeqTable(m.Nodes),
		lookahead: part.Lookahead,
	}
	for i := range r.fels {
		r.fels[i] = eventq.New(64)
	}
	r.sink = &vsink{rt: r}
	r.ctx = sim.NewCtx(r.sink, 0)
	for _, ev := range m.Init {
		if ev.Node == sim.GlobalNode {
			r.pub.Push(ev)
		} else {
			r.fels[part.LPOf[ev.Node]].Push(ev)
		}
	}
	return r
}

func (r *vrt) allMin() sim.Time {
	m := sim.MaxTime
	for _, f := range r.fels {
		if t := f.NextTime(); t < m {
			m = t
		}
	}
	return m
}

// runLP executes LP lp's window under executor e and returns its virtual
// processing cost.
func (r *vrt) runLP(lp int32, e int, c *coster) int64 {
	r.sink.curLP = lp
	fel := r.fels[lp]
	var cost int64
	for {
		ev, ok := fel.PopBefore(r.lbts)
		if !ok {
			break
		}
		cost += c.cost(e, ev.Node)
		r.ctx.Begin(&ev, r.seqs.Of(ev.Node))
		ev.Fn(r.ctx)
		r.events++
		if ev.Time > r.endTime {
			r.endTime = ev.Time
		}
	}
	return cost
}

// runGlobals executes public-LP events at the window boundary and returns
// their virtual cost and whether the model stopped.
func (r *vrt) runGlobals(c *coster) (cost int64, stopped bool) {
	r.sink.curLP = -1
	executed := false
	for !r.pub.Empty() && r.pub.Peek().Time == r.lbts {
		ev := r.pub.Pop()
		cost += c.cm.EventNS
		r.ctx.Begin(&ev, r.seqs.Of(sim.GlobalNode))
		ev.Fn(r.ctx)
		r.events++
		if ev.Time > r.endTime {
			r.endTime = ev.Time
		}
		executed = true
	}
	if executed {
		r.lookahead = core.CutLookahead(r.part.LPOf, r.m.Links())
		stopped = r.ctx.Stopped()
	}
	return cost, stopped
}

// drain moves LP lp's mailbox into its FEL and returns the event count.
func (r *vrt) drain(lp int32) int64 {
	n := int64(len(r.mail[lp]))
	for _, ev := range r.mail[lp] {
		r.fels[lp].Push(ev)
	}
	r.mail[lp] = r.mail[lp][:0]
	return n
}

// shape is the virtual twin of the live engine's shape (core/kernel.go):
// the LPs of part are divided into groups, each group owns perGroup
// virtual cores (numbered group*perGroup+i), and an LP only ever runs on
// a core of its group. The four round-based algorithms are four shapes:
//
//	Sequential  SingleLP                one group,  1 core        no sync cost
//	Barrier     the caller's LPOf       one per LP, 1 core each   2·BarrierNS
//	Unison      FineGrained (or LPOf)   one group,  Cores         4·SpinBarrierNS
//	Hybrid      Algorithm 1 per host    one per host, CoresPerHost
//	                                                4·SpinBarrierNS + 2·BarrierNS
//
// and differ in nothing else but the per-round synchronisation constant.
type shape struct {
	name     string // RunStats.Kernel
	part     *core.Partition
	groupOf  []int32 // LP → group; nil puts every LP in group 0
	perGroup int
	metric   core.Metric
	// syncNS is what every core pays per round to synchronise;
	// allReduceNS is the share of it probes see as the inter-host
	// all-reduce.
	syncNS, allReduceNS int64
	// speeds gives every core a relative speed (nil = identical cores);
	// speedAware lets phase 1 place LPs by projected finish time (§7).
	speeds     []float64
	speedAware bool
}

// groupCount is the number of groups groupOf names.
func groupCount(groupOf []int32) int {
	groups := 1
	for _, g := range groupOf {
		if int(g) >= groups {
			groups = int(g) + 1
		}
	}
	return groups
}

// shapeOf derives the shape from what cfg already says; nothing about it
// is separately settable.
func shapeOf(m *sim.Model, cfg Config) (shape, error) {
	links := m.Links()
	spin, mpi := 4*cfg.Cost.SpinBarrierNS, 2*cfg.Cost.BarrierNS
	switch cfg.Algo {
	case Sequential:
		return shape{name: Sequential.String(), part: core.SingleLP(m.Nodes, links),
			perGroup: 1, metric: core.MetricNone}, nil
	case Barrier:
		if cfg.LPOf == nil {
			return shape{}, errors.New("vtime: Barrier requires a manual partition (LPOf)")
		}
		part := core.Manual(cfg.LPOf, links)
		groupOf := make([]int32, part.Count)
		for i := range groupOf {
			groupOf[i] = int32(i)
		}
		return shape{name: Barrier.String(), part: part, groupOf: groupOf,
			perGroup: 1, metric: core.MetricNone, syncNS: mpi}, nil
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
		return shape{name: fmt.Sprintf("v-unison(t=%d)", cfg.Cores), part: part,
			perGroup: cfg.Cores, metric: cfg.Metric, syncNS: spin,
			speeds: cfg.CoreSpeeds, speedAware: cfg.SpeedAware}, nil
	case Hybrid:
		if cfg.HostOf == nil {
			return shape{}, errors.New("vtime: Hybrid requires HostOf")
		}
		if cfg.CoresPerHost <= 0 {
			return shape{}, errors.New("vtime: Hybrid requires CoresPerHost > 0")
		}
		lpOf, hostOfLP, lookahead, err := core.HybridPartition(m.Nodes, cfg.HostOf, links)
		if err != nil {
			return shape{}, err
		}
		// LPs never migrate across hosts, and every round pays the
		// MPI-style collective on top of the intra-host spin barriers.
		return shape{name: fmt.Sprintf("v-hybrid(%dx%d)", groupCount(hostOfLP), cfg.CoresPerHost),
			part:    &core.Partition{LPOf: lpOf, Count: len(hostOfLP), Lookahead: lookahead},
			groupOf: hostOfLP, perGroup: cfg.CoresPerHost,
			metric: cfg.Metric, syncNS: spin + mpi, allReduceNS: mpi}, nil
	}
	return shape{}, errors.New("vtime: unknown algorithm")
}

// runRounds is the one virtual round loop: the four phases of the live
// engine (core/kernel.go) executed on a single real thread, with the
// workers' cursor pulls emulated by greedy list scheduling onto the
// group's virtual cores and every phase charged to the cost model.
func runRounds(m *sim.Model, cfg Config, sh shape) (*sim.RunStats, error) {
	n := sh.part.Count
	groups := groupCount(sh.groupOf)
	workers := groups * sh.perGroup
	r := newVrt(m, sh.part)
	c := newCoster(cfg.Cost, workers)
	ws := make([]sim.WorkerStats, workers)
	var virt int64
	var rounds uint64
	var trace []sim.RoundSample
	stats := func() *sim.RunStats {
		st := &sim.RunStats{
			Kernel:     sh.name,
			Events:     r.events,
			EndTime:    r.endTime,
			LPs:        n,
			VirtualT:   virt,
			Rounds:     rounds,
			Workers:    ws,
			RoundTrace: trace,
		}
		st.CacheRefs, st.CacheMisses = c.cache.Counters()
		return st
	}

	period := uint64(cfg.Period)
	if period == 0 {
		period = 1
		if n > 1 {
			period = uint64(bits.Len(uint(n - 1)))
		}
	}
	// Per-group LP lists (index order: the receive phase) and schedules
	// (the processing phase).
	lps := make([][]int32, groups)
	for lp := 0; lp < n; lp++ {
		g := int32(0)
		if sh.groupOf != nil {
			g = sh.groupOf[lp]
		}
		lps[g] = append(lps[g], int32(lp))
	}
	order := make([][]int32, groups)
	for g := range order {
		order[g] = append([]int32(nil), lps[g]...)
	}
	speeds := sh.speeds
	if speeds == nil {
		speeds = make([]float64, workers)
		for i := range speeds {
			speeds[i] = 1
		}
	}
	lastP := make([]int64, n)
	pending := make([]int64, n)
	est := make([]int64, n)
	avail := make([]int64, workers)
	busyP := make([]int64, workers)
	busyM := make([]int64, workers)
	probe := cfg.Observe
	obs.Begin(probe, obs.RunMeta{Kernel: sh.name, Workers: workers, LPs: n})
	evPrev := make([]uint64, workers)
	recvT := make([]uint64, workers)
	depthT := make([]uint64, workers)
	migT := make([]uint64, workers)
	lastWrk := make([]int32, n)
	for i := range lastWrk {
		lastWrk[i] = -1
	}

	allMin := r.allMin()
	if allMin == sim.MaxTime && r.pub.Empty() {
		return stats(), nil
	}
	r.lbts = core.Eq2(allMin, r.pub.NextTime(), r.lookahead)
	// place picks the core in [lo, hi) the next LP of that group runs on:
	// the first to fall idle — what the live cursor pull does — or, when
	// speed-aware, the one with the earliest projected finish for the
	// estimated cost (LPT on uniform machines).
	place := func(lo, hi int, estimate int64) int {
		best := lo
		if sh.speedAware {
			fin := float64(avail[lo]) + float64(estimate)/speeds[lo]
			for i := lo + 1; i < hi; i++ {
				if f := float64(avail[i]) + float64(estimate)/speeds[i]; f < fin {
					fin, best = f, i
				}
			}
			return best
		}
		for i := lo + 1; i < hi; i++ {
			if avail[i] < avail[best] {
				best = i
			}
		}
		return best
	}
	for {
		roundIdx := rounds
		for i := range avail {
			avail[i], busyP[i], busyM[i] = 0, 0, 0
			recvT[i], depthT[i], migT[i] = 0, 0, 0
		}
		// Phase 1: every group list-schedules its LPs, longest estimated
		// job first, onto its own cores.
		var totalCost, maxLP int64
		for g := 0; g < groups; g++ {
			lo, hi := g*sh.perGroup, (g+1)*sh.perGroup
			for _, lp := range order[g] {
				t := place(lo, hi, est[lp])
				evBefore := r.events
				cost := r.runLP(lp, t, c)
				lastP[lp] = cost
				wall := int64(float64(cost) / speeds[t])
				avail[t] += wall
				busyP[t] += wall
				ws[t].Events += r.events - evBefore
				if probe != nil && r.events > evBefore {
					if lastWrk[lp] != -1 && lastWrk[lp] != int32(t) {
						migT[t]++
					}
					lastWrk[lp] = int32(t)
				}
				totalCost += cost
				if cost > maxLP {
					maxLP = cost
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
		ideal := (totalCost + int64(workers) - 1) / int64(workers)
		if maxLP > ideal {
			ideal = maxLP
		}
		// Phase 2: worker 0 handles globals.
		evBefore := r.events
		g, stopped := r.runGlobals(c)
		ws[0].P += g
		ws[0].Events += r.events - evBefore
		// Phase 3: the same greedy assignment for mailbox draining.
		for i := range avail {
			avail[i] = 0
		}
		for gi := 0; gi < groups; gi++ {
			lo, hi := gi*sh.perGroup, (gi+1)*sh.perGroup
			for _, lp := range lps[gi] {
				t := lo
				for i := lo + 1; i < hi; i++ {
					if avail[i] < avail[t] {
						t = i
					}
				}
				k := r.drain(lp)
				pending[lp] = k
				mc := int64(float64(k*cfg.Cost.MsgNS) / speeds[t])
				avail[t] += mc
				busyM[t] += mc
				if probe != nil {
					recvT[t] += uint64(k)
					depthT[t] += uint64(r.fels[lp].Len())
				}
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
		rounds++
		var schedCost int64
		if sh.metric != core.MetricNone && rounds%period == 0 {
			schedCost = int64(n) * cfg.Cost.SortPerLPNS
			for i := 0; i < n; i++ {
				if sh.metric == core.MetricPrevTime {
					est[i] = lastP[i]
				} else {
					est[i] = pending[i]
				}
			}
			for _, ord := range order {
				sort.SliceStable(ord, func(a, b int) bool { return est[ord[a]] > est[ord[b]] })
			}
		}
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
					Round: roundIdx, Worker: int32(t), LBTS: r.lbts,
					Events: ws[t].Events - evPrev[t],
					ProcNS: proc, SyncNS: roundTotal - busy, MsgNS: msg,
					WaitGlobalNS: span1 - busyP[t],
					Recvs:        recvT[t], FELDepth: depthT[t],
					Migrations: migT[t], AllReduceNS: sh.allReduceNS,
				}
				probe.OnRound(&rec)
				evPrev[t] = ws[t].Events
			}
		}
		virt += roundTotal
		if cfg.RecordRounds {
			trace = append(trace, sim.RoundSample{
				LBTS: r.lbts, PerWorker: append([]int64(nil), busyP...),
				Makespan: roundTotal, Phase1: span1, Ideal: ideal,
			})
		}
		if stopped {
			break
		}
		allMin := r.allMin()
		pubNext := r.pub.NextTime()
		if allMin == sim.MaxTime && pubNext == sim.MaxTime {
			break
		}
		if cfg.MaxRounds > 0 && rounds >= cfg.MaxRounds {
			return nil, errors.New("vtime: MaxRounds exceeded")
		}
		r.lbts = core.Eq2(allMin, pubNext, r.lookahead)
	}
	return stats(), nil
}
