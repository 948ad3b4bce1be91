package experiments

import (
	"fmt"

	"unison/internal/app"
	"unison/internal/netdev"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
	"unison/internal/vtime"
)

// scenarioSpec describes a reproducible scenario; build() constructs a
// fresh instance so every kernel runs an identical, independent copy.
type scenarioSpec struct {
	seed   uint64
	stop   sim.Time
	incast float64
	// victim, when set, is the incast victim's host index (HasVictim
	// end-to-end: index 0 is a valid target). Nil keeps the generator
	// default (the last host).
	victim  *int
	load    float64
	sizes   *stats.CDF
	pattern traffic.Pattern
	tcpCfg  tcp.Config
	queue   netdev.QueueConfig
	metric  routing.Metric

	// flows overrides generated traffic with an explicit flow list.
	flows []tcp.FlowSpec
	// ripPeriod, when positive, replaces static ECMP with RIP dynamic
	// routing advertising at this period (the WAN scenarios).
	ripPeriod sim.Time
	// mutate, when set, is called with the built scenario to install
	// topology-change global events (the reconfigurable-DCN scenario).
	mutate func(sc *app.Sim)

	topo func() (*topology.Graph, []sim.NodeID)
}

func (s *scenarioSpec) defaults() {
	if s.sizes == nil {
		s.sizes = traffic.GRPCCDF()
	}
	if s.tcpCfg.MSS == 0 {
		s.tcpCfg = tcp.DefaultConfig()
	}
	if s.queue.MaxPkts == 0 {
		s.queue = netdev.DropTailConfig(100)
	}
	if s.load == 0 {
		s.load = 0.3
	}
}

// build constructs a fresh scenario instance.
func (s *scenarioSpec) build() *app.Sim {
	s.defaults()
	g, hosts := s.topo()
	flows := s.flows
	if flows == nil {
		tc := traffic.Config{
			Seed:         s.seed,
			Hosts:        hosts,
			Sizes:        s.sizes,
			Load:         s.load,
			BisectionBps: g.BisectionBandwidth(),
			Start:        0,
			End:          s.stop * 3 / 4,
			Pattern:      s.pattern,
			IncastRatio:  s.incast,
		}
		if s.victim != nil {
			if *s.victim < 0 || *s.victim >= len(hosts) {
				panic(fmt.Sprintf("experiments: victim index %d out of range [0,%d)", *s.victim, len(hosts)))
			}
			tc.Victim, tc.HasVictim = hosts[*s.victim], true
		}
		flows = traffic.Generate(tc)
	}
	var router routing.Router
	var rip *routing.RIP
	if s.ripPeriod > 0 {
		rip = routing.NewRIP(g, s.ripPeriod)
		router = rip
	} else {
		router = routing.NewECMP(g, s.metric, s.seed)
	}
	sc := app.New(g, router, app.Config{
		Seed:   s.seed,
		NetCfg: netdev.Config{Queue: s.queue, ChecksumWork: true, Seed: s.seed},
		TCPCfg: s.tcpCfg,
		StopAt: s.stop,
		Flows:  flows,
	})
	if rip != nil {
		rip.Attach(sc.Setup, s.stop)
	}
	if s.mutate != nil {
		s.mutate(sc)
	}
	return sc
}

// fatTreeSpec builds a clustered fat-tree scenario spec.
func fatTreeSpec(seed uint64, k int, bw int64, delay, stop sim.Time, incast float64) *scenarioSpec {
	return &scenarioSpec{
		seed:   seed,
		stop:   stop,
		incast: incast,
		topo: func() (*topology.Graph, []sim.NodeID) {
			ft := topology.BuildFatTree(topology.FatTreeK(k, bw, delay))
			return ft.Graph, ft.Hosts()
		},
	}
}

// maxRounds aborts a runaway virtual run.
const maxRounds = 50_000_000

// vrun builds a fresh scenario from spec and executes it on the virtual
// testbed.
func vrun(spec *scenarioSpec, cfg vtime.Config) (*sim.RunStats, *app.Sim, error) {
	sc := spec.build()
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = maxRounds
	}
	st, err := vtime.Run(sc.Model(), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.Algo, err)
	}
	return st, sc, nil
}

// round is one round of a virtual run, folded from its workers' round
// records: what the per-round figures (5b, 9b, 12c, 13) plot.
type round struct {
	// PerWorker is each worker's processing time in phase 1, Phase1 the
	// phase's span and Makespan the whole round's.
	PerWorker        []int64
	Phase1, Makespan int64
	// Ideal is the phase-1 span of a perfect scheduler: the round's
	// longest LP or its processing spread evenly, whichever is longer.
	Ideal int64
}

// vrounds runs spec like vrun and folds the round records of a Registry
// that holds every one of them (its rings hold vrun's round bound) into
// the run's rounds.
func vrounds(spec *scenarioSpec, cfg vtime.Config) ([]round, error) {
	reg := obs.NewRegistry(maxRounds)
	cfg.Observe = reg
	if _, _, err := vrun(spec, cfg); err != nil {
		return nil, err
	}
	return foldRounds(reg)
}

// foldRounds derives every round from reg's records: under vtime each
// round files one record per worker, worker 0's holding the round's global
// events in ProcNS beside its phase-1 share.
func foldRounds(reg *obs.Registry) ([]round, error) {
	recs := reg.Records()
	tot, dropped := reg.Totals()
	filed := dropped
	for _, w := range tot {
		filed += w.Records
	}
	if filed != uint64(len(recs)) {
		return nil, fmt.Errorf("experiments: %d of %d round records kept", len(recs), filed)
	}
	w := len(tot)
	out := make([]round, len(recs)/w)
	for i := range out {
		rs := recs[i*w : (i+1)*w]
		// Any worker but 0 waited out the rest of phase 1 at the barrier (a
		// lone worker 0's Phase1 includes the globals).
		last, r := rs[w-1], &out[i]
		r.Phase1, r.Makespan = last.ProcNS+last.WaitGlobalNS, last.ProcNS+last.SyncNS+last.MsgNS
		var busy int64
		for _, rec := range rs {
			r.PerWorker = append(r.PerWorker, r.Phase1-rec.WaitGlobalNS)
			busy += r.Phase1 - rec.WaitGlobalNS
			r.Ideal = max(r.Ideal, rec.MaxLPNS)
		}
		r.Ideal = max(r.Ideal, (busy+int64(w)-1)/int64(w))
	}
	return out, nil
}

// secondsV renders virtual nanoseconds as seconds.
func secondsV(st *sim.RunStats) float64 { return float64(st.VirtualT) / 1e9 }

// manualFatTree returns the static rank assignment of a k-ary fat-tree
// built by fatTreeSpec (cluster-contiguous, Figure 3 style).
func manualFatTree(k, ranks int, bw int64, delay sim.Time) []int32 {
	ft := topology.BuildFatTree(topology.FatTreeK(k, bw, delay))
	return pdes.FatTreeManual(ft, ranks)
}
