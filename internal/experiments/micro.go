package experiments

import (
	"fmt"

	"unison/internal/core"
	"unison/internal/netdev"
	"unison/internal/packet"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/vtime"
)

func init() {
	register("fig12a", fig12a)
	register("fig12b", fig12b)
	register("fig12c", fig12c)
	register("fig12d", fig12d)
	register("fig13", fig13)
}

// torusSpec builds the 2D-torus scenario of §6.1/§6.3.
func torusSpec(seed uint64, rows, cols int, stop sim.Time) *scenarioSpec {
	return &scenarioSpec{
		seed: seed,
		stop: stop,
		load: 0.3,
		topo: func() (*topology.Graph, []sim.NodeID) {
			tr := topology.BuildTorus2D(rows, cols, 10_000_000_000, 30*sim.Microsecond)
			return tr.Graph, tr.Hosts()
		},
	}
}

// fig12a — cache misses and simulation time versus partition granularity:
// a torus run on ONE thread with manually chosen LP counts. Finer LPs
// group consecutive events of fewer nodes, shrinking the executor's
// working set.
func fig12a(cfg Config) (*Table, error) {
	rows, cols := 12, 12
	stop := 2 * sim.Millisecond
	grans := []int{1, 4, 16, 48, 144}
	if cfg.Quick {
		rows, cols = 6, 6
		stop = sim.Millisecond
		grans = []int{1, 4, 36}
	}
	spec := torusSpec(cfg.Seed, rows, cols, stop)
	tr := topology.BuildTorus2D(rows, cols, 10_000_000_000, 30*sim.Microsecond)
	t := &Table{
		ID:      "fig12a",
		Title:   fmt.Sprintf("Cache misses vs partition granularity (%dx%d torus, 1 thread)", rows, cols),
		Columns: []string{"LPs", "cache-misses", "miss-rate", "T(s)"},
	}
	for _, g := range grans {
		manual := pdes.TorusManual(tr, g)
		st, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 1, LPOf: manual})
		if err != nil {
			return nil, err
		}
		rate := 0.0
		if st.CacheRefs > 0 {
			rate = float64(st.CacheMisses) / float64(st.CacheRefs)
		}
		t.AddRow(st.LPs, st.CacheMisses, rate, secondsV(st))
	}
	t.Note("paper: misses and time fall as granularity rises; ~1.5x faster at one LP per node")
	return t, nil
}

// dctcpSpec builds the DCTCP dumbbell used by the §6.2 reproduction and
// the Fig 12b partition study: n sender/receiver pairs over a bottleneck.
func dctcpSpec(seed uint64, pairs int, bytes int64, variant tcp.Variant, stop sim.Time) (*scenarioSpec, *topology.Dumbbell) {
	// 10G testbed shape (as in the DCTCP paper's evaluation): enough
	// events per lookahead window for parallelism to matter.
	const bw = int64(10_000_000_000)
	const edgeDelay = 20 * sim.Microsecond
	const bottleDelay = 50 * sim.Microsecond
	build := func() *topology.Dumbbell {
		return topology.BuildDumbbell(pairs, bw, bw, edgeDelay, bottleDelay)
	}
	d := build()
	tcpCfg := tcp.DefaultConfig()
	queue := netdev.DropTailConfig(250)
	if variant == tcp.DCTCP {
		tcpCfg = tcp.DCTCPConfig()
		queue = netdev.DCTCPConfig(250, 65)
	}
	var flows []tcp.FlowSpec
	for i := 0; i < pairs; i++ {
		flows = append(flows, tcp.FlowSpec{
			ID:    packet.FlowID(i),
			Src:   d.Senders[i],
			Dst:   d.Receivers[i],
			Bytes: bytes,
			Start: sim.Time(i) * 10 * sim.Microsecond,
		})
	}
	spec := &scenarioSpec{
		seed:   seed,
		stop:   stop,
		tcpCfg: tcpCfg,
		queue:  queue,
		flows:  flows,
		topo: func() (*topology.Graph, []sim.NodeID) {
			g := build()
			return g.Graph, g.Hosts()
		},
	}
	return spec, d
}

// fig12b — cache misses and time under different partition schemes of the
// DCTCP model: automatic fine-grained, manual avoiding the bottleneck cut,
// and coarse two-way.
func fig12b(cfg Config) (*Table, error) {
	pairs := 8
	bytes := int64(10_000_000)
	stop := 50 * sim.Millisecond
	if cfg.Quick {
		bytes = 3_000_000
		stop = 20 * sim.Millisecond
	}
	spec, d := dctcpSpec(cfg.Seed, pairs, bytes, tcp.DCTCP, stop)

	// Scheme 1: automatic (Algorithm 1).
	// Scheme 2: avoid cutting the bottleneck: both switches share an LP,
	// hosts are individual LPs.
	bottleneck := make([]int32, d.N())
	bottleneck[d.Left] = 0
	bottleneck[d.Right] = 0
	next := int32(1)
	for _, h := range d.Hosts() {
		bottleneck[h] = next
		next++
	}
	// Scheme 3: coarse two-way split.
	coarse := pdes.DumbbellManual(d)

	t := &Table{
		ID:      "fig12b",
		Title:   "Cache misses vs partition scheme (DCTCP dumbbell, 4 threads)",
		Columns: []string{"scheme", "LPs", "cache-misses", "T(s)"},
	}
	schemes := []struct {
		name string
		lpOf []int32
	}{
		{"auto", nil},
		{"bottleneck", bottleneck},
		{"coarse", coarse},
	}
	for _, sch := range schemes {
		st, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 4, LPOf: sch.lpOf})
		if err != nil {
			return nil, err
		}
		t.AddRow(sch.name, st.LPs, st.CacheMisses, secondsV(st))
	}
	t.Note("paper: auto beats coarse on time and beats bottleneck-avoidance on interleaving misses")
	return t, nil
}

// fig12c — the slowdown factor α of the scheduling metrics: actual
// processing-phase spans divided by the perfect-scheduler lower bound.
func fig12c(cfg Config) (*Table, error) {
	threadCounts := []int{4, 8, 12, 16}
	if cfg.Quick {
		threadCounts = []int{4, 16}
	}
	t := &Table{
		ID:      "fig12c",
		Title:   "Slowdown factor α vs scheduling metric (k=8 fat-tree)",
		Columns: []string{"threads", "α(prev-time)", "α(pending-events)", "α(none)"},
	}
	metrics := []core.Metric{core.MetricPrevTime, core.MetricPendingEvents, core.MetricNone}
	for _, th := range threadCounts {
		row := []any{th}
		for _, m := range metrics {
			spec, _ := profileFatTree(cfg, 0)
			rs, err := vrounds(spec, vtime.Config{Algo: vtime.Unison, Cores: th, Metric: m})
			if err != nil {
				return nil, err
			}
			var actual, ideal int64
			for _, r := range rs {
				actual += r.Phase1
				ideal += r.Ideal
			}
			alpha := 1.0
			if ideal > 0 {
				alpha = float64(actual) / float64(ideal)
			}
			row = append(row, alpha)
		}
		t.AddRow(row...)
	}
	t.Note("paper: prev-time is best, ~2%% above the oracle at 16 threads; none worst")
	return t, nil
}

// fig12d — simulation time versus the scheduling period.
func fig12d(cfg Config) (*Table, error) {
	periods := []int{1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		periods = []int{1, 8, 64}
	}
	t := &Table{
		ID:      "fig12d",
		Title:   "Simulation time vs scheduling period (k=8 fat-tree, 8 threads)",
		Columns: []string{"period", "T(s)"},
	}
	for _, p := range periods {
		spec, _ := profileFatTree(cfg, 0)
		st, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 8, Period: p})
		if err != nil {
			return nil, err
		}
		t.AddRow(p, secondsV(st))
	}
	t.Note("paper: improves up to period 16, degrades beyond (stale estimates)")
	return t, nil
}

// fig13 — per-executor processing time over consecutive round buckets:
// the barrier baseline's skew versus Unison's balance.
func fig13(cfg Config) (*Table, error) {
	spec, k := profileFatTree(cfg, 0.5)
	ranks := 8
	manual := manualFatTree(k, ranks, profileBW, 3*sim.Microsecond)
	bar, err := vrounds(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
	if err != nil {
		return nil, err
	}
	uni, err := vrounds(spec, vtime.Config{Algo: vtime.Unison, Cores: ranks})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig13",
		Title: "Per-executor P per round bucket (ms): barrier ranks vs Unison threads",
	}
	t.Columns = []string{"bucket"}
	for i := 0; i < ranks; i++ {
		t.Columns = append(t.Columns, fmt.Sprintf("B%d", i))
	}
	for i := 0; i < ranks; i++ {
		t.Columns = append(t.Columns, fmt.Sprintf("U%d", i))
	}
	buckets := 10
	addFrom := func(trace []round, bucket int, per int) []float64 {
		sums := make([]float64, ranks)
		for r := bucket * per; r < (bucket+1)*per && r < len(trace); r++ {
			for w := 0; w < ranks && w < len(trace[r].PerWorker); w++ {
				sums[w] += float64(trace[r].PerWorker[w]) / 1e6
			}
		}
		return sums
	}
	per := len(bar) / buckets
	if per == 0 {
		per = 1
	}
	for b := 0; b*per < len(bar); b++ {
		row := []any{b * per}
		for _, v := range addFrom(bar, b, per) {
			row = append(row, v)
		}
		for _, v := range addFrom(uni, b, per) {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	t.Note("paper Fig 13: barrier columns are skewed and stable over time; Unison columns are uniform")
	return t, nil
}
