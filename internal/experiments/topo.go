package experiments

import (
	"strconv"

	"unison/internal/app"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
	"unison/internal/vtime"
)

func init() {
	register("fig10a", fig10a)
	register("fig10b", fig10b)
	register("fig10c", fig10c)
	register("fig10d", fig10d)
}

// fig10a — 2D-torus simulation time versus core count (scaled from the
// paper's 48×48 torus on 48–144 cores).
func fig10a(cfg Config) (*Table, error) {
	rows, cols := 12, 12
	stop := 2 * sim.Millisecond
	coreCounts := []int{4, 8, 16}
	if cfg.Quick {
		rows, cols = 6, 6
		stop = sim.Millisecond
		coreCounts = []int{4, 8}
	}
	spec := torusSpec(cfg.Seed, rows, cols, stop)
	tr := topology.BuildTorus2D(rows, cols, 10_000_000_000, 30*sim.Microsecond)
	seq, _, err := vrun(spec, vtime.Config{Algo: vtime.Sequential})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig10a",
		Title:   "2D-torus simulation time vs core count (virtual seconds)",
		Columns: []string{"cores", "barrier", "nullmsg", "unison", "sequential"},
	}
	// Microsecond resolution: in quick mode the three kernels finish within a
	// millisecond of each other, which three decimals hide.
	us := func(st *sim.RunStats) string { return strconv.FormatFloat(secondsV(st), 'f', 6, 64) }
	for _, c := range coreCounts {
		manual := pdes.TorusManual(tr, c)
		bar, _, err := vrun(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
		if err != nil {
			return nil, err
		}
		nm, _, err := vrun(spec, vtime.Config{Algo: vtime.NullMessage, LPOf: manual})
		if err != nil {
			return nil, err
		}
		uni, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: c})
		if err != nil {
			return nil, err
		}
		t.AddRow(c, us(bar), us(nm), us(uni), us(seq))
	}
	t.Note("paper: Unison outperforms both baselines by ~4x on the torus")
	return t, nil
}

// fig10b — BCube speedups under web-search and gRPC workloads (plus
// incast), Unison at 8 and 16 threads against the baselines.
func fig10b(cfg Config) (*Table, error) {
	n, levels := 8, 1
	stop := 2 * sim.Millisecond
	if cfg.Quick {
		n = 4
		stop = sim.Millisecond
	}
	b := topology.BuildBCube(n, levels, 10_000_000_000, 3*sim.Microsecond)
	ranks := len(b.BCube0)
	manual := pdes.BCubeManual(b, ranks)

	t := &Table{
		ID:      "fig10b",
		Title:   "BCube speedups over sequential DES",
		Columns: []string{"workload", "barrier", "nullmsg", "unison(8)", "unison(16)"},
	}
	for _, wl := range []struct {
		name  string
		sizes *stats.CDF
	}{
		{"web-search", traffic.WebSearchCDF()},
		{"gRPC", traffic.GRPCCDF()},
	} {
		spec := &scenarioSpec{
			seed:   cfg.Seed,
			stop:   stop,
			sizes:  wl.sizes,
			load:   0.3,
			incast: 0.1,
			topo: func() (*topology.Graph, []sim.NodeID) {
				g := topology.BuildBCube(n, levels, 10_000_000_000, 3*sim.Microsecond)
				return g.Graph, g.Hosts()
			},
		}
		seq, _, err := vrun(spec, vtime.Config{Algo: vtime.Sequential})
		if err != nil {
			return nil, err
		}
		bar, _, err := vrun(spec, vtime.Config{Algo: vtime.Barrier, LPOf: manual})
		if err != nil {
			return nil, err
		}
		nm, _, err := vrun(spec, vtime.Config{Algo: vtime.NullMessage, LPOf: manual})
		if err != nil {
			return nil, err
		}
		u8, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 8})
		if err != nil {
			return nil, err
		}
		u16, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 16})
		if err != nil {
			return nil, err
		}
		t.AddRow(wl.name, vtime.Speedup(seq, bar), vtime.Speedup(seq, nm),
			vtime.Speedup(seq, u8), vtime.Speedup(seq, u16))
	}
	t.Note("paper: Unison fastest; ~10x at 8 cores and ~15x at 16 cores under gRPC")
	return t, nil
}

// fig10c — wide-area backbones (GEANT/ChinaNet analogs) with RIP dynamic
// routing: sequential DES versus Unison. No symmetric static partition
// exists for these irregular graphs, so the baselines are omitted, as in
// the paper.
func fig10c(cfg Config) (*Table, error) {
	stop := 400 * sim.Millisecond
	if cfg.Quick {
		stop = 150 * sim.Millisecond
	}
	t := &Table{
		ID:      "fig10c",
		Title:   "WAN with RIP dynamic routing: sequential vs Unison (8 threads)",
		Columns: []string{"topology", "sequential(s)", "unison(s)", "speedup", "LPs"},
	}
	for _, wan := range []struct {
		name  string
		build func() *topology.WAN
	}{
		{"GEANT", topology.Geant},
		{"ChinaNet", topology.ChinaNet},
	} {
		spec := &scenarioSpec{
			seed:      cfg.Seed,
			stop:      stop,
			sizes:     traffic.WebSearchCDF(),
			load:      0.5,
			tcpCfg:    tcp.WANConfig(),
			ripPeriod: 20 * sim.Millisecond,
			topo: func() (*topology.Graph, []sim.NodeID) {
				w := wan.build()
				return w.Graph, w.Hosts()
			},
		}
		seq, _, err := vrun(spec, vtime.Config{Algo: vtime.Sequential})
		if err != nil {
			return nil, err
		}
		uni, _, err := vrun(spec, vtime.Config{Algo: vtime.Unison, Cores: 8})
		if err != nil {
			return nil, err
		}
		t.AddRow(wan.name, secondsV(seq), secondsV(uni), vtime.Speedup(seq, uni), uni.LPs)
	}
	t.Note("paper: >10x super-linear speedup over sequential DES with 8 threads")
	return t, nil
}

// fig10d — reconfigurable DCN: a fat-tree whose ToR-core connectivity is
// rewired every interval by global events (the TDTCP-style optical-core
// swap). Sequential vs Unison as the change frequency grows.
func fig10d(cfg Config) (*Table, error) {
	intervals := []sim.Time{200 * sim.Microsecond, 500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond}
	stop := 4 * sim.Millisecond
	if cfg.Quick {
		intervals = []sim.Time{500 * sim.Microsecond, 2 * sim.Millisecond}
		stop = 2 * sim.Millisecond
	}
	t := &Table{
		ID:      "fig10d",
		Title:   "Reconfigurable DCN: time vs topology-change interval (k=4 fat-tree)",
		Columns: []string{"interval", "changes", "sequential(s)", "unison(4)(s)"},
	}
	for _, iv := range intervals {
		iv := iv
		mkSpec := func() *scenarioSpec {
			spec := fatTreeSpec(cfg.Seed, 4, 10_000_000_000, 3*sim.Microsecond, stop, 0)
			spec.mutate = func(sc *app.Sim) {
				ft := topology.BuildFatTree(topology.FatTreeK(4, 10_000_000_000, 3*sim.Microsecond))
				// Identify the agg-core links by index in the freshly built
				// twin (builders are deterministic, so link IDs coincide).
				var coreLinks []topology.LinkID
				for _, cl := range ft.CoreLinks {
					coreLinks = append(coreLinks, cl...)
				}
				phase := false
				for at := iv; at < stop; at += iv {
					phase = !phase
					down := phase
					sc.ScheduleTopoChange(at, func() {
						// Swap half the core uplinks in and out, emulating
						// the optical-core reconfiguration.
						for i, l := range coreLinks {
							if i%2 == 0 {
								sc.G.SetLinkUp(l, !down)
							}
						}
					})
				}
			}
			return spec
		}
		spec := mkSpec()
		changes := int((stop - 1) / iv)
		seq, _, err := vrun(spec, vtime.Config{Algo: vtime.Sequential})
		if err != nil {
			return nil, err
		}
		uni, _, err := vrun(mkSpec(), vtime.Config{Algo: vtime.Unison, Cores: 4})
		if err != nil {
			return nil, err
		}
		t.AddRow(iv, changes, secondsV(seq), secondsV(uni))
	}
	t.Note("paper: both kernels degrade only slightly as change frequency rises; Unison's penalty is negligible")
	return t, nil
}
