// Command unidist runs a distributed simulation across real processes
// (or machines): one coordinator plus N simulation hosts connected over
// TCP, each building the same deterministic scenario and executing only
// its own nodes' events (see internal/dist).
//
// Start the coordinator, then one process per host:
//
//	unidist -role coord -hosts 2 -listen :9123
//	unidist -role host -id 0 -hosts 2 -addr 127.0.0.1:9123
//	unidist -role host -id 1 -hosts 2 -addr 127.0.0.1:9123
//
// The run is the scenario unisim would run: the -scenario file, or the
// built-in default, with each -set path=value applied in order. Every
// process must be given the same scenario, assignments and -hosts count;
// the scenario is reconstructed deterministically in every process. A host
// is one host of the hybrid kernel, with kernel.threads workers (default 4).
// With -set artifacts.dir=D on every process, the hosts collect their
// devices' records and their round records, and the coordinator writes the
// run-artifact bundle into D.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"unison"
	"unison/internal/dist"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/obs/live"
	"unison/internal/obs/obshttp"
	"unison/internal/sim"
)

func main() {
	var (
		role   = flag.String("role", "", "coord | host")
		id     = flag.Int("id", 0, "host id (host role)")
		hosts  = flag.Int("hosts", 2, "number of simulation hosts")
		listen = flag.String("listen", ":9123", "coordinator listen address")
		addr   = flag.String("addr", "127.0.0.1:9123", "coordinator address (host role)")
		scFile = flag.String("scenario", "", "declarative scenario file (JSON); must be identical across all processes")
		tmo    = flag.Duration("timeout", 30*time.Second, "per-message network deadline (0 disables)")
		dials  = flag.Int("dial-attempts", 8, "host dial retries for the coordinator startup race")
		debugA = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. :6060)")
		liveA  = flag.String("live", "", "coord: serve the run's record stream (for unimon) on this address; host: any non-empty value piggybacks the telemetry sideband on the round protocol (artifacts.dir does too)")

		ckptDir = flag.String("checkpoint", "", "host role: write per-host snapshots ckpt-r<round>-h<id>.uckpt into this directory")
		ckptN   = flag.Uint64("checkpoint-every", 100, "host role: snapshot cadence in window rounds")
		restore = flag.String("restore", "", "host role: resume from this host's snapshot file; every host must restore the same round")
		sets    []string
	)
	flag.Func("set", "set one scenario key, path=value (repeatable; the same on every process)", func(a string) error {
		sets = append(sets, a)
		return nil
	})
	flag.Parse()

	sc := unison.DefaultScenario()
	var err error
	if *scFile != "" {
		if sc, err = unison.LoadScenario(*scFile); err != nil {
			fatal(err)
		}
	}
	if sc, err = sc.Set(sets); err != nil {
		fatal(err)
	}
	// The distributed runtime owns the partitioning, and the traffic pump
	// of a streamed workload needs runtime global events.
	if sc.Traffic != nil && sc.Traffic.Stream {
		fatal(fmt.Errorf("scenario: traffic.stream is not supported by the distributed runtime (it needs runtime global events)"))
	}

	if *debugA != "" {
		bound, err := obshttp.Serve(*debugA)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug http on %s (/debug/vars, /debug/pprof)\n", bound)
	}

	switch *role {
	case "coord":
		runCoord(*listen, *hosts, sc, *tmo, *liveA)
	case "host":
		runHost(int32(*id), *addr, *hosts, sc, *tmo, *dials, *ckptDir, *ckptN, *restore, *liveA != "")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// build resolves the scenario every process reconstructs, and its split
// into hosts. Each process builds the full model deterministically; a host
// executes only its own nodes' events.
func build(sc *unison.Scenario, hosts int) (*unison.BuiltScenario, []int32) {
	b, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	if b.ManualFor == nil {
		fatal(fmt.Errorf("topology %q has no manual-partition recipe; the distributed runtime needs one", sc.Topology.Kind))
	}
	hostOf, err := b.ManualFor(hosts)
	if err != nil {
		fatal(err)
	}
	return b, hostOf
}

// sampleInterval is the bucket width of the hosts' samplers: the
// scenario's artifacts.interval, or the sampler's default when unset.
func sampleInterval(sc *unison.Scenario) sim.Time {
	if iv := sc.Artifacts.Interval.T(); iv > 0 {
		return iv
	}
	return netobs.DefaultInterval
}

func runCoord(listen string, hosts int, sc *unison.Scenario, tmo time.Duration, liveAddr string) {
	b, _ := build(sc, hosts)
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator listening on %s for %d hosts (%d flows, stop %v)\n",
		ln.Addr(), hosts, b.Sim.Mon.Flows(), sim.Time(sc.Stop))
	stats := &sim.RunStats{}
	cfg := dist.CoordConfig{
		Hosts: hosts, StopAt: sim.Time(sc.Stop), Flows: b.Sim.Mon.Flows(),
		Timeout: tmo, Stats: stats,
	}
	if sc.Artifacts.Dir != "" {
		cfg.Net = &dist.NetData{}
	}
	// The record stream and the imbalance tracker take what the hosts
	// piggyback on their steps and gathers (they do under -live or with
	// artifacts.dir): every host's workers' round records, each numbered
	// ID*threads + worker by its host, and netobs row deltas. The bundle
	// renders its series.csv and worker lanes from the stream.
	var imb *obs.ImbalanceTracker
	var stream *live.Stream
	if sc.Artifacts.Dir != "" || liveAddr != "" {
		path := "" // -live alone: a temporary stream
		if sc.Artifacts.Dir != "" {
			path = filepath.Join(sc.Artifacts.Dir, netobs.RecordsFile)
		}
		if stream, err = live.Create(path, "unidist", sim.Time(sc.Stop), sampleInterval(sc)); err != nil {
			fatal(err)
		}
		if liveAddr != "" {
			bound, err := stream.Serve(liveAddr)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("live telemetry on http://%s/live\n", bound)
		}
		imb = obs.NewImbalanceTracker()
		probe := obs.Tee(imb, stream)
		probe.BeginRun(obs.RunMeta{Kernel: fmt.Sprintf("dist(%d)", hosts), Workers: hosts * sc.Kernel.Workers(), LPs: b.G.N()})
		cfg.OnSideband = func(_ int, side *dist.Sideband) {
			for i := range side.Recs {
				probe.OnRound(&side.Recs[i])
			}
			stream.Rows(side.Rows)
		}
	}
	mon, _, err := dist.RunCoordinator(ln, cfg)
	if err != nil {
		fatal(err)
	}
	// Imbalance diagnostics land in the merged stats before run_stats.json
	// and the stream's stats line are written from them; its rounds are the
	// hosts', which count a restored run's from round 0.
	imb.Apply(stats)
	fmt.Printf("simulation complete: %d rounds\n", stats.Rounds)
	fmt.Printf("merged stats     %s\n", stats)
	if stats.Imbalance != nil {
		fmt.Printf("%s\n", stats.Imbalance)
	}
	fmt.Printf("flows completed  %d/%d\n", mon.Completed(), mon.Flows())
	fmt.Printf("mean FCT         %.3f ms\n", mon.MeanFCTms())
	fmt.Printf("mean RTT         %.3f ms\n", mon.MeanRTTms())
	fmt.Printf("result hash      %016x\n", mon.Fingerprint())
	// The collective report is a pure function of (pattern, base, monitor),
	// so recomputing it over the merged monitor yields the byte-identical
	// section a single-process run writes.
	if cr := b.Sim.CollReport(mon); cr != nil {
		if cr.CompletionNS >= 0 {
			fmt.Printf("collective       %s: %d/%d flows, completed in %.3f ms\n",
				cr.Pattern, cr.Completed, cr.Flows, float64(cr.CompletionNS)/1e6)
		} else {
			fmt.Printf("collective       %s: %d/%d flows (incomplete at stop)\n",
				cr.Pattern, cr.Completed, cr.Flows)
		}
	}
	var files []string
	if sc.Artifacts.Dir != "" {
		// The single-process bundle, built from the merged monitor and the
		// trace the hosts shipped at gather, and rendered from the stream,
		// every line of it on disk, that took the rows the hosts' steps and
		// gathers carried.
		if err := stream.Flush(); err != nil {
			fatal(fmt.Errorf("records: %w", err))
		}
		b.Sim.Mon = mon
		bundle := b.Bundle("unidist", stats)
		bundle.Trace = cfg.Net.Trace
		if files, err = bundle.Write(sc.Artifacts.Dir); err != nil {
			fatal(err)
		}
		files = append(files, netobs.RecordsFile)
	}
	if stream != nil {
		// The stats line goes last, once the bundle is on disk: a watcher
		// that sees it can open run_stats.json.
		if err := stream.Finish(stats); err != nil {
			fatal(fmt.Errorf("records: %w", err))
		}
		stream.Close()
	}
	if files != nil {
		fmt.Printf("artifact bundle  %s (%v)\n", sc.Artifacts.Dir, files)
	}
}

func runHost(id int32, addr string, hosts int, sc *unison.Scenario, tmo time.Duration, dials int, ckptDir string, ckptEvery uint64, restore string, liveSide bool) {
	b, hostOf := build(sc, hosts)
	if sc.Artifacts.Dir != "" {
		// The coordinator assembles the bundle; this host only collects its
		// own devices' records: rows ride its steps, the trace its gather.
		b.Sim.EnableNetObs(sc.Artifacts.Interval.T(), 0)
	}
	m := b.Sim.Model()
	cfg := dist.HostConfig{
		ID: id, Addr: addr, HostOf: hostOf, StopAt: sim.Time(sc.Stop), Threads: sc.Kernel.Workers(),
		Timeout: tmo, DialAttempts: dials, Live: liveSide || sc.Artifacts.Dir != "",
	}
	if ckptDir != "" || restore != "" {
		// Sim.CkptTarget covers every wired layer (net, tcp, the collective
		// engine, flowmon, tracer/sampler) and hashes the scenario config,
		// so mismatched flags across processes fail fast on restore.
		cfg.Ckpt = b.Sim.CkptTarget()
		cfg.RestoreFrom = restore
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			fatal(err)
		}
		cfg.CheckpointDir, cfg.CheckpointEvery = ckptDir, ckptEvery
	}
	st, err := dist.RunHost(cfg, m, b.Sim.Net, b.Sim.Mon)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("host %d: %s\n", id, st)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unidist: %v\n", err)
	os.Exit(1)
}
