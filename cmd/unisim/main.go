// Command unisim runs one network simulation and prints flow statistics —
// the quick way to exercise any kernel on any of the built-in topologies.
//
// The run is described by a declarative scenario (-scenario FILE, JSON);
// without one, the built-in default scenario applies (k=4 fat-tree, 30%
// gRPC load, Unison kernel). Explicitly passed flags override the
// scenario in either case.
//
// Usage examples:
//
//	unisim -scenario examples/allreduce/ring.scenario.json
//	unisim -scenario examples/wanrip/wanrip.scenario.json -kernel sequential -seed 7
//	unisim -topo fattree -k 4 -kernel unison -threads 8 -stop 2ms
//	unisim -topo dumbbell -n 8 -kernel barrier
package main

import (
	"flag"
	"fmt"
	"os"

	"unison"
	"unison/internal/obs"
	"unison/internal/obs/live"
	"unison/internal/sim"
	"unison/internal/trace"
)

// liveProgressEvery is the sequential kernel's progress-record cadence
// under -live; round-based kernels report every round regardless.
const liveProgressEvery = 50_000

func main() {
	var (
		scFile  = flag.String("scenario", "", "declarative scenario file (JSON); other flags override it")
		topo    = flag.String("topo", "fattree", "topology: fattree | torus | bcube | spineleaf | dumbbell | geant | chinanet")
		k       = flag.Int("k", 4, "fat-tree arity")
		rows    = flag.Int("rows", 6, "torus rows")
		cols    = flag.Int("cols", 6, "torus cols")
		n       = flag.Int("n", 4, "bcube ports / dumbbell pairs / spine-leaf hosts per leaf")
		bwGbps  = flag.Float64("bw", 10, "link bandwidth in Gbit/s")
		delay   = flag.Duration("delay", 3_000, "link delay (ns when unitless)")
		kernel  = flag.String("kernel", "unison", "kernel: sequential | unison | hybrid | barrier | nullmsg | vseq | vbarrier | vnullmsg | vunison")
		threads = flag.Int("threads", 4, "worker threads (unison/hybrid/virtual cores)")
		stop    = flag.Duration("stop", 2_000_000, "simulated duration (ns when unitless)")
		load    = flag.Float64("load", 0.3, "offered load as a fraction of bisection bandwidth")
		incast  = flag.Float64("incast", 0, "incast traffic ratio [0,1]")
		victim  = flag.Int("victim", -1, "incast victim host index (-1: generator default, the last host)")
		seed    = flag.Uint64("seed", 42, "random seed")
		web     = flag.Bool("websearch", false, "use the web-search flow size CDF (default: gRPC)")
		traceF  = flag.String("trace", "", "write a packet trace (UTR1 binary) to this file")
		artif   = flag.String("artifacts", "", "write a run-artifact bundle to this directory")
		stream  = flag.Bool("stream", false, "generate the workload lazily as virtual time advances (O(window) memory; needs a kernel that accepts global events, so not nullmsg/vnullmsg)")
		ckptDir = flag.String("checkpoint", "", "write crash-consistent snapshots into this directory")
		ckptN   = flag.Uint64("checkpoint-every", 100, "checkpoint cadence: synchronization rounds (events for the sequential kernel)")
		ckptT   = flag.Duration("checkpoint-every-time", 0, "checkpoint cadence in simulated time (the null-message kernel's epoch length; ns when unitless)")
		restore = flag.String("restore", "", "resume from this snapshot file instead of starting fresh")
		liveA   = flag.String("live", "", "serve live telemetry (JSON + SSE for unimon) on this address (\":0\" picks a port)")
		lingerD = flag.Duration("live-linger", live.DefaultLinger, "after the run, wait up to this long for an attached watcher to read the final snapshot")
	)
	flag.Parse()

	sc := unison.DefaultScenario()
	if *scFile != "" {
		var err error
		if sc, err = unison.LoadScenario(*scFile); err != nil {
			fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
			os.Exit(2)
		}
	}
	ov := &unison.ScenarioOverrides{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			ov.Seed = seed
		case "stop":
			t := sim.Time(stop.Nanoseconds())
			ov.Stop = &t
		case "kernel":
			ov.Kernel = kernel
		case "threads":
			ov.Threads = threads
		case "topo":
			ov.Topo = topo
		case "k":
			ov.K = k
		case "rows":
			ov.Rows = rows
		case "cols":
			ov.Cols = cols
		case "n":
			ov.N = n
		case "bw":
			ov.BwGbps = bwGbps
		case "delay":
			d := sim.Time(delay.Nanoseconds())
			ov.Delay = &d
		case "load":
			ov.Load = load
		case "incast":
			ov.Incast = incast
		case "victim":
			if *victim >= 0 {
				ov.Victim = victim
			}
		case "websearch":
			sizes := "grpc"
			if *web {
				sizes = "websearch"
			}
			ov.Sizes = &sizes
		case "stream":
			ov.Stream = stream
		case "artifacts":
			ov.ArtifactsDir = artif
		}
	})
	sc.Override(ov)

	b, err := sc.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
		os.Exit(2)
	}
	if *traceF != "" {
		b.Sim.Net.Tracer = trace.NewCollector(b.G.N(), 0)
	}
	// A bundle carries the kernel's worker lanes, so a run that writes one
	// is observed by a registry (which only records: same result hash).
	var sampler *unison.NetSampler
	var reg *obs.Registry
	if sc.Artifacts.Dir != "" {
		_, sampler = b.Sim.EnableNetObs(sc.Artifacts.Interval.T(), 0)
		reg = obs.NewRegistry(0)
		b.Observe = reg
	}

	var lsess *live.Session
	if *liveA != "" {
		// The view reads the bundle's Registry when there is one; else one
		// that keeps only the totals.
		if reg == nil {
			reg = obs.NewRegistry(1)
		}
		lsess, err = live.StartSession("unisim", sc.Stop.T(), *liveA, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unisim: live: %v\n", err)
			os.Exit(1)
		}
		lsess.SetLinger(*lingerD)
		b.Observe = lsess.Probe()
		b.Progress = liveProgressEvery
		fmt.Printf("live        http://%s/live\n", lsess.Server.Addr())
	}

	m := b.Sim.Model()
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
			os.Exit(1)
		}
		// Under -live the view's Registry hears of every snapshot, for
		// ckpt_age_seconds. The imbalance tracker must not: a snapshot's
		// record, filed under worker 0, is not one of its rounds.
		var snaps obs.Probe
		if lsess != nil {
			snaps = reg
		}
		unison.EnableCheckpoints(m, b.Sim.CkptTarget(), *ckptDir, *ckptN, sim.Time(ckptT.Nanoseconds()), snaps)
	}
	if *restore != "" {
		if err := unison.RestoreCheckpoint(m, b.Sim.CkptTarget(), *restore); err != nil {
			fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
			os.Exit(1)
		}
	}

	st, err := b.RunKernel(m)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
		os.Exit(1)
	}
	if lsess != nil {
		if sampler != nil {
			// The run is over, so reading the sampler is race-free; the
			// full row set becomes the final queue heatmap.
			sampler.Flush()
			lsess.State.SetQueueInterval(sampler.Interval())
			lsess.State.IngestRows(sampler.LiveDelta())
		}
		// Imbalance diagnostics land in st before the bundle serializes
		// it, and the final live snapshot carries the same stats object —
		// watchers and run_stats.json agree.
		lsess.Finish(st)
		defer lsess.Close()
	}

	fmt.Printf("kernel      %s\n", st.Kernel)
	fmt.Printf("nodes       %d (%d hosts), %d LPs\n", b.G.N(), len(b.Hosts), st.LPs)
	fmt.Printf("flows       %d generated, %d completed\n", b.Flows, b.Sim.Mon.Completed())
	fmt.Printf("events      %d in %d rounds\n", st.Events, st.Rounds)
	fmt.Printf("sim time    %v reached\n", st.EndTime)
	fmt.Printf("wall time   %.3fs", float64(st.WallNS)/1e9)
	if st.VirtualT > 0 {
		fmt.Printf(" (virtual testbed time %.3fs)", float64(st.VirtualT)/1e9)
	}
	fmt.Println()
	fmt.Printf("P/S/M       %.1f%% / %.1f%% / %.1f%%\n",
		ratio(st.TotalP(), st), ratio(st.TotalS(), st), ratio(st.TotalM(), st))
	if st.Imbalance != nil {
		fmt.Printf("%s\n", st.Imbalance)
	}
	if b.Sim.Mon.Completed() > 0 {
		fmt.Printf("mean FCT    %.3f ms\n", b.Sim.Mon.MeanFCTms())
		fmt.Printf("mean RTT    %.3f ms\n", b.Sim.Mon.MeanRTTms())
		fmt.Printf("goodput     %.1f Mbps per flow\n", b.Sim.Mon.MeanGoodputMbps())
	}
	if cr := b.Sim.CollReport(b.Sim.Mon); cr != nil {
		if cr.CompletionNS >= 0 {
			fmt.Printf("collective  %s over %d hosts: %d/%d flows, completed in %.3f ms\n",
				cr.Pattern, cr.Participants, cr.Completed, cr.Flows, float64(cr.CompletionNS)/1e6)
		} else {
			fmt.Printf("collective  %s over %d hosts: %d/%d flows (incomplete at stop)\n",
				cr.Pattern, cr.Participants, cr.Completed, cr.Flows)
		}
	}
	fmt.Printf("retransmits %d, drops %d\n", b.Sim.Mon.TotalRetransmits(), b.Sim.Net.Drops())
	fmt.Printf("result hash %016x\n", b.Sim.Mon.Fingerprint())
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := b.Sim.Net.Tracer.WriteTo(f); err != nil {
			fmt.Fprintf(os.Stderr, "unisim: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace       %d records -> %s\n", b.Sim.Net.Tracer.Count(), *traceF)
	}
	if sc.Artifacts.Dir != "" {
		bundle := b.Bundle("unisim", st, sampler, reg)
		files, err := bundle.Write(sc.Artifacts.Dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unisim: artifacts: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("artifacts   %s (%v)\n", sc.Artifacts.Dir, files)
	}
}

func ratio(v int64, st *sim.RunStats) float64 {
	tot := st.TotalP() + st.TotalS() + st.TotalM()
	if tot == 0 {
		return 0
	}
	return 100 * float64(v) / float64(tot)
}
