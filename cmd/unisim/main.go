// Command unisim runs one network simulation and prints flow statistics —
// the quick way to exercise any kernel on any of the built-in topologies.
//
// The run is described by a declarative scenario (-scenario FILE, JSON);
// without one, the built-in default scenario applies (k=4 fat-tree, 30%
// gRPC load, Unison kernel). Each -set path=value changes one scenario
// key, in order, as if it were written in the file; -set artifacts.dir=D
// writes the run-artifact bundle into D.
//
// Usage examples:
//
//	unisim -scenario examples/allreduce/ring.scenario.json
//	unisim -scenario examples/wanrip/wanrip.scenario.json -set kernel.kind=sequential -set seed=7
//	unisim -set kernel.threads=8 -set stop=2ms -set artifacts.dir=out/
//	unisim -set topology.kind=dumbbell -set topology.n=8 -set kernel.kind=barrier
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"unison"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/obs/live"
	"unison/internal/sim"
)

func main() {
	var (
		scFile  = flag.String("scenario", "", "declarative scenario file (JSON); default: the built-in scenario")
		ckptDir = flag.String("checkpoint", "", "write crash-consistent snapshots into this directory")
		ckptN   = flag.Uint64("checkpoint-every", 100, "checkpoint cadence: synchronization rounds (events for the sequential kernel)")
		ckptT   = flag.Duration("checkpoint-every-time", 0, "checkpoint cadence in simulated time (the null-message kernel's epoch length; ns when unitless)")
		restore = flag.String("restore", "", "resume from this snapshot file instead of starting fresh")
		liveA   = flag.String("live", "", "serve the run's record stream (for unimon) on this address (\":0\" picks a port)")
		sets    []string
	)
	flag.Func("set", "set one scenario key, path=value (repeatable; e.g. -set topology.k=8 -set stop=500us)", func(a string) error {
		sets = append(sets, a)
		return nil
	})
	flag.Parse()

	sc := unison.DefaultScenario()
	var err error
	if *scFile != "" {
		if sc, err = unison.LoadScenario(*scFile); err != nil {
			fatal(2, err)
		}
	}
	if sc, err = sc.Set(sets); err != nil {
		fatal(2, err)
	}

	b, err := sc.Build()
	if err != nil {
		fatal(2, err)
	}
	// A run that writes a bundle or serves -live is observed, the same way
	// either way: the imbalance tracker stamps run_stats and the record
	// stream gets every record, from which a bundle renders its series.csv
	// and the kernel's worker lanes. Probes only record: same result hash.
	var sampler *unison.NetSampler
	var imb *obs.ImbalanceTracker
	var stream *live.Stream
	if sc.Artifacts.Dir != "" || *liveA != "" {
		path, iv := "", sim.Time(0) // -live alone: a temporary stream
		if sc.Artifacts.Dir != "" {
			_, sampler = b.Sim.EnableNetObs(sc.Artifacts.Interval.T(), 0)
			path, iv = filepath.Join(sc.Artifacts.Dir, netobs.RecordsFile), sampler.Interval()
		}
		if stream, err = live.Create(path, "unisim", sc.Stop.T(), iv); err != nil {
			fatal(1, err)
		}
		imb = obs.NewImbalanceTracker()
		b.Observe = obs.Tee(imb, stream)
		if *liveA != "" {
			addr, err := stream.Serve(*liveA)
			if err != nil {
				fatal(1, fmt.Errorf("live: %w", err))
			}
			fmt.Printf("live        http://%s/live\n", addr)
		}
	}

	m := b.Sim.Model()
	finish := func() {}
	if sampler != nil {
		// The sampler's rows join the stream at the kernel's pauses, as the
		// run goes: a watcher sees the queues while they happen. The feed
		// goes before the snapshots, which then hold the sampler as the
		// rows streamed so far leave it.
		var feed sim.Pause
		feed, finish = sampler.Feed(stream.Rows)
		m.Pauses = append(m.Pauses, feed)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(1, err)
		}
		// Each snapshot's record joins the observed run's (the tracker
		// skips it: it is no round).
		unison.EnableCheckpoints(m, b.Sim.CkptTarget(), *ckptDir, *ckptN, sim.Time(ckptT.Nanoseconds()), b.Observe)
	}
	if *restore != "" {
		if err := unison.RestoreCheckpoint(m, b.Sim.CkptTarget(), *restore); err != nil {
			fatal(1, err)
		}
	}

	st, err := b.RunKernel(m)
	if err != nil {
		fatal(1, err)
	}
	// Imbalance diagnostics land in st before run_stats.json and the
	// stream's stats line are written from it.
	imb.Apply(st)

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
	var files []string
	if sc.Artifacts.Dir != "" {
		// The rows the run closed after its last pause, the final flush's,
		// then every line on disk: the bundle renders series.csv and the
		// worker lanes from the stream.
		finish()
		if err := stream.Flush(); err != nil {
			fatal(1, fmt.Errorf("records: %w", err))
		}
		if files, err = b.Bundle("unisim", st).Write(sc.Artifacts.Dir); err != nil {
			fatal(1, fmt.Errorf("artifacts: %w", err))
		}
		files = append(files, netobs.RecordsFile)
	}
	if stream != nil {
		// The stats line goes last, once the bundle is on disk: a watcher
		// that sees it can open run_stats.json.
		if err := stream.Finish(st); err != nil {
			fatal(1, fmt.Errorf("records: %w", err))
		}
		stream.Close()
	}
	if files != nil {
		fmt.Printf("artifacts   %s (%v)\n", sc.Artifacts.Dir, files)
	}
}

func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "unisim: %v\n", err)
	os.Exit(code)
}

func ratio(v int64, st *sim.RunStats) float64 {
	tot := st.TotalP() + st.TotalS() + st.TotalM()
	if tot == 0 {
		return 0
	}
	return 100 * float64(v) / float64(tot)
}
