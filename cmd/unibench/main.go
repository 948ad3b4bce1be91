// Command unibench measures the kernel hot path: events/s, ns/op and
// allocation counts for every kernel on the fixed fat-tree workload of the
// kernel micro-benchmarks (bench_test.go), written as BENCH_hotpath.json.
//
// The report embeds the pre-overhaul seed baseline (docs/bench_seed.json)
// next to the fresh numbers so every run carries its own before/after
// comparison — the acceptance gate of the hot-path overhaul reads the
// speedup straight from this file.
//
// Usage:
//
//	unibench [-n 15] [-seed docs/bench_seed.json] [-o BENCH_hotpath.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"unison"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/obs"
	"unison/internal/obs/obshttp"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/stats"
)

// sample is one kernel's measurement; the field names match
// docs/bench_seed.json so seed and current blocks diff cleanly.
type sample struct {
	EventsPerSec int64 `json:"events_per_sec"`
	NsPerOp      int64 `json:"ns_per_op"`
	BytesPerOp   int64 `json:"bytes_per_op"`
	AllocsPerOp  int64 `json:"allocs_per_op"`
	Iterations   int   `json:"iterations"`
}

type seedFile struct {
	Note    string            `json:"note"`
	Kernels map[string]sample `json:"kernels"`
	// EmptyRound is the empty-round section as the parent of the
	// activity-proportional round engine measured it (emptyround.go).
	EmptyRound     []emptyRound `json:"empty_round"`
	EmptyRoundNote string       `json:"empty_round_note"`
}

type delta struct {
	EventsSpeedup float64 `json:"events_speedup"`
	AllocsRatio   float64 `json:"allocs_ratio"`
}

// fidelity is one kernel's simulation-result summary from the final
// iteration: throughput numbers alone can hide a kernel that got fast by
// simulating the wrong thing, so every report carries what the run
// actually produced.
type fidelity struct {
	P50FCTms    float64 `json:"p50_fct_ms"`
	P99FCTms    float64 `json:"p99_fct_ms"`
	Completed   int     `json:"completed"`
	Drops       uint64  `json:"drops"`
	Fingerprint uint64  `json:"fingerprint"`
}

type report struct {
	Note       string            `json:"note"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Generated  string            `json:"generated"`
	Current    map[string]sample `json:"current"`        //unison:json-ok keys are the fixed kernelOrder names; encoding/json sorts string keys
	Seed       map[string]sample `json:"seed,omitempty"` //unison:json-ok keys are the fixed kernelOrder names; encoding/json sorts string keys
	SeedNote   string            `json:"seed_note,omitempty"`
	Delta      map[string]delta  `json:"delta,omitempty"` //unison:json-ok keys are the fixed kernelOrder names; encoding/json sorts string keys
	// RunStats embeds each kernel's final-iteration run summary (stable
	// JSON tags from internal/sim) so a report carries the P/S/M split,
	// not just throughput.
	RunStats map[string]*sim.RunStats `json:"run_stats,omitempty"` //unison:json-ok keys are the fixed kernelOrder names; encoding/json sorts string keys
	// Fidelity embeds each kernel's simulated results (percentile FCTs,
	// drops, fingerprint) from the final iteration.
	Fidelity map[string]fidelity `json:"fidelity,omitempty"` //unison:json-ok keys are the fixed kernelOrder names; encoding/json sorts string keys
	// EmptyRound is the per-round fixed cost against the LP count.
	EmptyRound emptyRoundReport `json:"empty_round"`
}

// scrub replaces non-finite floats with 0 so the report encode can never
// fail at run end (e.g. an allocs ratio against a zero-alloc seed).
func (r *report) scrub() {
	for k, d := range r.Delta { //unison:ordered per-key rewrite, each key written independently
		d.EventsSpeedup = finite(d.EventsSpeedup)
		d.AllocsRatio = finite(d.AllocsRatio)
		r.Delta[k] = d
	}
	for k, f := range r.Fidelity { //unison:ordered per-key rewrite, each key written independently
		f.P50FCTms = finite(f.P50FCTms)
		f.P99FCTms = finite(f.P99FCTms)
		r.Fidelity[k] = f
	}
}

// finite maps NaN and ±Inf to 0.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// kernelOrder fixes the iteration and report order.
var kernelOrder = []string{"Sequential", "Unison1", "Unison4", "Barrier", "NullMessage", "Hybrid"}

// benchScenario is the workload every measurement builds: the historical
// fixed fat-tree k=4 suite by default, or the file passed via -scenario.
// A fresh Sim is built per iteration (Build never mutates the scenario).
var benchScenario *unison.Scenario

func defaultBenchScenario() *unison.Scenario {
	sc := unison.DefaultScenario()
	// The bench workload ends arrivals at stop/2 (not the schema's 3/4
	// default) to stay comparable with the embedded seed baselines.
	sc.Traffic.End = unison.ScenarioDuration(sc.Stop) / 2
	return sc
}

func scenario(seed uint64) *unison.Sim {
	sc := *benchScenario
	sc.Seed = seed
	b, err := sc.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unibench: %v\n", err)
		os.Exit(1)
	}
	return b.Sim
}

// benchProbe is attached to every measured kernel run. It stays nil for
// plain benchmarking; -live-bus sets it to an enabled-but-unattached
// telemetry bus (the overhead the ≤1% gate pins down).
var benchProbe obs.Probe

func kernels() map[string]func() sim.Kernel {
	b, err := benchScenario.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unibench: %v\n", err)
		os.Exit(1)
	}
	ks := map[string]func() sim.Kernel{
		"Sequential": func() sim.Kernel { return &des.Kernel{Observe: benchProbe} },
		"Unison1":    func() sim.Kernel { return core.New(core.Config{Threads: 1, Observe: benchProbe}) },
		"Unison4":    func() sim.Kernel { return core.New(core.Config{Threads: 4, Observe: benchProbe}) },
	}
	if b.ManualFor != nil {
		manual4, manual2 := b.ManualFor(4), b.ManualFor(2)
		ks["Barrier"] = func() sim.Kernel { return &pdes.BarrierKernel{LPOf: manual4, Observe: benchProbe} }
		ks["NullMessage"] = func() sim.Kernel { return &pdes.NullMessageKernel{LPOf: manual4, Observe: benchProbe} }
		ks["Hybrid"] = func() sim.Kernel {
			return core.NewHybrid(core.HybridConfig{HostOf: manual2, ThreadsPerHost: 2, Observe: benchProbe})
		}
	}
	return ks
}

// measure runs the kernel n times and reports per-op figures using the
// same allocation counters `go test -benchmem` reads (Mallocs/TotalAlloc).
// The final iteration's scenario also yields the fidelity summary; reading
// it after the run costs nothing inside the timed region.
func measure(n int, mk func() sim.Kernel) (sample, *sim.RunStats, fidelity, error) {
	// One warm-up run so one-time costs (pools, route caches) don't skew
	// the per-op figures, mirroring testing.B's calibration runs.
	if _, err := mk().Run(scenario(benchScenario.Seed).Model()); err != nil {
		return sample{}, nil, fidelity{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events uint64
	var last *sim.RunStats
	var lastSc *unison.Sim
	for i := 0; i < n; i++ {
		sc := scenario(benchScenario.Seed)
		st, err := mk().Run(sc.Model())
		if err != nil {
			return sample{}, nil, fidelity{}, err
		}
		events += st.Events
		last, lastSc = st, sc
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	fid := fidelity{
		Completed:   lastSc.Mon.Completed(),
		Drops:       lastSc.Net.Drops(),
		Fingerprint: lastSc.Mon.Fingerprint(),
	}
	if fcts := lastSc.Mon.FCTs(); len(fcts) > 0 {
		fid.P50FCTms = stats.Quantile(fcts, 0.50)
		fid.P99FCTms = stats.Quantile(fcts, 0.99)
	}
	return sample{
		EventsPerSec: int64(float64(events) / elapsed.Seconds()),
		NsPerOp:      elapsed.Nanoseconds() / int64(n),
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / int64(n),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / int64(n),
		Iterations:   n,
	}, last, fid, nil
}

func main() {
	var (
		n         = flag.Int("n", 15, "iterations per kernel")
		scFile    = flag.String("scenario", "", "declarative scenario file to benchmark instead of the fixed fat-tree workload (JSON)")
		seedPath  = flag.String("seed", "docs/bench_seed.json", "seed baseline to embed ('' to skip)")
		out       = flag.String("o", "BENCH_hotpath.json", "output report path")
		gatePath  = flag.String("gate", "", "baseline report (e.g. BENCH_hotpath.json); exit nonzero if Unison4 events/s or allocs/op regresses more than -gate-pct against it")
		gatePct   = flag.Float64("gate-pct", 10, "allowed Unison4 events/s (and allocs/op growth) regression percentage for -gate")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. :6060)")
		liveBus   = flag.Bool("live-bus", false, "attach an enabled-but-unattached telemetry bus to every measured run (overhead-gate mode)")

		scale        = flag.Bool("scale", false, "run the fat-tree scale benchmark (memory/node, memory/flow, k x cores sweep) instead of the hot-path suite")
		scaleOut     = flag.String("scale-o", "BENCH_scale.json", "scale report output path")
		scaleMaxK    = flag.Int("scale-max-k", 16, "largest fat-tree k to measure (8 for the CI smoke run)")
		scaleThreads = flag.Int("scale-threads", 4, "Unison threads for the live scale runs")
		scaleGate    = flag.Bool("scale-gate", false, "exit nonzero unless k=8 live bytes/flow is at least 4x below the pre-overhaul baseline and k=8 bytes/node within 10% of the checked-in BENCH_scale.json")
	)
	flag.Parse()
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "unibench: -n must be at least 1")
		os.Exit(2)
	}
	benchScenario = defaultBenchScenario()
	if *scFile != "" {
		sc, err := unison.LoadScenario(*scFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unibench: %v\n", err)
			os.Exit(2)
		}
		benchScenario = sc
	}
	if *scale {
		if err := runScale(*scaleOut, *scaleMaxK, *scaleThreads, *scaleGate); err != nil {
			fmt.Fprintf(os.Stderr, "unibench: scale: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *debugAddr != "" {
		addr, err := obshttp.Serve(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unibench: debug listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("debug http on %s (/debug/vars, /debug/pprof)\n", addr)
	}

	// The gate compares against numbers taken at the baseline's core count,
	// so it measures at that count too: at another one (4 workers on the 2
	// cores of a CI runner, say) the spin barrier oversubscribes and the
	// comparison reads the host, not the change.
	var baseline report
	if *gatePath != "" {
		var err error
		if baseline, err = loadBaseline(*gatePath); err != nil {
			fmt.Fprintf(os.Stderr, "unibench: gate: %v\n", err)
			os.Exit(1)
		}
		if baseline.GOMAXPROCS > 0 {
			host := runtime.GOMAXPROCS(baseline.GOMAXPROCS)
			fmt.Printf("gate: running at the baseline's GOMAXPROCS=%d (host default %d)\n", baseline.GOMAXPROCS, host)
		}
	}

	if *liveBus {
		// The gate's overhead mode: the bus is in front of every measured
		// run, but nothing subscribes — the cost under test is one atomic
		// load per probe call.
		benchProbe = obs.NewBus(nil)
		fmt.Println("live-bus: telemetry bus attached to measured runs (no watcher)")
	}

	rep := report{
		Note: "Kernel hot-path micro-benchmark: fixed fat-tree k=4 workload of bench_test.go, " +
			"fresh numbers under 'current', pre-overhaul baseline under 'seed'.",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Current:    make(map[string]sample, len(kernelOrder)),
	}

	if *seedPath != "" {
		raw, err := os.ReadFile(*seedPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unibench: seed baseline unavailable (%v); reporting current only\n", err)
		} else {
			var sf seedFile
			if err := json.Unmarshal(raw, &sf); err != nil {
				fmt.Fprintf(os.Stderr, "unibench: bad seed baseline: %v\n", err)
				os.Exit(1)
			}
			rep.Seed = sf.Kernels
			rep.SeedNote = sf.Note
			rep.EmptyRound = emptyRoundReport{Parent: sf.EmptyRound, ParentNote: sf.EmptyRoundNote}
		}
	}

	mks := kernels()
	rep.RunStats = make(map[string]*sim.RunStats, len(kernelOrder))
	rep.Fidelity = make(map[string]fidelity, len(kernelOrder))
	for _, name := range kernelOrder {
		if mks[name] == nil {
			continue // no manual-partition recipe for this scenario's topology
		}
		s, st, fid, err := measure(*n, mks[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "unibench: %s: %v\n", name, err)
			os.Exit(1)
		}
		st.RoundTrace = nil // keep the report compact
		rep.Current[name] = s
		rep.RunStats[name] = st
		rep.Fidelity[name] = fid
		fmt.Printf("%-12s %9d events/s  %9d ns/op  %8d B/op  %6d allocs/op  p50 %.3fms p99 %.3fms drops %d\n",
			name, s.EventsPerSec, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp,
			fid.P50FCTms, fid.P99FCTms, fid.Drops)
	}
	var err error
	if rep.EmptyRound.Current, err = runEmptyRound(*n, rep.EmptyRound.Parent); err != nil {
		fmt.Fprintf(os.Stderr, "unibench: empty round: %v\n", err)
		os.Exit(1)
	}

	if rep.Seed != nil {
		rep.Delta = make(map[string]delta, len(rep.Current))
		for name, cur := range rep.Current {
			sd, ok := rep.Seed[name]
			if !ok || sd.EventsPerSec == 0 || sd.AllocsPerOp == 0 {
				continue
			}
			rep.Delta[name] = delta{
				EventsSpeedup: float64(cur.EventsPerSec) / float64(sd.EventsPerSec),
				AllocsRatio:   float64(cur.AllocsPerOp) / float64(sd.AllocsPerOp),
			}
		}
		if d, ok := rep.Delta["Unison4"]; ok {
			fmt.Printf("Unison4 vs seed: %.2fx events/s, %.2fx allocs/op\n", d.EventsSpeedup, d.AllocsRatio)
		}
	}

	rep.scrub()
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "unibench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "unibench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *gatePath != "" {
		if err := gate(baseline, *gatePct, rep.Current); err != nil {
			fmt.Fprintf(os.Stderr, "unibench: gate: %v\n", err)
			os.Exit(1)
		}
	}
}

// loadBaseline reads the report -gate compares against.
func loadBaseline(path string) (report, error) {
	var base report
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("bad baseline %s: %w", path, err)
	}
	if base.Current["Unison4"].EventsPerSec == 0 {
		return base, fmt.Errorf("baseline %s has no Unison4 events/s", path)
	}
	return base, nil
}

// gate compares the fresh Unison4 throughput against a baseline report
// and fails on a regression beyond pct percent — the CI bench smoke gate.
// The measured runs are probe-disabled, so this also pins the cost of the
// observability hooks at (near) zero when nothing is attached.
func gate(base report, pct float64, current map[string]sample) error {
	b := base.Current["Unison4"]
	cur := current["Unison4"]
	change := 100 * (float64(cur.EventsPerSec)/float64(b.EventsPerSec) - 1)
	fmt.Printf("gate: Unison4 %d events/s vs baseline %d (%+.1f%%, threshold -%.0f%%)\n",
		cur.EventsPerSec, b.EventsPerSec, change, pct)
	if change < -pct {
		return fmt.Errorf("Unison4 events/s regressed %.1f%% (limit %.0f%%)", -change, pct)
	}
	if b.AllocsPerOp > 0 {
		growth := 100 * (float64(cur.AllocsPerOp)/float64(b.AllocsPerOp) - 1)
		fmt.Printf("gate: Unison4 %d allocs/op vs baseline %d (%+.1f%%, threshold +%.0f%%)\n",
			cur.AllocsPerOp, b.AllocsPerOp, growth, pct)
		if growth > pct {
			return fmt.Errorf("Unison4 allocs/op grew %.1f%% (limit %.0f%%)", growth, pct)
		}
	}
	return nil
}
