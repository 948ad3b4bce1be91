package main

// Scale benchmark: memory-per-node and memory-per-flow accounting for
// k-ary fat-trees under the streaming workload path, written as
// BENCH_scale.json. Complements the hot-path report: BENCH_hotpath.json
// answers "how fast", this file answers "how big" — the two axes of the
// scale-out story (large topologies on a single box).
//
// The report embeds the pre-overhaul k=8 measurements (per-pointer conn
// maps, materialized flow slices, per-device heap allocations) taken on
// the same scenario before the struct-of-arrays/arena layouts landed, so
// every run carries its own before/after comparison. The -scale-gate
// flag enforces the headline acceptance figure — live bytes/flow at k=8
// must stay at least 4x below that baseline — and holds set-up memory,
// k=8 bytes/node, within 10 % of the checked-in BENCH_scale.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"unison"
	"unison/internal/core"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/vtime"
)

// preBaseline is the pre-overhaul measurement at k=8 on exactly this
// file's scenario (1 Gbps links, 3 us delay, GRPC sizes at load 0.3,
// seed 42, stop 40 ms, 5896 flows, Unison 4 threads): per-host
// map[FlowID]*conn stores retaining every record to the end of the run,
// []FlowSpec materialized up front, per-device pointer structs. Its
// bytes/flow uses the same definition as scaleRun.BytesPerFlow — live
// heap growth across the run minus queue-ring growth (queue rings are
// per-device working memory that exists at any flow count; both layouts
// retain ~1.2 MB of them on this scenario) — so the gate compares
// flow-attributable state only. Recorded here so the gate and the
// report survive the deletion of that code path. The pre-overhaul run's
// monitor fingerprint was 14758583956524210324, which the streaming
// runs must (and do) reproduce.
var preBaseline = scaleBaseline{
	K:            8,
	BytesPerNode: 15680,
	BytesPerFlow: 634,
	AllocPerFlow: 3023,
	Note: "pre-overhaul layout: pointer conn maps retained per flow, materialized " +
		"flow slice, per-device allocations (measured on the same k=8 scenario; " +
		"bytes/flow excludes queue-ring growth on both sides)",
}

type scaleBaseline struct {
	K            int    `json:"k"`
	BytesPerNode int64  `json:"bytes_per_node"`
	BytesPerFlow int64  `json:"bytes_per_flow"`
	AllocPerFlow int64  `json:"alloc_bytes_per_flow"`
	Note         string `json:"note"`
}

// scaleRun is one live-kernel run at one k: topology sizes, run outcome,
// and the memory split between static state (bytes/node) and flow state
// (bytes/flow), from runtime.MemStats deltas plus component self-reports.
type scaleRun struct {
	K           int     `json:"k"`
	Kernel      string  `json:"kernel"`
	Nodes       int     `json:"nodes"`
	Links       int     `json:"links"`
	Flows       int     `json:"flows"`
	Events      uint64  `json:"events"`
	WallMs      float64 `json:"wall_ms"`
	Completed   int     `json:"completed"`
	Fingerprint uint64  `json:"fingerprint"`

	// Heap accounting: live bytes after double-GC at three points.
	// Queue rings are per-device working memory (they grow to each
	// device's peak occupancy regardless of how many flows pass), so
	// their growth is split out of the per-flow figure.
	BuildHeapBytes   int64 `json:"build_heap_bytes"`     // after topology+net+stack
	RunHeapBytes     int64 `json:"run_heap_bytes"`       // after the run completes
	QueueGrowthBytes int64 `json:"queue_growth_bytes"`   // ring growth during the run
	BytesPerNode     int64 `json:"bytes_per_node"`       // build delta / nodes
	BytesPerFlow     int64 `json:"bytes_per_flow"`       // (run delta - queue growth) / flows
	AllocPerFlow     int64 `json:"alloc_bytes_per_flow"` // cumulative alloc / flows

	// Component self-reports (what the accounted bytes are made of).
	StackMem unison.StackMemStats `json:"stack_mem"`
	NetMem   unison.NetMemStats   `json:"net_mem"`
	MonBytes int64                `json:"monitor_bytes"`

	// The scenario's ECMP forwarding table, and the median time of
	// routingBuilds fresh builds of it after the run.
	RoutingBytes   int64   `json:"routing_bytes"`
	RoutingBuildMs float64 `json:"routing_build_ms"`
}

// sweepRow is one cell of the k x cores virtual-testbed speedup table
// (the unison-testbed evaluation shape: rows are topologies, columns are
// core counts, cells are speedup over the sequential baseline).
type sweepRow struct {
	K            int     `json:"k"`
	Cores        int     `json:"cores"`
	Events       uint64  `json:"events"`
	SeqVirtualMs float64 `json:"sequential_virtual_ms"`
	UniVirtualMs float64 `json:"unison_virtual_ms"`
	Speedup      float64 `json:"speedup"`
}

type scaleReport struct {
	Note       string        `json:"note"`
	Go         string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Generated  string        `json:"generated"`
	Baseline   scaleBaseline `json:"baseline_pre_overhaul"`
	Runs       []scaleRun    `json:"runs"`
	Sweep      []sweepRow    `json:"sweep"`
}

// scrub replaces non-finite floats with 0 so the report encode cannot
// fail at run end (a zero-duration sequential run would make Speedup Inf).
func (r *scaleReport) scrub() {
	for i := range r.Runs {
		r.Runs[i].WallMs = finite(r.Runs[i].WallMs)
	}
	for i := range r.Sweep {
		s := &r.Sweep[i]
		s.SeqVirtualMs = finite(s.SeqVirtualMs)
		s.UniVirtualMs = finite(s.UniVirtualMs)
		s.Speedup = finite(s.Speedup)
	}
}

const (
	scaleStop = 40 * sim.Millisecond
	scaleLoad = 0.3
	scaleSeed = 42
)

// scaleScenario assembles the k-ary streaming scenario used by every
// scale measurement: 1 Gbps links, GRPC flow sizes at load 0.3, flows
// pulled on demand (nothing materialized).
func scaleScenario(k int) (*unison.Sim, int) {
	sc := unison.DefaultScenario()
	sc.Seed = scaleSeed
	sc.Stop = unison.ScenarioDuration(scaleStop)
	sc.Topology.K = k
	sc.Topology.BwGbps = 1
	sc.Traffic.Load = scaleLoad
	sc.Traffic.End = unison.ScenarioDuration(scaleStop / 2)
	sc.Traffic.Stream = true
	b, err := sc.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "unibench: scale: %v\n", err)
		os.Exit(1)
	}
	return b.Sim, b.Flows
}

// routingBuilds is how many table builds routing_build_ms is the median of.
const routingBuilds = 9

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heapSlack is the live-heap jitter budget: GC metadata, timer wheels and
// runtime bookkeeping can move a double-GC heap reading by tens of KiB in
// either direction between two readings of identical state.
const heapSlack = 256 << 10

// flowHeap is the raw flow-attributable heap growth of one pass.
func flowHeap(r *scaleRun) int64 {
	return r.RunHeapBytes - r.BuildHeapBytes - r.QueueGrowthBytes
}

// measureScale measures the k-ary scenario twice and keeps the pass with
// the smaller flow-attributable heap growth: GC timing can only inflate a
// live-heap reading, so the min across passes is the cleaner measurement.
// Residual negative deltas within heapSlack are clamped to zero (they are
// jitter, and a negative bytes/flow figure is nonsense); a delta negative
// beyond the slack means the accounting itself broke — most likely the
// queue-growth split over-subtracting — and fails the run loudly instead
// of publishing a bogus number.
func measureScale(k, threads int) (scaleRun, error) {
	r, err := measureScaleOnce(k, threads)
	if err != nil {
		return scaleRun{}, err
	}
	r2, err := measureScaleOnce(k, threads)
	if err != nil {
		return scaleRun{}, err
	}
	if r2.Fingerprint != r.Fingerprint {
		return scaleRun{}, fmt.Errorf("k=%d: measurement passes diverged (fingerprint %x vs %x)", k, r.Fingerprint, r2.Fingerprint)
	}
	if flowHeap(&r2) < flowHeap(&r) {
		r = r2
	}
	raw := flowHeap(&r)
	if raw < -heapSlack {
		return scaleRun{}, fmt.Errorf("k=%d: flow heap delta %d B is negative beyond the %d B GC jitter budget — the queue-growth split is over-subtracting", k, raw, heapSlack)
	}
	if raw < 0 {
		raw = 0
	}
	r.BytesPerFlow = raw / int64(r.Flows)
	if r.BuildHeapBytes < 0 {
		r.BuildHeapBytes = 0
	}
	r.BytesPerNode = r.BuildHeapBytes / int64(r.Nodes)
	return r, nil
}

// measureScaleOnce runs the k-ary scenario once under Unison(threads) and
// accounts its memory. The scenario stays reachable across every heap
// reading (KeepAlive), so the GC cannot shrink what we are measuring.
func measureScaleOnce(k, threads int) (scaleRun, error) {
	h0 := liveHeap()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	sc, count := scaleScenario(k)
	m := sc.Model()
	hBuild := liveHeap()
	queueAtBuild := sc.Net.Mem().QueueBytes

	start := time.Now()
	st, err := core.New(core.Config{Threads: threads}).Run(m)
	if err != nil {
		return scaleRun{}, fmt.Errorf("k=%d: %w", k, err)
	}
	wall := time.Since(start)
	hRun := liveHeap()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	nodes := sc.G.N()
	netMem := sc.Net.Mem()
	queueGrowth := netMem.QueueBytes - queueAtBuild
	r := scaleRun{
		K:           k,
		Kernel:      st.Kernel,
		Nodes:       nodes,
		Links:       len(sc.G.Links),
		Flows:       count,
		Events:      st.Events,
		WallMs:      float64(wall.Nanoseconds()) / 1e6,
		Completed:   sc.Mon.Completed(),
		Fingerprint: sc.Mon.Fingerprint(),

		BuildHeapBytes:   hBuild - h0,
		RunHeapBytes:     hRun - h0,
		QueueGrowthBytes: queueGrowth,
		BytesPerNode:     (hBuild - h0) / int64(nodes),
		BytesPerFlow:     (hRun - hBuild - queueGrowth) / int64(count),
		AllocPerFlow:     int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(count),

		StackMem: sc.Stack.Mem(),
		NetMem:   netMem,
		MonBytes: sc.Mon.MemBytes(),
	}
	r.RoutingBytes = int64(sc.Net.Router.(*routing.ECMP).MemBytes())
	builds := make([]float64, routingBuilds)
	for i := range builds {
		start = time.Now()
		routing.NewECMP(sc.G, routing.Hops, scaleSeed)
		builds[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	r.RoutingBuildMs = stats.Quantile(builds, 0.5)
	runtime.KeepAlive(sc)
	runtime.KeepAlive(m)
	return r, nil
}

// measureSweep fills the k x cores virtual-testbed table: one sequential
// baseline per k, then Unison at each core count, speedup in virtual
// time (deterministic, machine-independent).
func measureSweep(ks, cores []int) ([]sweepRow, error) {
	var rows []sweepRow
	for _, k := range ks {
		sc, _ := scaleScenario(k)
		seq, err := vtime.Run(sc.Model(), vtime.Config{Algo: vtime.Sequential})
		if err != nil {
			return nil, fmt.Errorf("sweep k=%d sequential: %w", k, err)
		}
		for _, c := range cores {
			scU, _ := scaleScenario(k)
			uni, err := vtime.Run(scU.Model(), vtime.Config{Algo: vtime.Unison, Cores: c})
			if err != nil {
				return nil, fmt.Errorf("sweep k=%d cores=%d: %w", k, c, err)
			}
			rows = append(rows, sweepRow{
				K:            k,
				Cores:        c,
				Events:       uni.Events,
				SeqVirtualMs: float64(seq.VirtualT) / 1e6,
				UniVirtualMs: float64(uni.VirtualT) / 1e6,
				Speedup:      vtime.Speedup(seq, uni),
			})
		}
	}
	return rows, nil
}

// scaleBaselinePath is the checked-in report the gate compares set-up
// memory against.
const scaleBaselinePath = "BENCH_scale.json"

// runScale executes the scale suite (live runs for each k, then the
// virtual k x cores sweep), writes the report, and enforces the
// bytes/flow and bytes/node gates when asked.
func runScale(out string, maxK, threads int, gate bool) error {
	var checkedIn scaleReport
	if gate { // read before the report is written: out may be the same file
		buf, err := os.ReadFile(scaleBaselinePath)
		if err == nil {
			err = json.Unmarshal(buf, &checkedIn)
		}
		if err == nil && (len(checkedIn.Runs) == 0 || checkedIn.Runs[0].K != 8) {
			err = fmt.Errorf("%s: first run is not k=8", scaleBaselinePath)
		}
		if err != nil {
			return fmt.Errorf("scale-gate baseline: %w", err)
		}
	}
	ks := []int{8}
	if maxK >= 16 {
		ks = append(ks, 16)
	}
	rep := scaleReport{
		Note: "Fat-tree scale benchmark: streaming workload, SoA device state, arena conn store. " +
			"bytes_per_node = static state / nodes; bytes_per_flow = live flow state / flows. " +
			"Sweep is the virtual-testbed k x cores speedup table.",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Baseline:   preBaseline,
	}
	for _, k := range ks {
		r, err := measureScale(k, threads)
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, r)
		fmt.Printf("scale k=%-2d  %5d nodes %6d flows %9d events  %7.0fms  %5d B/node  %5d B/flow  %6d allocB/flow  live conns peak %d  routing %d B built in %.1fms\n",
			r.K, r.Nodes, r.Flows, r.Events, r.WallMs, r.BytesPerNode, r.BytesPerFlow, r.AllocPerFlow, r.StackMem.PeakConns,
			r.RoutingBytes, r.RoutingBuildMs)
	}
	sweep, err := measureSweep(ks, []int{8, 16})
	if err != nil {
		return err
	}
	rep.Sweep = sweep
	for _, s := range sweep {
		fmt.Printf("sweep k=%-2d c=%-2d  seq %.1fms  unison %.1fms  speedup %.2fx\n",
			s.K, s.Cores, s.SeqVirtualMs, s.UniVirtualMs, s.Speedup)
	}

	rep.scrub()
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)

	if gate {
		limit := preBaseline.BytesPerFlow / 4
		got := rep.Runs[0].BytesPerFlow
		fmt.Printf("scale-gate: k=8 bytes/flow %d vs pre-overhaul %d (limit %d = baseline/4)\n",
			got, preBaseline.BytesPerFlow, limit)
		if got > limit {
			return fmt.Errorf("k=8 bytes/flow %d exceeds %d (pre-overhaul %d / 4)",
				got, limit, preBaseline.BytesPerFlow)
		}
		// Build heap repeats to about 1 %, so 10 % is a real change.
		base := checkedIn.Runs[0].BytesPerNode
		limit, got = base+base/10, rep.Runs[0].BytesPerNode
		fmt.Printf("scale-gate: k=8 bytes/node %d vs %s %d (limit %d = +10%%)\n", got, scaleBaselinePath, base, limit)
		if got > limit {
			return fmt.Errorf("k=8 bytes/node %d exceeds %d (%s %d + 10%%)", got, limit, scaleBaselinePath, base)
		}
	}
	return nil
}
