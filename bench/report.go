package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric. The end-to-end list and the per-layer list
// below are the benchmark's vocabulary: BENCHMARK.json repeats them (a
// test keeps the two in step) and perf PRs cite metrics by these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer is every layer metric, in print order. A metric whose layer a
// workload does not exercise reads 0 there (pdes.* outside
// dc-k4.other-kernels, core.* under the sequential kernel, ...).
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "sim.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "des.event_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.push_pop_ns.d16", Unit: "ns", Better: "lower"},
	{Name: "eventq.push_pop_ns.d1k", Unit: "ns", Better: "lower"},
	{Name: "eventq.push_pop_ns.d64k", Unit: "ns", Better: "lower"},
	{Name: "eventq.pushbatch_ns_per_ev", Unit: "ns", Better: "lower"},
	{Name: "netdev.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netdev.hop_ns.min", Unit: "ns", Better: "lower"},
	{Name: "netdev.tx_packets", Unit: "count", Better: "lower"},
	{Name: "netdev.drops", Unit: "count", Better: "lower"},
	{Name: "tcp.segment_ns", Unit: "ns", Better: "lower"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower"},
	{Name: "tcp.flows_completed", Unit: "count", Better: "higher"},
	{Name: "routing.nextlink_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.build_s", Unit: "s", Better: "lower"},
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "traffic.gen_s", Unit: "s", Better: "lower"},
	{Name: "app.wire_s", Unit: "s", Better: "lower"},
	{Name: "flowmon.record_ns", Unit: "ns", Better: "lower"},
	{Name: "flowmon.report_s", Unit: "s", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.events_per_round", Unit: "count", Better: "higher"},
	{Name: "core.p_share", Unit: "ratio", Better: "higher"},
	{Name: "core.s_share", Unit: "ratio", Better: "lower"},
	{Name: "core.m_share", Unit: "ratio", Better: "lower"},
	{Name: "core.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "core.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "core.empty_round_ns", Unit: "ns", Better: "lower"},
	{Name: "syncx.barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "pdes.barrier_wall_s", Unit: "s", Better: "lower"},
	{Name: "pdes.nullmsg_wall_s", Unit: "s", Better: "lower"},
	{Name: "core.hybrid_wall_s", Unit: "s", Better: "lower"},
	{Name: "dist.wall_s", Unit: "s", Better: "lower"},
	{Name: "dist.round_us", Unit: "us", Better: "lower"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.round_record_ns", Unit: "ns", Better: "lower"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	{Name: "ledger.est_share.dispatch", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.eventq", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.netdev", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.tcp", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.routing", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.flowmon", Unit: "ratio", Better: "lower"},
	{Name: "ledger.est_share.sync", Unit: "ratio", Better: "lower"},
	{Name: "ledger.residual_pct", Unit: "%", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default "exclusive" method), so a spread computed here and
// one computed by a driver script agree. A single value is all three of
// its own quartiles, and no values have quartiles 0.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// steady reduces repeated measurements of the same deterministic work to
// the one value the benchmark reports: their lower quartile. On a shared
// host interference comes in bursts of seconds and only ever adds time, so
// the low side of the repetitions is the program and the high side is the
// neighbours: across ten seeds the lower quartile's spread was half the
// median's. It is 0 for no measurements.
func steady(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

// sampleSet is one end-to-end metric on one workload: every measured
// repetition's value and their summary. Value is the reported one.
type sampleSet struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(def metricDef, values []float64) sampleSet {
	s := sampleSet{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.Min = values[0]
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
	}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	s.Value = steady(values)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s *sampleSet) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

type layerValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is everything one workload produced in one invocation.
type workloadResult struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Sim is the simulated outcome every kernel run of the workload agreed on.
	Sim simStats `json:"sim"`
	// HostCalibNS is the pure-CPU calibration loop timed before each
	// repetition; CalibFlagged lists repetitions more than 10% off the
	// median — host noise, kept in the samples but marked.
	HostCalibNS  []int64      `json:"host_calib_ns"`
	CalibFlagged []int        `json:"calib_flagged,omitempty"`
	EndToEnd     []sampleSet  `json:"end_to_end"`
	PerLayer     []layerValue `json:"per_layer,omitempty"`
}

func (w *workloadResult) metric(name string) *sampleSet {
	for i := range w.EndToEnd {
		if w.EndToEnd[i].Name == name {
			return &w.EndToEnd[i]
		}
	}
	return nil
}

type hostInfo struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"kernel_threads"`
}

// result is bench/results/latest.json.
type result struct {
	Schema    string           `json:"schema"`
	Generated string           `json:"generated"`
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

const schema = "unison-bench/1"

func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// scrub replaces non-finite floats with 0 so the encode cannot fail at the
// end of a long run (a ratio against a zero-length control, say).
func (r *result) scrub() {
	for i := range r.Workloads {
		w := &r.Workloads[i]
		w.Sim.MeanFCTms = finite(w.Sim.MeanFCTms)
		for j := range w.EndToEnd {
			s := &w.EndToEnd[j]
			s.Value, s.Median, s.Min, s.Q1, s.Q3 = finite(s.Value), finite(s.Median), finite(s.Min), finite(s.Q1), finite(s.Q3)
			for k := range s.Values {
				s.Values[k] = finite(s.Values[k])
			}
		}
		for j := range w.PerLayer {
			w.PerLayer[j].Value = finite(w.PerLayer[j].Value)
		}
	}
}

func (r *result) write(path string) error {
	r.scrub()
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
	}
	return &r, nil
}

func (r *result) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: %s %s/%s nproc=%d GOMAXPROCS=%d kernel threads=%d  seed=%d\n",
		h.Go, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.Threads, r.Seed)
	fmt.Fprintf(w, "%-24s %-14s %-5s %12s %12s %12s %12s %3s %8s\n",
		"workload", "metric", "unit", "value (q1)", "median", "q3", "min", "n", "spread")
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		for j := range wl.EndToEnd {
			s := &wl.EndToEnd[j]
			fmt.Fprintf(w, "%-24s %-14s %-5s %12.6g %12.6g %12.6g %12.6g %3d %7.1f%%\n",
				wl.Name, s.Name, s.Unit, s.Value, s.Median, s.Q3, s.Min, s.N, 100*s.spread())
		}
		fmt.Fprintf(w, "%-24s failed/attempted %d/%d  events=%d fingerprint=%s flows_completed=%d/%d drops=%d retransmits=%d mean_fct_ms=%.6g",
			wl.Name, wl.Failed, wl.Attempted, wl.Sim.Events, wl.Sim.Fingerprint,
			wl.Sim.Completed, wl.Sim.Flows, wl.Sim.Drops, wl.Sim.Retransmits, wl.Sim.MeanFCTms)
		if len(wl.CalibFlagged) > 0 {
			fmt.Fprintf(w, "  noisy reps (host_calib_ns >10%% off) %v", wl.CalibFlagged)
		}
		fmt.Fprintln(w)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "%-24s FAILED: %s\n", wl.Name, f)
		}
	}
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		for _, l := range wl.PerLayer {
			fmt.Fprintf(w, "%-24s %-28s %-6s %14.6g\n", wl.Name, l.Name, l.Unit, l.Value)
		}
	}
}

// compare prints, per (workload, end-to-end metric), both values with
// their medians and upper quartiles, the ratio b/a, and a verdict:
// "unresolved" when either side's spread is wider than the metric's bound
// (the runs cannot tell a change of that size from noise), "worse" when b's
// value is worse than a's by more than the bound, else "ok". It returns
// the number of rows not "ok".
func compare(w io.Writer, a, b *result) int {
	fmt.Fprintf(w, "%-24s %-14s %12s %-25s %12s %-25s %20s %6s  %s\n",
		"workload", "metric", "A value", "A [median,q3]", "B value", "B [median,q3]", "B/A (base A)", "bound", "verdict")
	bad := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadResult
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			continue
		}
		for j := range wa.EndToEnd {
			sa := &wa.EndToEnd[j]
			sb := wb.metric(sa.Name)
			if sb == nil {
				continue
			}
			v := verdict(sa, sb)
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(w, "%-24s %-14s %12.6g %-25s %12.6g %-25s %8.4f of %-8.4g %5.0f%%  %s\n",
				wa.Name, sa.Name, sa.Value, fmt.Sprintf("[%.5g,%.5g]", sa.Median, sa.Q3),
				sb.Value, fmt.Sprintf("[%.5g,%.5g]", sb.Median, sb.Q3),
				finite(sb.Value/sa.Value), sa.Value, 100*sa.Bound, v)
		}
	}
	return bad
}

func verdict(a, b *sampleSet) string {
	// setup_s is a few milliseconds on most workloads: single repetitions
	// scatter by a fifth around a median that repeats to a few percent. The
	// benchmark contract exempts it from the spread test, and so does this.
	if a.Name != "setup_s" && math.Max(a.spread(), b.spread()) > a.Bound {
		return "unresolved"
	}
	change := finite(b.Value/a.Value) - 1
	if a.Better == "higher" {
		change = -change
	}
	if change > a.Bound {
		return "worse"
	}
	return "ok"
}
