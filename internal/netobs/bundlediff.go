package netobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"unison/internal/flowmon"
	"unison/internal/sim"
)

// Bundle diffing: compare two run-artifact directories metric by metric —
// the `unitrace diff A B` engine. Regressions show up as relative deltas
// on the gated metrics (FCT percentiles, slowdowns, completion counts);
// wall-clock figures are reported but never gated, since two valid runs of
// the same scenario differ in wall time by scheduling noise alone.

// MetricDelta is one compared metric.
type MetricDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	// RelPct is 100*(B-A)/A (0 when both sides are 0; ±Inf collapses to
	// ±100 when only A is 0 so thresholds still bite).
	RelPct float64 `json:"rel_pct"`
	// Gated marks metrics the threshold check applies to.
	Gated bool `json:"gated"`
}

// Delta returns B - A.
func (m *MetricDelta) Delta() float64 { return m.B - m.A }

// BundleDiff is the full comparison of two artifact directories.
type BundleDiff struct {
	ADir string `json:"a_dir"`
	BDir string `json:"b_dir"`

	Metrics []MetricDelta `json:"metrics"`

	// FingerprintA/B are the flow-report result hashes; for two runs of
	// the same scenario they must agree (determinism), for different
	// configurations they legitimately differ, so the mismatch is
	// reported rather than gated.
	FingerprintA     uint64 `json:"fingerprint_a"`
	FingerprintB     uint64 `json:"fingerprint_b"`
	FingerprintMatch bool   `json:"fingerprint_match"`

	// SeriesEqual reports series.csv byte equality ("" when either side
	// lacks the file; "equal"/"differs" otherwise).
	Series string `json:"series,omitempty"`

	// Missing lists files absent from one side but present in the other.
	Missing []string `json:"missing,omitempty"`
}

func relPct(a, b float64) float64 {
	switch {
	case a == 0 && b == 0:
		return 0
	case a == 0:
		if b > 0 {
			return 100
		}
		return -100
	default:
		return 100 * (b - a) / a
	}
}

func readJSONFile(path string, v any) (bool, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	return true, nil
}

// DiffBundles compares the artifact bundles in aDir and bDir. A metric is
// emitted whenever both sides have the file that carries it; files present
// on one side only are listed under Missing.
func DiffBundles(aDir, bDir string) (*BundleDiff, error) {
	d := &BundleDiff{ADir: aDir, BDir: bDir, FingerprintMatch: true}

	var stA, stB sim.RunStats
	okA, err := readJSONFile(filepath.Join(aDir, "run_stats.json"), &stA)
	if err != nil {
		return nil, err
	}
	okB, err := readJSONFile(filepath.Join(bDir, "run_stats.json"), &stB)
	if err != nil {
		return nil, err
	}
	d.noteMissing("run_stats.json", okA, okB)
	if okA && okB {
		d.add("events", float64(stA.Events), float64(stB.Events), true)
		d.add("rounds", float64(stA.Rounds), float64(stB.Rounds), false)
		d.add("wall_s", float64(stA.WallNS)/1e9, float64(stB.WallNS)/1e9, false)
		if stA.Imbalance != nil && stB.Imbalance != nil {
			d.add("imbalance_mean", stA.Imbalance.MeanMaxOverMean, stB.Imbalance.MeanMaxOverMean, false)
			d.add("imbalance_worst", stA.Imbalance.WorstMaxOverMean, stB.Imbalance.WorstMaxOverMean, false)
			d.add("migrations", float64(stA.Imbalance.Migrations), float64(stB.Imbalance.Migrations), false)
		}
	}

	var frA, frB flowmon.FlowReport
	okA, err = readJSONFile(filepath.Join(aDir, "flow_report.json"), &frA)
	if err != nil {
		return nil, err
	}
	okB, err = readJSONFile(filepath.Join(bDir, "flow_report.json"), &frB)
	if err != nil {
		return nil, err
	}
	d.noteMissing("flow_report.json", okA, okB)
	if okA && okB {
		d.add("flows", float64(frA.Flows), float64(frB.Flows), true)
		d.add("completed", float64(frA.Completed), float64(frB.Completed), true)
		d.add("retransmits", float64(frA.Retransmits), float64(frB.Retransmits), true)
		d.add("fct_mean_ms", frA.FCT.Mean, frB.FCT.Mean, true)
		d.add("fct_p50_ms", frA.FCT.P50, frB.FCT.P50, true)
		d.add("fct_p95_ms", frA.FCT.P95, frB.FCT.P95, true)
		d.add("fct_p99_ms", frA.FCT.P99, frB.FCT.P99, true)
		d.add("fct_max_ms", frA.FCT.Max, frB.FCT.Max, true)
		if frA.MeanSlowdown > 0 || frB.MeanSlowdown > 0 {
			d.add("mean_slowdown", frA.MeanSlowdown, frB.MeanSlowdown, true)
			d.add("p99_slowdown", frA.P99Slowdown, frB.P99Slowdown, true)
		}
		d.FingerprintA, d.FingerprintB = frA.Fingerprint, frB.Fingerprint
		d.FingerprintMatch = frA.Fingerprint == frB.Fingerprint
	}

	sa, errA := os.ReadFile(filepath.Join(aDir, "series.csv"))
	sb, errB := os.ReadFile(filepath.Join(bDir, "series.csv"))
	switch {
	case errA == nil && errB == nil:
		if bytes.Equal(sa, sb) {
			d.Series = "equal"
		} else {
			d.Series = "differs"
		}
	case errA == nil || errB == nil:
		d.noteMissing("series.csv", errA == nil, errB == nil)
	}

	if len(d.Metrics) == 0 && len(d.Missing) == 0 {
		return nil, fmt.Errorf("netobs: nothing comparable between %s and %s (no run_stats.json, flow_report.json or series.csv)", aDir, bDir)
	}
	return d, nil
}

func (d *BundleDiff) add(name string, a, b float64, gated bool) {
	d.Metrics = append(d.Metrics, MetricDelta{
		Name: name, A: a, B: b, RelPct: relPct(a, b), Gated: gated,
	})
}

func (d *BundleDiff) noteMissing(name string, okA, okB bool) {
	switch {
	case okA && !okB:
		d.Missing = append(d.Missing, fmt.Sprintf("%s (only in %s)", name, d.ADir))
	case !okA && okB:
		d.Missing = append(d.Missing, fmt.Sprintf("%s (only in %s)", name, d.BDir))
	}
}

// Breaches returns the gated metrics whose relative delta magnitude
// exceeds pct percent.
func (d *BundleDiff) Breaches(pct float64) []MetricDelta {
	var out []MetricDelta
	for _, m := range d.Metrics {
		if m.Gated && math.Abs(m.RelPct) > pct {
			out = append(out, m)
		}
	}
	return out
}

// Render prints the comparison as a fixed-width table.
func (d *BundleDiff) Render(w io.Writer) {
	fmt.Fprintf(w, "bundle diff: A=%s  B=%s\n", d.ADir, d.BDir)
	fmt.Fprintf(w, "%-18s %14s %14s %12s %9s\n", "metric", "A", "B", "delta", "rel")
	for _, m := range d.Metrics {
		gate := " "
		if m.Gated {
			gate = "*"
		}
		fmt.Fprintf(w, "%-17s%s %14.4f %14.4f %+12.4f %+8.2f%%\n",
			m.Name, gate, m.A, m.B, m.Delta(), m.RelPct)
	}
	if d.FingerprintA != 0 || d.FingerprintB != 0 {
		state := "MATCH"
		if !d.FingerprintMatch {
			state = "MISMATCH"
		}
		fmt.Fprintf(w, "%-18s %16x %16x  %s\n", "fingerprint", d.FingerprintA, d.FingerprintB, state)
	}
	if d.Series != "" {
		fmt.Fprintf(w, "%-18s %s\n", "series.csv", d.Series)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(w, "missing: %s\n", m)
	}
	fmt.Fprintln(w, "(* = gated metric: counts against the -threshold check)")
}
