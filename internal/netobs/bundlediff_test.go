package netobs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unison/internal/sim"
)

func jsonUnmarshal(s string, v any) error { return json.Unmarshal([]byte(s), v) }

func writeBundleDir(t *testing.T, stats, flow, series string) string {
	t.Helper()
	dir := t.TempDir()
	if stats != "" {
		if err := os.WriteFile(filepath.Join(dir, "run_stats.json"), []byte(stats), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if flow != "" {
		if err := os.WriteFile(filepath.Join(dir, "flow_report.json"), []byte(flow), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if series != "" {
		if err := os.WriteFile(filepath.Join(dir, "series.csv"), []byte(series), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const statsA = `{"kernel":"unison(t=4)","events":1000,"rounds":50,"wall_ns":2000000,
  "imbalance":{"rounds":50,"mean_max_over_mean":1.2,"worst_max_over_mean":2.0,"worst_round":7,"worst_worker":1,"straggler_worker":0,"straggler_share":0.5,"migrations":3}}`
const flowA = `{"flows":100,"completed":100,"retransmits":2,
  "fct":{"count":100,"mean_ms":1.0,"p50_ms":0.8,"p95_ms":2.0,"p99_ms":3.0,"max_ms":5.0},
  "goodput":{"bucket_mbps":100,"counts":[1],"over":0},"fingerprint":12345,"per_flow":[]}`

func TestDiffBundlesIdentical(t *testing.T) {
	a := writeBundleDir(t, statsA, flowA, "tick,node\n1,2\n")
	b := writeBundleDir(t, statsA, flowA, "tick,node\n1,2\n")
	d, err := DiffBundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if br := d.Breaches(0.001); br != nil {
		t.Fatalf("identical bundles breached: %+v", br)
	}
	if !d.FingerprintMatch || d.Series != "equal" {
		t.Fatalf("fingerprint/series: %+v", d)
	}
	var sawImb bool
	for _, m := range d.Metrics {
		if m.Name == "imbalance_mean" {
			sawImb = true
			if m.A != 1.2 || m.RelPct != 0 {
				t.Fatalf("imbalance metric: %+v", m)
			}
		}
	}
	if !sawImb {
		t.Fatal("imbalance metrics missing from diff")
	}
}

func TestDiffBundlesBreach(t *testing.T) {
	statsB := strings.Replace(statsA, `"events":1000`, `"events":1500`, 1)
	flowB := strings.Replace(flowA, `"p99_ms":3.0`, `"p99_ms":4.5`, 1)
	flowB = strings.Replace(flowB, `"fingerprint":12345`, `"fingerprint":999`, 1)
	a := writeBundleDir(t, statsA, flowA, "x\n")
	b := writeBundleDir(t, statsB, flowB, "y\n")
	d, err := DiffBundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	br := d.Breaches(10)
	names := map[string]bool{}
	for _, m := range br {
		names[m.Name] = true
	}
	if !names["events"] || !names["fct_p99_ms"] {
		t.Fatalf("breaches = %+v", br)
	}
	// rounds changed 0% and wall time is ungated — neither may breach.
	if names["rounds"] || names["wall_s"] {
		t.Fatalf("ungated metric breached: %+v", br)
	}
	if d.FingerprintMatch || d.Series != "differs" {
		t.Fatalf("fingerprint/series: match=%v series=%q", d.FingerprintMatch, d.Series)
	}
	// Threshold above every delta: no breach.
	if br := d.Breaches(100); br != nil {
		t.Fatalf("loose threshold still breached: %+v", br)
	}
}

func TestDiffBundlesMissingFiles(t *testing.T) {
	a := writeBundleDir(t, statsA, "", "")
	b := writeBundleDir(t, "", flowA, "")
	d, err := DiffBundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Missing) != 2 {
		t.Fatalf("missing = %+v", d.Missing)
	}
	if len(d.Metrics) != 0 {
		t.Fatalf("no shared files, but metrics = %+v", d.Metrics)
	}

	empty1, empty2 := t.TempDir(), t.TempDir()
	if _, err := DiffBundles(empty1, empty2); err == nil {
		t.Fatal("two empty dirs should be an error")
	}
}

func TestDiffBundlesRender(t *testing.T) {
	a := writeBundleDir(t, statsA, flowA, "")
	d, err := DiffBundles(a, a)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	d.Render(&sb)
	out := sb.String()
	for _, want := range []string{"fct_p99_ms", "fingerprint", "MATCH", "events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRelPct(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{100, 110, 10},
		{100, 90, -10},
		{0, 0, 0},
		{0, 5, 100},
		{0, -5, -100},
	}
	for _, c := range cases {
		if got := relPct(c.a, c.b); got != c.want {
			t.Fatalf("relPct(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

// Guard: sim.RunStats must keep unmarshalling the stable keys bundlediff
// reads (a rename would silently zero the diff).
func TestRunStatsJSONKeysStable(t *testing.T) {
	var st sim.RunStats
	if err := jsonUnmarshal(statsA, &st); err != nil {
		t.Fatal(err)
	}
	if st.Events != 1000 || st.Imbalance == nil || st.Imbalance.Migrations != 3 {
		t.Fatalf("decoded: %+v", st)
	}
}

// FuzzDiffBundles: whatever run_stats.json and flow_report.json hold on
// either side (an empty input is a missing file), DiffBundles returns an
// error or a diff that renders and gates without panicking.
func FuzzDiffBundles(f *testing.F) {
	f.Add([]byte(statsA), []byte(flowA), []byte(statsA), []byte(flowA))
	f.Add([]byte(statsA), []byte{}, []byte{}, []byte(flowA))
	f.Add([]byte(`{"events":-1,"imbalance":{"mean_max_over_mean":1e308}}`), []byte(`{"fct":{"mean_ms":0}}`),
		[]byte(`{"events":0,"imbalance":null}`), []byte(`{"flows":1e300,"mean_slowdown":-0.5}`))
	f.Add([]byte(`{`), []byte(`null`), []byte(`[]`), []byte(`"x"`))
	f.Fuzz(func(t *testing.T, statsA, flowA, statsB, flowB []byte) {
		a := writeBundleDir(t, string(statsA), string(flowA), "")
		b := writeBundleDir(t, string(statsB), string(flowB), "")
		d, err := DiffBundles(a, b)
		if err != nil {
			return
		}
		d.Render(io.Discard)
		_ = d.Breaches(5)
	})
}
