package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"unison/internal/sim"
)

// TestWorkloadsRunTiny builds and runs every workload at a fraction of
// its stop time: the warm-up (a sequential reference plus every kernel)
// and one measured repetition must agree on the flow fingerprint.
func TestWorkloadsRunTiny(t *testing.T) {
	tmp := t.TempDir()
	for i := range workloads {
		s := workloads[i]
		s.Stop /= 20
		if s.Stop < 100*sim.Microsecond {
			s.Stop = 100 * sim.Microsecond
		}
		r := &runner{spec: &s, seed: 42, tmp: tmp}
		r.warmup()
		r.measure()
		if r.failed > 0 || len(r.reps) != 1 {
			t.Errorf("%s: %d of %d operations failed: %v", s.Name, r.failed, r.attempt, r.failures)
			continue
		}
		for _, o := range r.reps[0].outcomes {
			if o.Sim.Fingerprint != r.ref.Sim.Fingerprint {
				t.Errorf("%s/%s: fingerprint %s, sequential reference %s", s.Name, o.Kernel, o.Sim.Fingerprint, r.ref.Sim.Fingerprint)
			}
		}
		w := r.result()
		for _, m := range w.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.Name, m.Name, m.Value)
			}
		}
	}
}

// TestLayersReportEveryMetric runs the traced pass on the smallest
// workload and checks that it yields exactly the per-layer vocabulary and
// that the set-up spans add up to the set-up time they break down.
func TestLayersReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer drivers take a few seconds")
	}
	s := workloads[5]
	if s.Name != "dc-k4.other-kernels" {
		t.Fatalf("workloads[5] is %s", s.Name)
	}
	s.Stop /= 10
	r := &runner{spec: &s, seed: 42, tmp: t.TempDir()}
	r.warmup()
	r.measure()
	tr := newTracer()
	got := r.layers(tr)
	if r.failed > 0 {
		t.Fatalf("failures: %v", r.failures)
	}
	if len(got) != len(perLayer) {
		t.Fatalf("%d layer metrics, want %d", len(got), len(perLayer))
	}
	for i, l := range got {
		if l.Name != perLayer[i].Name || l.Unit != perLayer[i].Unit {
			t.Errorf("metric %d is %s [%s], want %s [%s]", i, l.Name, l.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	phases := map[int]int64{}
	for _, sp := range tr.spans {
		if strings.HasPrefix(sp.Name, "setup/") {
			phases[sp.Parent] += sp.EndNS - sp.StartNS
		}
	}
	if len(phases) != len(s.Kernels) {
		t.Errorf("%d set-up spans, want one per kernel (%d)", len(phases), len(s.Kernels))
	}
	for id, sum := range phases {
		if whole := tr.spans[id].EndNS - tr.spans[id].StartNS; sum != whole {
			t.Errorf("setup/* spans sum to %d ns, setup span is %d ns", sum, whole)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// synthetic is a one-workload result whose wall_s samples are given.
func synthetic(wall ...float64) *result {
	return &result{
		Schema: schema, Seed: 42, Seconds: 1,
		Workloads: []workloadResult{{
			Name: "dc-k8.seq", Attempted: len(wall), HostCalibNS: []int64{1, 2},
			Sim:      simStats{Events: 10, Fingerprint: "00000000000000ff", MeanFCTms: 0.5},
			EndToEnd: []sampleSet{summarize(endToEnd[0], wall)},
			PerLayer: []layerValue{{Name: "sim.events", Unit: "count", Value: 10}},
		}},
	}
}

func TestResultRoundTrips(t *testing.T) {
	want := synthetic(1, 1.01, 0.99, 1.02, 1)
	path := filepath.Join(t.TempDir(), "r", "latest.json")
	if err := want.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a result of another schema was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := synthetic(1, 1.01, 0.99, 1.02, 1, 0.98, 1.01)
	for _, c := range []struct {
		name string
		b    *result
		want string
	}{
		{"same", synthetic(1.01, 1, 0.99, 1.02, 1.01, 1, 0.99), "ok"},
		{"faster", synthetic(0.5, 0.51, 0.5, 0.49, 0.5, 0.5, 0.51), "ok"},
		{"within bound", synthetic(1.1, 1.11, 1.09, 1.1, 1.12, 1.1, 1.1), "ok"},
		{"slower", synthetic(1.3, 1.31, 1.29, 1.3, 1.32, 1.3, 1.3), "worse"},
		{"noisy", synthetic(0.7, 1.4, 1, 0.8, 1.3, 1.1, 0.9), "unresolved"},
	} {
		var out bytes.Buffer
		bad := compare(&out, base, c.b)
		if !strings.Contains(out.String(), c.want) || (bad == 0) != (c.want == "ok") {
			t.Errorf("%s: want %s, %d rows not ok:\n%s", c.name, c.want, bad, out.String())
		}
	}
}

// TestVocabularyMatchesBenchmarkJSON keeps BENCHMARK.json and the names
// this program prints in step.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s: bound in BENCHMARK.json does not match the program's %v", m.Name, d.Bound)
			}
		}
	}
	match("end_to_end", bj.EndToEnd, endToEnd, true)
	match("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}
