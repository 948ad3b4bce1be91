package vtime

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/rounds.golden.json from the current code")

// goldenKeep is how many leading RoundSamples and RoundRecords are pinned
// per kernel; the totals in goldenRun cover the rest of the run.
const goldenKeep = 32

// goldenRun is everything deterministic a virtual run reports. Every
// speedup figure in the repo is a ratio of two VirtualT values, so this
// is what a change to the round loop must not move.
type goldenRun struct {
	Name     string            `json:"name"`
	Kernel   string            `json:"kernel"`
	Events   uint64            `json:"events"`
	EndTime  sim.Time          `json:"end_time_ns"`
	Rounds   uint64            `json:"rounds"`
	LPs      int               `json:"lps"`
	VirtualT int64             `json:"virtual_ns"`
	Workers  []goldenWorker    `json:"workers"`
	Samples  []sim.RoundSample `json:"round_samples"`
	Records  []obs.RoundRecord `json:"round_records"`
}

type goldenWorker struct {
	P      int64  `json:"p"`
	S      int64  `json:"s"`
	M      int64  `json:"m"`
	Events uint64 `json:"events"`
}

// headProbe keeps the first goldenKeep records in emission order.
type headProbe struct{ recs []obs.RoundRecord }

func (p *headProbe) BeginRun(obs.RunMeta) {}
func (p *headProbe) EndRun(*sim.RunStats) {}
func (p *headProbe) OnRound(rec *obs.RoundRecord) {
	if len(p.recs) < goldenKeep {
		p.recs = append(p.recs, *rec)
	}
}

// TestRoundsGolden pins the virtual kernels to exact values on a k=4
// fat-tree incast model. The other tests in this package only check
// orderings and run-to-run equality, which a change that shifts every
// VirtualT by a barrier constant would pass.
//
// RecordRounds is requested only where the kernel honoured it when the
// file was first written (Barrier, Unison); Sequential and Hybrid ignored
// the flag then.
func TestRoundsGolden(t *testing.T) {
	hostOf := func(nodes int) []int32 {
		h := make([]int32, nodes)
		for i := range h {
			h[i] = int32(i % 2)
		}
		return h
	}
	cases := []struct {
		name string
		cfg  func(nodes int, lpOf []int32) Config
	}{
		{"sequential", func(int, []int32) Config { return Config{Algo: Sequential} }},
		{"barrier", func(_ int, lpOf []int32) Config {
			return Config{Algo: Barrier, LPOf: lpOf, RecordRounds: true}
		}},
		{"unison-prevtime", func(int, []int32) Config {
			return Config{Algo: Unison, Cores: 4, Metric: core.MetricPrevTime, RecordRounds: true}
		}},
		{"unison-pending", func(int, []int32) Config {
			return Config{Algo: Unison, Cores: 4, Metric: core.MetricPendingEvents, RecordRounds: true}
		}},
		{"unison-speedaware", func(int, []int32) Config {
			return Config{Algo: Unison, Cores: 4, CoreSpeeds: []float64{1, 1, 0.5, 0.5}, SpeedAware: true, RecordRounds: true}
		}},
		{"hybrid-2x2", func(nodes int, _ []int32) Config {
			return Config{Algo: Hybrid, HostOf: hostOf(nodes), CoresPerHost: 2}
		}},
		// Rounds is the null-message count; the records are per rank per
		// meta-DES step.
		{"nullmsg", func(_ int, lpOf []int32) Config { return Config{Algo: NullMessage, LPOf: lpOf} }},
	}
	var runs []goldenRun
	for _, tc := range cases {
		m, _, lpOf := scenario(11, 0.5)
		cfg := tc.cfg(m.Nodes, lpOf)
		probe := &headProbe{}
		cfg.Observe = probe
		st, err := Run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		g := goldenRun{
			Name: tc.name, Kernel: st.Kernel, Events: st.Events, EndTime: st.EndTime,
			Rounds: st.Rounds, LPs: st.LPs, VirtualT: st.VirtualT,
			Samples: st.RoundTrace, Records: probe.recs,
		}
		if len(g.Samples) > goldenKeep {
			g.Samples = g.Samples[:goldenKeep]
		}
		for _, w := range st.Workers {
			g.Workers = append(g.Workers, goldenWorker{P: w.P, S: w.S, M: w.M, Events: w.Events})
		}
		runs = append(runs, g)
	}
	got, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "rounds.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		var wantRuns []goldenRun
		if err := json.Unmarshal(want, &wantRuns); err != nil {
			t.Fatalf("golden file unreadable: %v", err)
		}
		for i := range runs {
			if i >= len(wantRuns) {
				t.Errorf("%s: not in golden file", runs[i].Name)
				continue
			}
			a, _ := json.Marshal(runs[i])
			b, _ := json.Marshal(wantRuns[i])
			if !bytes.Equal(a, b) {
				t.Errorf("%s: differs from golden (VirtualT %d, want %d; rounds %d, want %d)",
					runs[i].Name, runs[i].VirtualT, wantRuns[i].VirtualT, runs[i].Rounds, wantRuns[i].Rounds)
			}
		}
		t.Fatalf("virtual round accounting moved; if intended, rerun with -update and say why in CHANGES.md")
	}
}
