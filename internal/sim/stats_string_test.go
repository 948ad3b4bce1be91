package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestImbalanceString(t *testing.T) {
	var nilIm *Imbalance
	if got := nilIm.String(); got != "imbalance: no covered rounds" {
		t.Fatalf("nil String = %q", got)
	}
	if got := (&Imbalance{}).String(); got != "imbalance: no covered rounds" {
		t.Fatalf("zero String = %q", got)
	}
	im := &Imbalance{
		Rounds:           17,
		MeanMaxOverMean:  1.18,
		WorstMaxOverMean: 2.4,
		WorstRound:       17,
		WorstWorker:      3,
		StragglerWorker:  3,
		StragglerShare:   0.41,
		Migrations:       128,
	}
	want := "imbalance: 1.18x mean / 2.40x worst (round 17, worker 3), straggler w3 41%, 128 migrations"
	if got := im.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestRunStatsStringWithDiagnostics(t *testing.T) {
	st := &RunStats{
		Kernel: "unison(t=4)", Events: 100, Rounds: 5, LPs: 8,
		WallNS:  2_000_000_000,
		Workers: []WorkerStats{{P: 60, S: 30, M: 10}},
	}
	base := st.String()
	if strings.Contains(base, "imbalance") {
		t.Fatalf("plain stats mention diagnostics: %q", base)
	}
	st.Imbalance = &Imbalance{Rounds: 5, MeanMaxOverMean: 1.25, WorstMaxOverMean: 3.5}
	if got, want := st.String(), "imbalance 1.25x mean / 3.50x worst"; !strings.Contains(got, want) {
		t.Fatalf("String = %q, missing %q", got, want)
	}
	// An imbalance summary with no covered rounds stays out of the line.
	st.Imbalance = &Imbalance{}
	if got := st.String(); strings.Contains(got, "imbalance") {
		t.Fatalf("uncovered imbalance leaked into String: %q", got)
	}
}

// TestRunStatsJSONStability pins the stable keys run_stats.json consumers
// (unimon -expect-stats, unitrace diff) rely on.
func TestRunStatsJSONStability(t *testing.T) {
	st := &RunStats{
		Kernel: "k", Events: 1, Rounds: 2, LPs: 3,
		Workers:   []WorkerStats{{P: 1, StragglerRounds: 4}},
		Imbalance: &Imbalance{Rounds: 1, MeanMaxOverMean: 1, WorstMaxOverMean: 1, Migrations: 2},
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"kernel"`, `"events"`, `"rounds"`, `"straggler_rounds":4`,
		`"imbalance"`, `"mean_max_over_mean"`, `"worst_max_over_mean"`,
		`"migrations":2`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("marshalled stats missing %s: %s", key, raw)
		}
	}
	// Zero-valued diagnostics stay out of the JSON entirely (omitempty):
	// byte-stable artifacts for unprobed runs.
	plain, err := json.Marshal(&RunStats{Kernel: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "imbalance") {
		t.Fatalf("unprobed stats leak diagnostics keys: %s", plain)
	}
}
