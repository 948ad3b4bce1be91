package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with UNISIM_MAIN set, so a test can drive the real CLI.
func TestMain(m *testing.M) {
	if os.Getenv("UNISIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRunStatsKeysDoNotDependOnLive writes a 4-thread Unison bundle with
// -live and one without: both run_stats.json files have the same keys,
// imbalance and the workers' straggler_rounds included.
func TestRunStatsKeysDoNotDependOnLive(t *testing.T) {
	keys := func(live bool) []string {
		dir := t.TempDir()
		args := []string{"-set", "kernel.kind=unison", "-set", "kernel.threads=4", "-set", "stop=300us", "-set", "artifacts.dir=" + dir}
		if live {
			args = append(args, "-live", "127.0.0.1:0")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "UNISIM_MAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("unisim %v: %v\n%s", args, err, out)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "run_stats.json"))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Workers []map[string]any `json:"workers"`
		}
		var top map[string]any
		if err := json.Unmarshal(raw, &top); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &st); err != nil || len(st.Workers) == 0 {
			t.Fatalf("workers: %v", err)
		}
		var out []string
		for k := range top {
			out = append(out, k)
		}
		for _, w := range st.Workers {
			for k := range w {
				out = append(out, "workers."+k)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	with, without := keys(true), keys(false)
	if !slices.Equal(with, without) || !slices.Contains(without, "imbalance") || !slices.Contains(without, "workers.straggler_rounds") {
		t.Fatalf("run_stats.json keys\n with -live:    %v\n without -live: %v", with, without)
	}
}
