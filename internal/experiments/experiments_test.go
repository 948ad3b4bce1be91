package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"unison/internal/obs"
)

// runQuick executes a registered experiment in Quick mode and applies
// basic structural checks.
func runQuick(t *testing.T, name string) *Table {
	t.Helper()
	tab, err := Run(name, Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if tab.ID != name {
		t.Errorf("%s: table ID %q", name, tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", name)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Errorf("%s: row %d has %d cells, want %d", name, i, len(row), len(tab.Columns))
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	if !strings.Contains(sb.String(), name) {
		t.Errorf("%s: render missing ID", name)
	}
	t.Logf("\n%s", sb.String())
	return tab
}

// TestFoldRounds: a round's phase 1 and per-worker time come from any
// worker but 0 (worker 0's ProcNS also holds the globals); its ideal span is
// its longest LP when one LP outlasts the even spread, the spread
// otherwise; and a Registry whose ring wrapped is refused.
func TestFoldRounds(t *testing.T) {
	reg := obs.NewRegistry(2)
	reg.BeginRun(obs.RunMeta{Workers: 2})
	for _, r := range []obs.RoundRecord{
		{Round: 0, Worker: 0, ProcNS: 950, SyncNS: 50, WaitGlobalNS: 0, MaxLPNS: 900},
		{Round: 0, Worker: 1, ProcNS: 300, SyncNS: 650, MsgNS: 50, WaitGlobalNS: 600, MaxLPNS: 100},
		{Round: 1, Worker: 0, ProcNS: 400, SyncNS: 10, WaitGlobalNS: 0, MaxLPNS: 200},
		{Round: 1, Worker: 1, ProcNS: 300, SyncNS: 110, WaitGlobalNS: 100, MaxLPNS: 150},
	} {
		reg.OnRound(&r)
	}
	want := []round{
		{PerWorker: []int64{900, 300}, Phase1: 900, Makespan: 1000, Ideal: 900},
		{PerWorker: []int64{400, 300}, Phase1: 400, Makespan: 410, Ideal: 350},
	}
	if got, err := foldRounds(reg); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("folded %+v (%v), want %+v", got, err, want)
	}
	reg.OnRound(&obs.RoundRecord{Round: 2, Worker: 0})
	if got, err := foldRounds(reg); err == nil {
		t.Fatalf("a wrapped ring folded to %+v", got)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNamesSortedAndNonEmpty(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no experiments registered")
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("Names not sorted")
		}
	}
	for _, n := range names {
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Lookup(%q) failed", n)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig1ShowsUnisonAdvantage(t *testing.T) {
	tab := runQuick(t, "fig1")
	// In every row Unison must beat both baselines and sequential.
	for _, row := range tab.Rows {
		seq := parseF(t, row[2])
		nm := parseF(t, row[3])
		bar := parseF(t, row[4])
		uni := parseF(t, row[5])
		if uni >= seq {
			t.Errorf("clusters=%s: unison %.3f not faster than sequential %.3f", row[0], uni, seq)
		}
		if uni >= nm || uni >= bar {
			t.Errorf("clusters=%s: unison %.3f not faster than pdes (nm=%.3f bar=%.3f)", row[0], uni, nm, bar)
		}
	}
}

func TestFig8bSpeedupGrowsWithCores(t *testing.T) {
	tab := runQuick(t, "fig8b")
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last <= first {
		t.Errorf("speedup did not grow with cores: %0.2f -> %0.2f", first, last)
	}
}

func TestFig8aDQNLosesAtScale(t *testing.T) {
	tab := runQuick(t, "fig8a")
	lastRow := tab.Rows[len(tab.Rows)-1]
	dqn := parseF(t, lastRow[4])
	uni := parseF(t, lastRow[6])
	if uni >= dqn {
		t.Errorf("at the largest scale unison %.3f should beat dqn %.3f", uni, dqn)
	}
}

// sscan wraps fmt.Sscan for the test helpers.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func sscan(s string, v *float64) (int, error) { return fmtSscan(s, v) }

func TestFig5aSyncDominatesUnderIncast(t *testing.T) {
	tab := runQuick(t, "fig5a")
	firstS := parseF(t, tab.Rows[0][3])
	lastS := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if lastS <= firstS {
		t.Errorf("barrier S/T did not grow with incast: %.3f -> %.3f", firstS, lastS)
	}
	if lastS < 0.4 {
		t.Errorf("barrier S/T at full incast only %.3f, expected to dominate", lastS)
	}
}

func TestFig9aUnisonEliminatesSync(t *testing.T) {
	uni := runQuick(t, "fig9a")
	bar := runQuick(t, "fig5a")
	// Balanced traffic: Unison's S must be a few percent at most.
	if s := parseF(t, uni.Rows[0][3]); s > 0.08 {
		t.Errorf("balanced: Unison S/T=%.3f, want < 0.08", s)
	}
	// At every incast ratio Unison's S ratio must be far below the
	// barrier baseline's (the paper's core claim). At full incast one
	// indivisible hotspot LP keeps a scale-dependent floor (see
	// EXPERIMENTS.md), so the relative bound is the right invariant.
	for i := range uni.Rows {
		su := parseF(t, uni.Rows[i][3])
		sb := parseF(t, bar.Rows[i][3])
		if su > sb/2 {
			t.Errorf("incast=%s: Unison S/T=%.3f not well below barrier %.3f", uni.Rows[i][0], su, sb)
		}
	}
}

func TestFig5cSyncDropsWithDelay(t *testing.T) {
	tab := runQuick(t, "fig5c")
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last >= first {
		t.Errorf("barrier S/T did not drop with delay: %.3f -> %.3f", first, last)
	}
}

func TestFig5bAnd9bTraces(t *testing.T) {
	runQuick(t, "fig5b")
	runQuick(t, "fig9b")
}

func TestFig5dRuns(t *testing.T) {
	runQuick(t, "fig5d")
}

func TestFig12aFinerPartitionFewerMisses(t *testing.T) {
	tab := runQuick(t, "fig12a")
	firstMiss := parseF(t, tab.Rows[0][1])
	lastMiss := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if lastMiss >= firstMiss {
		t.Errorf("misses did not fall with granularity: %.0f -> %.0f", firstMiss, lastMiss)
	}
	firstT := parseF(t, tab.Rows[0][3])
	lastT := parseF(t, tab.Rows[len(tab.Rows)-1][3])
	if lastT >= firstT {
		t.Errorf("time did not fall with granularity: %.3f -> %.3f", firstT, lastT)
	}
}

func TestFig12cSchedulingMetricOrdering(t *testing.T) {
	tab := runQuick(t, "fig12c")
	last := tab.Rows[len(tab.Rows)-1]
	prev := parseF(t, last[1])
	none := parseF(t, last[3])
	if prev > none {
		t.Errorf("prev-time α=%.4f worse than none α=%.4f at max threads", prev, none)
	}
	if prev < 1.0-1e-9 {
		t.Errorf("α=%.4f below the ideal bound", prev)
	}
}

func TestFig12bAnd12dAnd13Run(t *testing.T) {
	runQuick(t, "fig12b")
	runQuick(t, "fig12d")
	runQuick(t, "fig13")
}

func TestFig10aUnisonFastest(t *testing.T) {
	tab := runQuick(t, "fig10a")
	for _, row := range tab.Rows {
		bar := parseF(t, row[1])
		nm := parseF(t, row[2])
		uni := parseF(t, row[3])
		if uni >= bar || uni >= nm {
			t.Errorf("cores=%s: unison %.3f not fastest (bar=%.3f nm=%.3f)", row[0], uni, bar, nm)
		}
	}
}

func TestFig10bUnisonHighestSpeedup(t *testing.T) {
	tab := runQuick(t, "fig10b")
	for _, row := range tab.Rows {
		bar := parseF(t, row[1])
		u16 := parseF(t, row[4])
		if u16 <= bar {
			t.Errorf("%s: unison(16) speedup %.2f not above barrier %.2f", row[0], u16, bar)
		}
	}
}

func TestFig10cWANSpeedup(t *testing.T) {
	tab := runQuick(t, "fig10c")
	for _, row := range tab.Rows {
		sp := parseF(t, row[3])
		if sp <= 1.5 {
			t.Errorf("%s: unison speedup %.2f too low", row[0], sp)
		}
	}
}

func TestFig10dReconfigOverheadSmall(t *testing.T) {
	tab := runQuick(t, "fig10d")
	// The most frequent reconfiguration must not blow up either kernel
	// relative to the least frequent one.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	uniFreq := parseF(t, first[3])
	uniRare := parseF(t, last[3])
	if uniFreq > uniRare*2 {
		t.Errorf("unison reconfig overhead too high: %.3f vs %.3f", uniFreq, uniRare)
	}
}

func TestTable1LOCPositive(t *testing.T) {
	tab := runQuick(t, "table1")
	for _, row := range tab.Rows {
		if parseF(t, row[3]) <= 0 {
			t.Errorf("%s: non-positive PDES LOC", row[0])
		}
		if row[4] != "0" {
			t.Errorf("%s: unison LOC %s, want 0", row[0], row[4])
		}
	}
}

func TestTable2MimicDegradesAtScale(t *testing.T) {
	tab := runQuick(t, "table2")
	// Rows: [2c seq, 2c unison, 2c mimic, 4c seq, 4c unison, 4c mimic].
	if len(tab.Rows) != 6 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Unison must match ground truth exactly.
	for _, i := range []int{1, 4} {
		for _, c := range []int{5, 6, 7} {
			if tab.Rows[i][c] != "0.0%" {
				t.Errorf("unison error %s at row %d col %d, want 0.0%%", tab.Rows[i][c], i, c)
			}
		}
	}
	// Mimic's throughput error must grow from 2-cluster to 4-cluster.
	var thr2, thr4 float64
	fmt.Sscanf(tab.Rows[2][7], "%f%%", &thr2)
	fmt.Sscanf(tab.Rows[5][7], "%f%%", &thr4)
	if thr4 <= thr2 {
		t.Errorf("mimic throughput error did not grow: %.1f%% -> %.1f%%", thr2, thr4)
	}
}

func TestFig11Deterministic(t *testing.T) {
	tab := runQuick(t, "fig11")
	// Group rows by kernel: all epochs must agree on events+fingerprint.
	byKernel := map[string][2]string{}
	for _, row := range tab.Rows {
		key := row[0]
		cur := [2]string{row[2], row[3]}
		if prev, ok := byKernel[key]; ok && prev != cur {
			t.Errorf("%s: epoch results differ: %v vs %v", key, prev, cur)
		}
		byKernel[key] = cur
	}
	// All unison thread counts must agree with sequential.
	seq := byKernel["sequential"]
	for _, k := range []string{"unison(2)", "unison(4)", "unison(8)", "barrier"} {
		if byKernel[k][1] != seq[1] {
			t.Errorf("%s fingerprint differs from sequential", k)
		}
	}
}

func TestDCTCPBeatsRenoOnQueueDelay(t *testing.T) {
	tab := runQuick(t, "dctcp")
	reno := parseF(t, tab.Rows[0][4])
	dq := parseF(t, tab.Rows[1][4])
	if dq >= reno {
		t.Errorf("DCTCP queue delay %.1fus not below Reno %.1fus", dq, reno)
	}
	renoJ := parseF(t, tab.Rows[0][3])
	dctcpJ := parseF(t, tab.Rows[1][3])
	if dctcpJ < renoJ-0.05 {
		t.Errorf("DCTCP Jain %.3f noticeably below Reno %.3f", dctcpJ, renoJ)
	}
	for _, row := range tab.Rows {
		if sp := parseF(t, row[5]); sp <= 1.2 {
			t.Errorf("%s: unison speedup %.2f too low", row[0], sp)
		}
	}
}

func TestMemoryExperiment(t *testing.T) {
	tab := runQuick(t, "memory")
	// Unison's run allocations must stay within ~2x of sequential.
	seq := parseF(t, tab.Rows[0][1])
	uni := parseF(t, tab.Rows[1][1])
	if uni > seq*2 {
		t.Errorf("unison allocates %.1f MB vs sequential %.1f MB", uni, seq)
	}
}

func TestHybridExperimentOverheadGrows(t *testing.T) {
	tab := runQuick(t, "hybrid")
	first := parseF(t, tab.Rows[0][2])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][2])
	if last < first {
		t.Errorf("hybrid at max hosts %.4f faster than pure unison %.4f", last, first)
	}
}

func TestHeteroExperimentAwareWins(t *testing.T) {
	tab := runQuick(t, "hetero")
	// On identical cores the two schedulers should be close; on skewed
	// cores the aware one must win.
	for i, row := range tab.Rows {
		naive := parseF(t, row[1])
		aware := parseF(t, row[2])
		if i > 0 && aware > naive {
			t.Errorf("speed=%s: aware %.4f worse than naive %.4f", row[0], aware, naive)
		}
	}
	lastNaive := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	lastAware := parseF(t, tab.Rows[len(tab.Rows)-1][2])
	if lastAware >= lastNaive {
		t.Errorf("at 4x skew aware %.4f not better than naive %.4f", lastAware, lastNaive)
	}
}

func TestTCPOptsAblation(t *testing.T) {
	tab := runQuick(t, "tcpopts")
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	baseAcks := parseF(t, tab.Rows[0][3])
	delAcks := parseF(t, tab.Rows[1][3])
	if delAcks >= baseAcks {
		t.Errorf("delayed ACKs sent %.0f host packets vs baseline %.0f", delAcks, baseAcks)
	}
	for _, row := range tab.Rows {
		if parseF(t, row[1]) == 0 {
			t.Errorf("%s: no flows completed", row[0])
		}
	}
}
