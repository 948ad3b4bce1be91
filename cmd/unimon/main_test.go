package main

import (
	"strings"
	"testing"
	"time"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

var t0 = time.Unix(100, 0)

// foldedView folds a distributed run's stream, one record a second from t0:
// the meta line, four round records (one of a lane the run does not have),
// and three sampler rows.
func foldedView(t *testing.T) *view {
	t.Helper()
	v := &view{addr: "a"}
	meta := &netobs.StreamMeta{Schema: netobs.RecordsSchema, Tool: "unidist", Kernel: "dist(2)", Workers: 2, LPs: 4, StopNS: 1000, IntervalNS: 1000, StartUnixNS: t0.UnixNano()}
	for i, r := range []netobs.Record{
		{Meta: meta},
		{Round: &obs.RoundRecord{Round: 0, Worker: 0, Events: 10, ProcNS: 30, SyncNS: 60, MsgNS: 10, FELDepth: 5, LBTS: 100}},
		{Round: &obs.RoundRecord{Round: 0, Worker: 1, Events: 20, ProcNS: 80, SyncNS: 15, MsgNS: 5, FELDepth: 7, LBTS: 100, CkptNS: 4}},
		{Round: &obs.RoundRecord{Round: 1, Worker: 0, Events: 5, ProcNS: 10, FELDepth: 2, LBTS: 500, Migrations: 3}},
		{Round: &obs.RoundRecord{Worker: 7, Events: 99}}, // a lane the run does not have: dropped
		{Row: &netobs.Row{Tick: 1000, Node: 1, Link: 0, Depth: 3, MaxDepth: 9, Drops: 2}},
		{Row: &netobs.Row{Tick: 2000, Node: 1, Link: 0, Depth: 5, MaxDepth: 6, Drops: 1, TxBytes: 125, BW: 1e9}},
		{Row: &netobs.Row{Tick: 1000, Node: 2, Link: 1, Depth: 8, MaxDepth: 8}},
	} {
		if err := v.fold(&r, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestViewFoldsRoundRecords checks the per-lane totals, imbalance, progress,
// checkpoint age and the final frame folded from the stream.
func TestViewFoldsRoundRecords(t *testing.T) {
	if err := (&view{}).fold(&netobs.Record{Round: &obs.RoundRecord{}}, t0); err == nil {
		t.Fatal("a round line before the meta line folded")
	}
	v := foldedView(t)
	lanes, dropped := v.reg.Totals()
	if len(lanes) != 2 || dropped != 1 || lanes[0].Events != 15 || lanes[0].Migrations != 3 || lanes[1].Events != 20 {
		t.Fatalf("lanes %+v, %d dropped", lanes, dropped)
	}
	if v.ckpt != t0.Add(2*time.Second) {
		t.Fatalf("checkpoint at %v", v.ckpt)
	}
	if im := v.imb.Summary(); im == nil || im.Rounds != 1 {
		t.Fatalf("imbalance %v", im)
	}

	var out strings.Builder
	v.render(&out, t0.Add(12*time.Second), false)
	for _, want := range []string{"[running]", "progress", " 50.0%", "ckpt 10s ago"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("frame lacks %q:\n%s", want, out.String())
		}
	}

	final := &sim.RunStats{Kernel: "dist(2)", Events: 35}
	if err := v.fold(&netobs.Record{Stats: final}, t0.Add(20*time.Second)); err != nil || v.final != final {
		t.Fatalf("final %v, %v", v.final, err)
	}
	out.Reset()
	v.render(&out, t0.Add(time.Hour), false)
	if !strings.Contains(out.String(), "[done]") || !strings.Contains(out.String(), "100.0%") || !strings.Contains(out.String(), "elapsed 20.0s") {
		t.Errorf("final frame:\n%s", out.String())
	}
}

// TestViewBeginResetsView checks that a meta line starts the view over.
func TestViewBeginResetsView(t *testing.T) {
	v := foldedView(t)
	if err := v.fold(&netobs.Record{Stats: &sim.RunStats{Events: 35}}, t0.Add(20*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := v.fold(&netobs.Record{Meta: &netobs.StreamMeta{Tool: "unisim", Kernel: "b", Workers: 3}}, t0); err != nil {
		t.Fatal(err)
	}
	if lanes, _ := v.reg.Totals(); v.meta.Kernel != "b" || len(lanes) != 3 || lanes[0].Events != 0 || v.final != nil || len(v.queues) != 0 {
		t.Fatalf("after a new meta line: %+v, lanes %+v", v.meta, lanes)
	}
}

// TestViewQueueHeatmap checks that sampler rows fold into one cell per queue
// (latest depth and utilisation, peak depth, summed drops), busiest first.
func TestViewQueueHeatmap(t *testing.T) {
	v := foldedView(t)
	cells := v.hottest(6)
	if len(cells) != 2 || cells[0].node != 2 || cells[1].node != 1 {
		t.Fatalf("heatmap order: %+v %+v", cells[0], cells[1])
	}
	if c := cells[1]; c.depth != 5 || c.maxDepth != 9 || c.drops != 3 || c.util != 1 {
		t.Fatalf("cell folding: %+v", *c)
	}
	var out strings.Builder
	v.render(&out, t0.Add(12*time.Second), false)
	if !strings.Contains(out.String(), "n2/l1 d8(max 8)") {
		t.Errorf("frame lacks the busiest queue:\n%s", out.String())
	}
}

// TestViewRankLiveness checks that a lane's liveness follows the arrival of
// its records: a lane silent for too long reads STALE.
func TestViewRankLiveness(t *testing.T) {
	v := foldedView(t)
	if v.seen[0] != t0.Add(3*time.Second) || v.seen[1] != t0.Add(2*time.Second) {
		t.Fatalf("lanes last seen %v", v.seen)
	}
	var out strings.Builder
	v.render(&out, t0.Add(12*time.Second), false)
	for _, want := range []string{"r0 up 9.0s (2 rounds", "r1 STALE"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("frame lacks %q:\n%s", want, out.String())
		}
	}
}
