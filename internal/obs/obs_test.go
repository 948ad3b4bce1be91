package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"unison/internal/sim"
)

// emit pushes a minimal record for (round, worker) with e events.
func emit(g *Registry, round uint64, worker int32, e uint64) {
	g.OnRound(&RoundRecord{
		Round:  round,
		Worker: worker,
		LBTS:   sim.Time(1000 * (round + 1)),
		Events: e,
		ProcNS: 100,
		SyncNS: 40,
		MsgNS:  10,
	})
}

func TestRegistryMergeOrder(t *testing.T) {
	g := NewRegistry(16)
	g.BeginRun(RunMeta{Kernel: "test", Workers: 3, LPs: 3})
	// Emit out of worker order; rounds interleaved.
	for round := uint64(0); round < 4; round++ {
		for _, w := range []int32{2, 0, 1} {
			emit(g, round, w, uint64(w)+1)
		}
	}
	recs := g.Records()
	if len(recs) != 12 {
		t.Fatalf("got %d records, want 12", len(recs))
	}
	for i, r := range recs {
		wantRound := uint64(i / 3)
		wantWorker := int32(i % 3)
		if r.Round != wantRound || r.Worker != wantWorker {
			t.Errorf("recs[%d] = (round %d, worker %d), want (%d, %d)",
				i, r.Round, r.Worker, wantRound, wantWorker)
		}
	}
}

func TestRegistryRingWrap(t *testing.T) {
	const capacity = 8
	g := NewRegistry(capacity)
	g.BeginRun(RunMeta{Kernel: "test", Workers: 1, LPs: 1})
	const total = 20
	for round := uint64(0); round < total; round++ {
		emit(g, round, 0, 1)
	}
	recs := g.Records()
	if len(recs) != capacity {
		t.Fatalf("got %d records after wrap, want %d", len(recs), capacity)
	}
	// The ring keeps the newest `capacity` records, oldest first.
	for i, r := range recs {
		want := uint64(total - capacity + i)
		if r.Round != want {
			t.Errorf("recs[%d].Round = %d, want %d", i, r.Round, want)
		}
	}
	// Totals survive overwrites even though old records are gone.
	w, _ := g.Totals()
	if len(w) != 1 || w[0].Records != total || w[0].Events != total || w[0].Round != total-1 {
		t.Errorf("totals = %+v, want %d records and events, round %d", w, total, total-1)
	}
}

// TestRegistryRingGrowsOnDemand: a ring holds what its worker wrote, not
// the capacity, until it is full.
func TestRegistryRingGrowsOnDemand(t *testing.T) {
	g := NewRegistry(0)
	g.BeginRun(RunMeta{Kernel: "test", Workers: 2, LPs: 2})
	for round := uint64(0); round < 10; round++ {
		emit(g, round, 0, 1)
	}
	if got := cap(g.rings[0].buf); got < 10 || got > 16 {
		t.Errorf("a ring with 10 records has room for %d, want at most 16", got)
	}
	if got := cap(g.rings[1].buf); got != 0 {
		t.Errorf("a ring with no records has room for %d", got)
	}
	if got := len(g.Records()); got != 10 {
		t.Errorf("%d records, want 10", got)
	}
}

func TestRegistryTotals(t *testing.T) {
	g := NewRegistry(1)
	if w, _ := g.Totals(); len(w) != 0 {
		t.Fatalf("totals before BeginRun: %+v", w)
	}
	g.BeginRun(RunMeta{Kernel: "test", Workers: 2, LPs: 2})
	g.OnRound(&RoundRecord{Round: 0, Worker: 1, LBTS: 500, Events: 4, ProcNS: 3, SyncNS: 2, MsgNS: 1, FELDepth: 9, Migrations: 2, CkptNS: 7})
	g.OnRound(&RoundRecord{Round: 1, Worker: 1, LBTS: sim.MaxTime, Events: 6, ProcNS: 3, FELDepth: 5, Migrations: 1})
	w, dropped := g.Totals()
	if dropped != 0 || len(w) != 2 || w[0] != (WorkerTotals{}) {
		t.Fatalf("dropped %d, totals %+v", dropped, w)
	}
	got := w[1]
	want := WorkerTotals{Records: 2, Events: 10, ProcNS: 6, SyncNS: 2, MsgNS: 1, Migrations: 3, LBTS: 500, Round: 1, FELDepth: 5}
	if got != want {
		t.Fatalf("worker 1 totals = %+v, want %+v", got, want)
	}
}

func TestRegistryDropsOutOfRangeWorkers(t *testing.T) {
	g := NewRegistry(4)
	g.BeginRun(RunMeta{Kernel: "test", Workers: 1, LPs: 1})
	emit(g, 0, 5, 1)  // beyond Workers
	emit(g, 0, -1, 1) // negative
	if n := len(g.Records()); n != 0 {
		t.Fatalf("got %d records, want 0", n)
	}
	if w, dropped := g.Totals(); dropped != 2 || w[0].Records != 0 {
		t.Fatalf("dropped = %d, worker 0 records = %d; want 2 and 0", dropped, w[0].Records)
	}
}

func TestRegistryBeginRunResets(t *testing.T) {
	g := NewRegistry(4)
	g.BeginRun(RunMeta{Kernel: "first", Workers: 2, LPs: 2})
	emit(g, 0, 0, 5)
	g.EndRun(&sim.RunStats{Kernel: "first", Events: 5})
	g.BeginRun(RunMeta{Kernel: "second", Workers: 1, LPs: 1})
	if n := len(g.Records()); n != 0 {
		t.Fatalf("records survived BeginRun: %d", n)
	}
	if g.Final() != nil {
		t.Fatal("final stats survived BeginRun")
	}
	if got := g.Meta().Kernel; got != "second" {
		t.Fatalf("meta.Kernel = %q, want %q", got, "second")
	}
}

// perfettoFile mirrors the Chrome trace-event JSON container for decoding.
type perfettoFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWritePerfettoStructure(t *testing.T) {
	g := NewRegistry(64)
	g.BeginRun(RunMeta{Kernel: "test", Workers: 2, LPs: 4})
	for round := uint64(0); round < 3; round++ {
		for w := int32(0); w < 2; w++ {
			g.OnRound(&RoundRecord{
				Round: round, Worker: w, LBTS: sim.Time(500 * (round + 1)),
				Events: 10, ProcNS: 3000, SyncNS: 1500, MsgNS: 500,
				WaitGlobalNS: 600, Sends: 2, SendBytes: 2 * EventBytes, Recvs: 2,
			})
		}
	}
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, Events(g.Meta(), g.Records())); err != nil {
		t.Fatalf("WriteTraceJSON: %v", err)
	}

	var tf perfettoFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var spans, meta, counters int
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("event %d (%s): negative ts/dur (%v, %v)", i, ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Name == "" {
				t.Errorf("event %d: span with empty name", i)
			}
		case "M":
			meta++
		case "C":
			counters++
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	if spans == 0 || meta == 0 || counters == 0 {
		t.Fatalf("want spans, metadata and counters; got %d/%d/%d", spans, meta, counters)
	}

	// Per-worker spans must be time-ordered and non-overlapping: each
	// round's phases stack after the previous round on the same thread.
	lastEnd := map[int]float64{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts < lastEnd[ev.Tid] {
			t.Fatalf("span %q on tid %d starts at %v before previous end %v",
				ev.Name, ev.Tid, ev.Ts, lastEnd[ev.Tid])
		}
		lastEnd[ev.Tid] = ev.Ts + ev.Dur
	}
}

func TestNilProbeHelpers(t *testing.T) {
	// The helpers are the nil fast path every kernel relies on; they must
	// be no-ops, not panics, for a nil probe.
	Begin(nil, RunMeta{})
	Emit(nil, &RoundRecord{})
	End(nil, &sim.RunStats{})
	End(&Registry{}, nil) // nil stats must be ignored too
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("all-nil Tee should be nil")
	}
	a := &captureProbe{}
	if got := Tee(nil, a); got != Probe(a) {
		t.Fatal("single-probe Tee should return the probe itself")
	}
	bProbe := &captureProbe{}
	tee := Tee(a, nil, bProbe)
	tee.BeginRun(RunMeta{Workers: 1})
	tee.OnRound(&RoundRecord{Round: 9})
	tee.EndRun(&sim.RunStats{})
	for i, p := range []*captureProbe{a, bProbe} {
		if p.begins != 1 || p.ends != 1 || len(p.recs) != 1 || p.recs[0].Round != 9 {
			t.Fatalf("probe %d missed calls: %+v", i, p)
		}
	}
}

// captureProbe records every callback for assertions.
type captureProbe struct {
	begins, ends int
	recs         []RoundRecord
}

func (c *captureProbe) BeginRun(RunMeta)         { c.begins++ }
func (c *captureProbe) OnRound(rec *RoundRecord) { c.recs = append(c.recs, *rec) }
func (c *captureProbe) EndRun(st *sim.RunStats)  { c.ends++ }
