package live

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

// newState returns a State reading a fresh one-record-per-worker Registry,
// begun with meta when meta.Kernel is set, and the Registry itself.
func newState(stopAt sim.Time, meta obs.RunMeta) (*State, *obs.Registry) {
	reg := obs.NewRegistry(1)
	if meta.Kernel != "" {
		reg.BeginRun(meta)
	}
	return NewState("test", stopAt, reg, obs.NewImbalanceTracker()), reg
}

// feed hands each record to p, as a kernel would.
func feed(p obs.Probe, recs ...obs.RoundRecord) {
	for i := range recs {
		p.OnRound(&recs[i])
	}
}

func TestStateFoldsRoundRecords(t *testing.T) {
	s, reg := newState(1000, obs.RunMeta{Kernel: "k", Workers: 2, LPs: 4})
	if snap := s.Snapshot(); snap.CkptAgeSeconds != -1 {
		t.Fatalf("checkpoint age %g before any checkpoint", snap.CkptAgeSeconds)
	}
	feed(reg,
		obs.RoundRecord{Round: 0, Worker: 0, Events: 10, ProcNS: 30, SyncNS: 60, MsgNS: 10, FELDepth: 5, LBTS: 100},
		obs.RoundRecord{Round: 0, Worker: 1, Events: 20, ProcNS: 80, SyncNS: 15, MsgNS: 5, FELDepth: 7, LBTS: 100, CkptNS: 4},
		obs.RoundRecord{Round: 1, Worker: 0, Events: 5, ProcNS: 10, FELDepth: 2, LBTS: 500, Migrations: 3},
	)

	snap := s.Snapshot()
	if snap.Schema != SchemaV1 || snap.Kernel != "k" || snap.Workers != 2 || snap.LPs != 4 {
		t.Fatalf("header: %+v", snap)
	}
	if snap.Events != 35 || snap.Rounds != 2 || snap.LBTSNS != 500 {
		t.Fatalf("totals: events=%d rounds=%d lbts=%d", snap.Events, snap.Rounds, snap.LBTSNS)
	}
	if snap.Progress != 0.5 {
		t.Fatalf("progress = %g, want 0.5", snap.Progress)
	}
	if len(snap.WorkerViews) != 2 {
		t.Fatalf("worker views = %d", len(snap.WorkerViews))
	}
	w0 := snap.WorkerViews[0]
	if w0.Events != 15 || w0.ProcNS != 40 || w0.Migrations != 3 || w0.FELDepth != 2 {
		t.Fatalf("w0 = %+v", w0)
	}
	// P/S/M shares sum to 1 when any time was recorded.
	if sum := w0.PShare + w0.SShare + w0.MShare; sum < 0.999 || sum > 1.001 {
		t.Fatalf("w0 share sum = %g", sum)
	}
	if snap.FELDepth != 2+7 {
		t.Fatalf("fel depth = %d", snap.FELDepth)
	}
	if snap.CkptAgeSeconds < 0 || snap.CkptAgeSeconds > 60 || snap.EventsPerSec <= 0 {
		t.Fatalf("checkpoint age %g s, %g events/s", snap.CkptAgeSeconds, snap.EventsPerSec)
	}
	if snap.Done || snap.Final != nil {
		t.Fatal("not finalized yet")
	}
}

func TestStateBeginResetsView(t *testing.T) {
	s, reg := newState(0, obs.RunMeta{Kernel: "a", Workers: 1})
	feed(reg, obs.RoundRecord{Round: 0, Worker: 0, Events: 99})
	reg.BeginRun(obs.RunMeta{Kernel: "b", Workers: 3})
	snap := s.Snapshot()
	if snap.Kernel != "b" || snap.Events != 0 || snap.Rounds != 0 || len(snap.WorkerViews) != 3 {
		t.Fatalf("after reset: %+v", snap)
	}
}

func TestStateFinalize(t *testing.T) {
	s, _ := newState(0, obs.RunMeta{})
	st := &sim.RunStats{Kernel: "k", Events: 7}
	s.Finalize(st)
	s.Finalize(&sim.RunStats{Kernel: "other"}) // first call wins
	snap := s.Snapshot()
	if !snap.Done || snap.Final != st || snap.ETASeconds != 0 {
		t.Fatalf("finalized snapshot: done=%v final=%p eta=%g", snap.Done, snap.Final, snap.ETASeconds)
	}
}

func TestStateQueueHeatmap(t *testing.T) {
	s, _ := newState(0, obs.RunMeta{})
	s.SetQueueInterval(1000)
	s.IngestRows([]netobs.Row{
		{Tick: 1000, Node: 1, Link: 0, Depth: 3, MaxDepth: 9, Drops: 2},
		{Tick: 2000, Node: 1, Link: 0, Depth: 5, MaxDepth: 6, Drops: 1},
		{Tick: 1000, Node: 2, Link: 1, Depth: 8, MaxDepth: 8},
	})
	snap := s.Snapshot()
	if len(snap.Queues) != 2 {
		t.Fatalf("queue cells = %d", len(snap.Queues))
	}
	// Busiest-first: node 2 (depth 8) before node 1 (latest depth 5).
	if snap.Queues[0].Node != 2 || snap.Queues[1].Node != 1 {
		t.Fatalf("order: %+v", snap.Queues)
	}
	c := snap.Queues[1]
	if c.Depth != 5 || c.MaxDepth != 9 || c.Drops != 3 {
		t.Fatalf("cell folding: %+v", c)
	}
}

func TestStateRankLiveness(t *testing.T) {
	s, reg := newState(0, obs.RunMeta{Kernel: "dist(2)", Workers: 2})
	feed(reg, obs.RoundRecord{Worker: 0, Events: 500}, obs.RoundRecord{Round: 1, Worker: 0, Events: 100})
	s.MarkRank(1)
	s.MarkRank(0)
	snap := s.Snapshot()
	if len(snap.Ranks) != 2 || snap.Ranks[0].Rank != 0 || snap.Ranks[1].Rank != 1 {
		t.Fatalf("ranks: %+v", snap.Ranks)
	}
	if !snap.Ranks[0].Alive || snap.Ranks[0].Rounds != 2 || snap.Ranks[0].Events != 600 {
		t.Fatalf("rank 0: %+v", snap.Ranks[0])
	}
	if r := snap.Ranks[1]; !r.Alive || r.Rounds != 0 || r.Events != 0 {
		t.Fatalf("rank 1: %+v", r)
	}
}

func TestServerJSONAndSSE(t *testing.T) {
	s, _ := newState(1000, obs.RunMeta{})
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	snap, err := Fetch(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Tool != "test" || snap.Done {
		t.Fatalf("fetched: %+v", snap)
	}

	// Finalize, then watch: the stream must deliver a Done frame with the
	// final stats and close on its own.
	final := &sim.RunStats{Kernel: "k", Events: 123}
	s.Finalize(final)
	var got *Snapshot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := Watch(ctx, srv.Addr(), func(sn *Snapshot) bool {
		got = sn
		return !sn.Done
	}); err != nil {
		t.Fatal(err)
	}
	if got == nil || !got.Done || got.Final == nil || got.Final.Events != 123 {
		t.Fatalf("final frame: %+v", got)
	}
}

func TestServerLinger(t *testing.T) {
	s, _ := newState(0, obs.RunMeta{})
	srv, err := NewServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// No client ever connected: Linger returns immediately.
	start := time.Now()
	srv.Linger(5 * time.Second)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unwatched linger took %v", d)
	}

	// A client connects and reads the final snapshot: Linger releases
	// without waiting out the timeout.
	s.Finalize(&sim.RunStats{})
	if _, err := Fetch(context.Background(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	srv.Linger(30 * time.Second)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("watched linger took %v after final snapshot was served", d)
	}
}

func TestSessionFinishCloseOrdering(t *testing.T) {
	sess, err := StartSession("test", 1000, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := sess.Probe()
	probe.BeginRun(obs.RunMeta{Kernel: "k", Workers: 1, LPs: 1})
	probe.OnRound(&obs.RoundRecord{Round: 0, Worker: 0, Events: 10, ProcNS: 5})
	st := &sim.RunStats{Kernel: "k", Events: 10, Workers: []sim.WorkerStats{{Events: 10}}}
	probe.EndRun(st)

	sess.Finish(st)
	// Finish stamps diagnostics but does NOT publish Done: a CLI still
	// writing its artifact bundle must not trigger watchers yet.
	if st.Imbalance == nil {
		t.Fatal("Finish did not stamp imbalance diagnostics")
	}
	snap, err := Fetch(context.Background(), sess.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done || snap.Events != 10 {
		t.Fatalf("before Close: done %t, %d events; want false, 10", snap.Done, snap.Events)
	}

	sess.SetLinger(0)
	sess.Close()
}

func TestSessionNilSafe(t *testing.T) {
	var sess *Session
	if sess.Probe() != nil {
		t.Fatal("nil session probe should be nil")
	}
	sess.Finish(&sim.RunStats{})
	sess.SetLinger(time.Second)
	sess.Close()
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s, reg := newState(500, obs.RunMeta{Kernel: "k", Workers: 1, LPs: 2})
	feed(reg, obs.RoundRecord{Round: 0, Worker: 0, Events: 4, ProcNS: 9, LBTS: 250})
	s.Finalize(&sim.RunStats{Kernel: "k", Events: 4})
	snap := s.Snapshot()
	raw, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaV1 || back.Events != 4 || !back.Done || back.Final == nil {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestOutOfRangeWorkerAddsNoView: a record naming a worker the run does not
// have (a garbled or hostile sideband record, say) is dropped by the
// Registry; it adds no view and no lane.
func TestOutOfRangeWorkerAddsNoView(t *testing.T) {
	s, reg := newState(0, obs.RunMeta{Kernel: "dist(2)", Workers: 2})
	feed(reg, obs.RoundRecord{Worker: 100_000, Events: 7}, obs.RoundRecord{Worker: 2, Events: 7}, obs.RoundRecord{Worker: 1, Events: 3})
	snap := s.Snapshot()
	if len(snap.WorkerViews) != 2 || snap.Events != 3 {
		t.Fatalf("%d worker views, %d events; want 2 and 3", len(snap.WorkerViews), snap.Events)
	}
	if lanes, _, dropped := reg.Totals(); len(lanes) != 2 || dropped != 2 {
		t.Fatalf("%d lanes, %d dropped; want 2 and 2", len(lanes), dropped)
	}
}

// TestConcurrentWritersExactTotals: four workers report through a session's
// probe while a watcher builds snapshots and fetches /live; nothing is
// dropped, so the final totals are exact.
func TestConcurrentWritersExactTotals(t *testing.T) {
	const workers, rounds = 4, 10_000
	sess, err := StartSession("test", 0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.SetLinger(0)
	probe := sess.Probe()
	probe.BeginRun(obs.RunMeta{Kernel: "k", Workers: workers, LPs: workers})

	var writers sync.WaitGroup
	done := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		var err error
		for {
			select {
			case <-done:
				watched <- err
				return
			default:
			}
			sess.State.Snapshot()
			if _, ferr := Fetch(context.Background(), sess.Server.Addr()); ferr != nil && err == nil {
				err = ferr
			}
		}
	}()
	for w := range int32(workers) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for r := range uint64(rounds) {
				probe.OnRound(&obs.RoundRecord{Round: r, Worker: w, Events: 3, ProcNS: 2, SyncNS: 1})
			}
		}()
	}
	writers.Wait()
	close(done)
	if err := <-watched; err != nil {
		t.Fatal(err)
	}

	snap, err := Fetch(context.Background(), sess.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events != workers*rounds*3 || snap.Rounds != rounds || len(snap.WorkerViews) != workers {
		t.Fatalf("%d events in %d rounds over %d workers; want %d, %d, %d",
			snap.Events, snap.Rounds, len(snap.WorkerViews), workers*rounds*3, rounds, workers)
	}
	for _, v := range snap.WorkerViews {
		if v.Rounds != rounds || v.Events != rounds*3 || v.ProcNS != 2*rounds || v.SyncNS != rounds {
			t.Fatalf("worker %d: %+v", v.Worker, v)
		}
	}
}
