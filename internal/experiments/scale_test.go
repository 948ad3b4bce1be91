package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"unison/internal/app"
	"unison/internal/des"
	"unison/internal/routing"
	"unison/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden tables from the current code")

// TestScaleGolden pins the k=8 rows of the scale experiment: virtual time
// is a pure function of the seed and the cost model, so the table moves
// only when the model, the round schedule or the cost model does.
func TestScaleGolden(t *testing.T) {
	golden(t, "scale.golden.txt", "scale")
}

// TestRoundFiguresGolden pins the quick tables of the figures read per
// round (5b and 9b: S/T; 12c: α; 13: per-executor P). Like the scale
// table they are pure functions of the seed and the cost model, so they
// move only when the round accounting does.
func TestRoundFiguresGolden(t *testing.T) {
	golden(t, "rounds.golden.txt", "fig5b", "fig9b", "fig12c", "fig13")
}

// golden renders the quick seed-42 tables of the named experiments, in
// order, and compares them with testdata/file (rewriting it under -update).
func golden(t *testing.T, file string, names ...string) {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range names {
		tab, err := Run(name, Config{Quick: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&buf)
	}
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s moved; if intended, rerun with -update and say why in CHANGES.md\ngot:\n%swant:\n%s", file, buf.Bytes(), want)
	}
}

// within fails unless got is within 10 % of want.
func within(t *testing.T, what string, got, want int64) {
	t.Helper()
	if got < want-want/10 || got > want+want/10 {
		t.Errorf("%s = %d, want %d ± 10 %%", what, got, want)
	}
}

// TestScaleMemoryBudget holds the k=8 streaming scenario to its memory
// budget through what the components report of themselves, which is a pure
// function of the run (a heap reading is not, and is bench/'s to take:
// live_heap_mb on scale-k16.setup).
//
// Flow state is what a flow leaves behind in the transport: connection
// arena chunks and lookup tables. Slots are recycled as flows finish, so
// 5896 flows peak at 1330 live connections; the layout before that (a
// map[FlowID]*conn per host retaining every record, a materialized flow
// slice) measured 634 B/flow on this scenario, and the budget is a quarter
// of it. Static state is everything sized by the topology at set-up:
// devices and their empty queues, per-node state, the forwarding table,
// and the flow monitor (sized by the known flow count).
func TestScaleMemoryBudget(t *testing.T) {
	const preOverhaulBytesPerFlow = 634
	b, err := scaleScenario(8, 42).Build()
	if err != nil {
		t.Fatal(err)
	}
	s := b.Sim
	net := s.Net.Mem()
	static := net.DeviceBytes + net.QueueBytes + net.NodeBytes + s.Mon.MemBytes() +
		int64(s.Net.Router.(*routing.ECMP).MemBytes())
	within(t, "static bytes/node", static/int64(b.G.N()), 4992)

	if _, err := des.New().Run(s.Model()); err != nil {
		t.Fatal(err)
	}
	if fp := s.Mon.Fingerprint(); fp != 14758583956524210324 || b.Flows != 5896 {
		t.Fatalf("fingerprint %d over %d flows: not the scenario the budget was recorded on", fp, b.Flows)
	}
	stack := s.Stack.Mem()
	within(t, "peak_conns", int64(stack.PeakConns), 1330)
	if got := (stack.ArenaBytes + stack.TableBytes) / int64(b.Flows); got > preOverhaulBytesPerFlow/4 {
		t.Errorf("flow state %d B/flow, budget %d (a quarter of the pre-overhaul %d)", got, preOverhaulBytesPerFlow/4, preOverhaulBytesPerFlow)
	}
}

// TestMaterializedStartsPerHost holds a materialized workload (the path the
// null-message and distributed kernels need) to one pending flow start per
// host: Model.Init is one start for every host that starts a flow plus the
// stop, and the bytes those starts hold — event and descriptor — are the
// same for twice the flows. Counted from the model, so exact. Before starts
// were chained, Model.Init held one start per flow.
func TestMaterializedStartsPerHost(t *testing.T) {
	type reading struct{ flows, hosts, starts, bytes int }
	var got []reading
	for _, end := range []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond} {
		sc := scaleScenario(8, 42)
		sc.Traffic.Stream = false
		sc.Traffic.End = app.Duration(end)
		b, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := b.Sim.Model()
		r := reading{flows: len(b.Sim.Flows)}
		hosts := map[sim.NodeID]bool{}
		for _, f := range b.Sim.Flows {
			hosts[f.Src] = true
		}
		r.hosts = len(hosts)
		for _, ev := range m.Init {
			if ev.Node == sim.GlobalNode {
				continue
			}
			r.starts++
			r.bytes += int(unsafe.Sizeof(ev)) + int(reflect.TypeOf(ev.Desc).Elem().Size())
		}
		if r.starts != r.hosts || len(m.Init) != r.hosts+1 {
			t.Errorf("%d flows from %d hosts: Model.Init holds %d events, %d of them starts; want %d starts and the stop",
				r.flows, r.hosts, len(m.Init), r.starts, r.hosts)
		}
		got = append(got, r)
	}
	a, b := got[0], got[1]
	if b.flows < a.flows*3/2 || a.hosts != b.hosts {
		t.Fatalf("workloads %+v and %+v: not the same hosts with more flows", a, b)
	}
	if a.bytes != b.bytes {
		t.Errorf("pending starts hold %d B for %d flows and %d B for %d, from the same %d hosts",
			a.bytes, a.flows, b.bytes, b.flows, a.hosts)
	}
}
