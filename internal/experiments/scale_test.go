package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"unison/internal/des"
	"unison/internal/routing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/scale.golden.txt from the current code")

// TestScaleGolden pins the k=8 rows of the scale experiment: virtual time
// is a pure function of the seed and the cost model, so the table moves
// only when the model, the round schedule or the cost model does.
func TestScaleGolden(t *testing.T) {
	tab, err := Run("scale", Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	path := filepath.Join("testdata", "scale.golden.txt")
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
		t.Fatalf("scale table moved; if intended, rerun with -update and say why in CHANGES.md\ngot:\n%swant:\n%s", buf.Bytes(), want)
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
