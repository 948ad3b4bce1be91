package netdev

import (
	"reflect"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/trace"
)

// tracedRun runs a bursty two-hop scenario with tracing enabled under the
// given kernel and returns the merged trace.
func tracedRun(t *testing.T, kernel sim.Kernel) []trace.Record {
	t.Helper()
	g, a, b := line(1_000_000, sim.Microsecond) // slow: queueing + drops
	cfg := DefaultConfig(1)
	cfg.Queue = DropTailConfig(4)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), cfg)
	net.Tracer = trace.NewCollector(g.N(), 0)
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) {})
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		for i := 0; i < 10; i++ {
			net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960, Seq: uint32(i * 960)})
		}
	})
	stop := sim.Second
	setup.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: g.N(), Links: g.LinkInfos, Init: setup.Events(), StopAt: stop}
	if _, err := kernel.Run(m); err != nil {
		t.Fatal(err)
	}
	// Structural checks against the data plane's own counters.
	if got := net.Tracer.CountKind(trace.Drop); got != int(net.Drops()) {
		t.Fatalf("trace drops=%d, network drops=%d", got, net.Drops())
	}
	if net.Tracer.CountKind(trace.Deliver) != 5 {
		t.Fatalf("deliveries=%d, want 5 (4-deep queue + 1 in flight)", net.Tracer.CountKind(trace.Deliver))
	}
	if net.Tracer.CountKind(trace.Dequeue) == 0 {
		t.Fatal("no dequeue records")
	}
	return net.Tracer.Merged()
}

func TestTraceIdenticalAcrossKernels(t *testing.T) {
	seqTrace := tracedRun(t, des.New())
	uniTrace := tracedRun(t, core.New(core.Config{Threads: 3}))
	if !reflect.DeepEqual(seqTrace, uniTrace) {
		t.Fatal("traces differ between sequential DES and Unison")
	}
	recs := seqTrace
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			t.Fatal("trace not time-ordered")
		}
	}
}
