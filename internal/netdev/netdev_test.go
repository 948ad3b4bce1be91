package netdev

import (
	"testing"

	"unison/internal/des"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/topology"
)

// line builds host A -- switch S -- host B with the given bandwidth/delay.
func line(bw int64, delay sim.Time) (*topology.Graph, sim.NodeID, sim.NodeID) {
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	s := g.AddNode(topology.Switch, "s")
	b := g.AddNode(topology.Host, "b")
	g.AddLink(a, s, bw, delay)
	g.AddLink(s, b, bw, delay)
	return g, a, b
}

// run executes a model built from setup over g with the sequential kernel.
func run(t *testing.T, g *topology.Graph, setup *sim.Setup, stop sim.Time) {
	t.Helper()
	setup.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: g.N(), Links: g.LinkInfos, Init: setup.Events(), StopAt: stop}
	if _, err := des.New().Run(m); err != nil {
		t.Fatal(err)
	}
}

func TestTxTime(t *testing.T) {
	// 1500 bytes at 1 Gbps = 12 µs.
	if got := TxTime(1500, 1_000_000_000); got != 12*sim.Microsecond {
		t.Fatalf("TxTime=%v, want 12µs", got)
	}
	// 1 byte at 8 Gbps = 1 ns.
	if got := TxTime(1, 8_000_000_000); got != 1 {
		t.Fatalf("TxTime=%v, want 1ns", got)
	}
}

func TestPacketDeliveredWithCorrectLatency(t *testing.T) {
	g, a, b := line(1_000_000_000, 5*sim.Microsecond)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), DefaultConfig(1))
	var arrival sim.Time
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) { arrival = ctx.Now() })
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
	})
	run(t, g, setup, sim.Millisecond)
	// Two hops: 2 × (tx(1000B @1G)=8µs + prop 5µs) = 26µs.
	want := 26 * sim.Microsecond
	if arrival != want {
		t.Fatalf("arrival=%v, want %v", arrival, want)
	}
}

func TestSerializationQueuing(t *testing.T) {
	// Two packets injected at once: the second waits one tx time.
	g, a, b := line(1_000_000_000, sim.Microsecond)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), DefaultConfig(1))
	var arrivals []sim.Time
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) { arrivals = append(arrivals, ctx.Now()) })
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
		net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
	})
	run(t, g, setup, sim.Millisecond)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals=%d", len(arrivals))
	}
	if d := arrivals[1] - arrivals[0]; d != 8*sim.Microsecond {
		t.Fatalf("spacing=%v, want one tx time (8µs)", d)
	}
}

func TestDropTailOverflow(t *testing.T) {
	g, a, b := line(1_000_000, sim.Microsecond) // slow link: queue builds
	cfg := DefaultConfig(1)
	cfg.Queue = DropTailConfig(4)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), cfg)
	delivered := 0
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) { delivered++ })
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		for i := 0; i < 20; i++ {
			net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
		}
	})
	run(t, g, setup, sim.Second)
	// 1 in flight + 4 queued survive the burst.
	if delivered != 5 {
		t.Fatalf("delivered=%d, want 5", delivered)
	}
	if net.Drops() != 15 {
		t.Fatalf("drops=%d, want 15", net.Drops())
	}
}

func TestLinkDownDropsQueued(t *testing.T) {
	g, a, b := line(1_000_000, sim.Microsecond)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), DefaultConfig(1))
	delivered := 0
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) { delivered++ })
	l := g.LinkBetween(a, sim.NodeID(1))
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		for i := 0; i < 10; i++ {
			net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
		}
	})
	// Tear the access link down while the queue drains.
	setup.Global(10*sim.Millisecond, func(ctx *sim.Ctx) {
		g.SetLinkUp(l, false)
		net.LinkStateChanged(ctx)
	})
	run(t, g, setup, sim.Second)
	if delivered == 0 || delivered == 10 {
		t.Fatalf("delivered=%d, want partial delivery", delivered)
	}
	if net.Drops() == 0 {
		t.Fatal("no drops recorded for the downed link")
	}
}

func TestTTLDropsLoopedPackets(t *testing.T) {
	// Two switches in a loop with a static "routing" that ping-pongs.
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	s1 := g.AddNode(topology.Switch, "s1")
	s2 := g.AddNode(topology.Switch, "s2")
	g.AddLink(a, s1, 1e9, 1000)
	g.AddLink(s1, s2, 1e9, 1000)
	net := New(g, loopRouter{g}, DefaultConfig(1))
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		// Destination that never matches: packet bounces until TTL.
		net.Inject(ctx, packet.Packet{Src: a, Dst: s2 + 100, Payload: 100})
	})
	// Destination out of range would panic in router; use unreachable b.
	run(t, g, setup, sim.Second)
	if net.Drops() != 1 {
		t.Fatalf("drops=%d, want 1 (TTL)", net.Drops())
	}
}

// loopRouter forwards everything between s1 and s2 forever.
type loopRouter struct{ g *topology.Graph }

func (r loopRouter) NextLink(n sim.NodeID, p *packet.Packet) (topology.LinkID, bool) {
	switch n {
	case 0: // host a
		return 0, true
	case 1: // s1 -> s2
		return 1, true
	case 2: // s2 -> s1
		return 1, true
	}
	return topology.NoLink, false
}
func (r loopRouter) Recompute() {}

func TestQueueDelayRecorded(t *testing.T) {
	g, a, b := line(1_000_000, sim.Microsecond)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), DefaultConfig(1))
	net.SetHandler(b, func(ctx *sim.Ctx, p packet.Packet) {})
	setup := sim.NewSetup()
	setup.At(0, a, func(ctx *sim.Ctx) {
		for i := 0; i < 5; i++ {
			net.Inject(ctx, packet.Packet{Src: a, Dst: b, Payload: 960})
		}
	})
	run(t, g, setup, sim.Second)
	dev := net.Device(a, 0)
	if dev.QueueDelay.N != 5 {
		t.Fatalf("queue delay samples=%d, want 5", dev.QueueDelay.N)
	}
	// Mean queue delay must be positive (packets 2..5 waited).
	if dev.QueueDelay.Mean() <= 0 {
		t.Fatal("no queueing delay recorded despite burst")
	}
	if dev.TxPackets != 5 {
		t.Fatalf("TxPackets=%d", dev.TxPackets)
	}
}

func TestHandlerOnNonHostPanics(t *testing.T) {
	g, _, _ := line(1e9, 1000)
	net := New(g, routing.NewECMP(g, routing.Hops, 1), DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetHandler on switch did not panic")
		}
	}()
	net.SetHandler(sim.NodeID(1), func(*sim.Ctx, packet.Packet) {})
}
