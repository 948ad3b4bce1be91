package tcp

import (
	"testing"

	"unison/internal/des"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/topology"
)

// harness wires a dumbbell with n flow pairs and runs them sequentially.
type harness struct {
	d     *topology.Dumbbell
	net   *netdev.Network
	stack *Stack
	mon   *flowmon.Monitor
}

func newHarness(n int, edgeBW, bottleBW int64, qcfg netdev.QueueConfig, tcpCfg Config, flows []FlowSpec) *harness {
	d := topology.BuildDumbbell(n, edgeBW, bottleBW, 2*sim.Microsecond, 10*sim.Microsecond)
	netCfg := netdev.Config{Queue: qcfg, ChecksumWork: false, Seed: 1}
	net := netdev.New(d.Graph, routing.NewECMP(d.Graph, routing.Hops, 1), netCfg)
	mon := flowmon.NewMonitor(len(flows))
	stack := NewStack(net, tcpCfg, mon)
	return &harness{d: d, net: net, stack: stack, mon: mon}
}

func (h *harness) run(t *testing.T, flows []FlowSpec, stop sim.Time) *sim.RunStats {
	t.Helper()
	setup := sim.NewSetup()
	h.stack.Attach(setup, flows)
	setup.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: h.d.N(), Links: h.d.LinkInfos, Init: setup.Events(), StopAt: stop}
	st, err := des.New().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSingleFlowCompletes(t *testing.T) {
	// 50 KB finishes inside slow start before the window can overrun the
	// 100-packet buffer, so the path stays genuinely loss-free.
	flows := []FlowSpec{{ID: 0, Src: 0, Dst: 0, Bytes: 50_000}}
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(100), DefaultConfig(), nil)
	flows[0].Src = h.d.Senders[0]
	flows[0].Dst = h.d.Receivers[0]
	h.mon = flowmon.NewMonitor(1)
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 100*sim.Millisecond)
	rec := h.mon.Sender(0)
	if !rec.Done {
		t.Fatal("flow did not complete")
	}
	if h.mon.Recv(0).BytesRcvd != 50_000 {
		t.Fatalf("received %d bytes, want 50000", h.mon.Recv(0).BytesRcvd)
	}
	if rec.Retransmit != 0 {
		t.Fatalf("retransmits=%d on a clean path", rec.Retransmit)
	}
}

// mkFlows builds one flow per dumbbell pair.
func mkFlows(d *topology.Dumbbell, bytes int64) []FlowSpec {
	var fs []FlowSpec
	for i := range d.Senders {
		fs = append(fs, FlowSpec{
			ID: packet.FlowID(i), Src: d.Senders[i], Dst: d.Receivers[i], Bytes: bytes,
		})
	}
	return fs
}

func TestThroughputApproachesLineRate(t *testing.T) {
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(200), DefaultConfig(), nil)
	flows := mkFlows(h.d, 4_000_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 200*sim.Millisecond)
	if !h.mon.Sender(0).Done {
		t.Fatal("flow incomplete")
	}
	gp := h.mon.Recv(0).Goodput() * 8 / 1e9 // Gbit/s
	if gp < 0.75 {
		t.Fatalf("goodput %.3f Gbps, want > 0.75 of the 1 Gbps line", gp)
	}
}

func TestCongestionCausesRetransmitsAndRecovery(t *testing.T) {
	// 8 senders share a 100 Mbps bottleneck with a small buffer.
	h := newHarness(8, 1e9, 1e8, netdev.DropTailConfig(20), DefaultConfig(), nil)
	flows := mkFlows(h.d, 1_000_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 5*sim.Second)
	if h.mon.Completed() != 8 {
		t.Fatalf("completed=%d/8", h.mon.Completed())
	}
	if h.mon.TotalRetransmits() == 0 {
		t.Fatal("no retransmissions despite a 20-packet buffer at 10:1 overload")
	}
	if h.net.Drops() == 0 {
		t.Fatal("no drops at the bottleneck")
	}
}

func TestFairnessOnSharedBottleneck(t *testing.T) {
	h := newHarness(4, 1e9, 1e8, netdev.REDConfig(100), DefaultConfig(), nil)
	flows := mkFlows(h.d, 2_000_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 8*sim.Second)
	if h.mon.Completed() != 4 {
		t.Fatalf("completed=%d/4", h.mon.Completed())
	}
	j := stats.Jain(h.mon.Goodputs())
	if j < 0.85 {
		t.Fatalf("Jain index %.3f, want > 0.85", j)
	}
}

func TestDCTCPKeepsQueueShort(t *testing.T) {
	runVariant := func(cfg Config, qcfg netdev.QueueConfig) (meanQ float64, completed int) {
		h := newHarness(8, 1e9, 1e9, qcfg, cfg, nil)
		flows := mkFlows(h.d, 2_000_000)
		h.mon = flowmon.NewMonitor(len(flows))
		h.stack = NewStack(h.net, cfg, h.mon)
		h.run(t, flows, sim.Second)
		var q stats.Summary
		h.net.Devices(func(d *netdev.Device) {
			if d.Node() == h.d.Left && d.QueueDelay.N > 0 {
				q.Merge(&d.QueueDelay)
			}
		})
		return q.Mean(), h.mon.Completed()
	}
	dctcpQ, dctcpDone := runVariant(DCTCPConfig(), netdev.DCTCPConfig(200, 20))
	renoQ, renoDone := runVariant(DefaultConfig(), netdev.DropTailConfig(200))
	if dctcpDone != 8 || renoDone != 8 {
		t.Fatalf("completed dctcp=%d reno=%d", dctcpDone, renoDone)
	}
	if dctcpQ >= renoQ {
		t.Fatalf("DCTCP queue delay %.0fns not below Reno %.0fns", dctcpQ, renoQ)
	}
}

func TestDCTCPMarksObserved(t *testing.T) {
	h := newHarness(8, 1e9, 1e9, netdev.DCTCPConfig(200, 20), DCTCPConfig(), nil)
	flows := mkFlows(h.d, 2_000_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DCTCPConfig(), h.mon)
	h.run(t, flows, sim.Second)
	var marks uint64
	h.net.Devices(func(d *netdev.Device) { marks += d.MarkCount })
	if marks == 0 {
		t.Fatal("no ECN marks under 8:1 incast on a K=20 queue")
	}
}

func TestRTTMeasured(t *testing.T) {
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(100), DefaultConfig(), nil)
	flows := mkFlows(h.d, 200_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 100*sim.Millisecond)
	rtt := h.mon.Sender(0).RTT
	if rtt.N == 0 {
		t.Fatal("no RTT samples")
	}
	// Base RTT: 2×(2+10+2)µs propagation plus serialization ≈ 28–80 µs.
	mean := rtt.Mean()
	// Base RTT ≈ 28 µs; queueing in slow start can inflate it well past
	// that, but it must stay below the 100-packet buffer bound (~2.5 ms).
	if mean < 28_000 || mean > 2_500_000 {
		t.Fatalf("mean RTT %.0fns outside plausible range", mean)
	}
}

func TestRTORecoversFromTotalLoss(t *testing.T) {
	// Tear the bottleneck down mid-flow, then bring it back: the flow
	// must finish via RTO-driven retransmission.
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(100), DefaultConfig(), nil)
	flows := mkFlows(h.d, 3_000_000)
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	setup := sim.NewSetup()
	h.stack.Attach(setup, flows)
	l := h.d.Bottleneck
	setLink := func(at sim.Time, up bool) {
		setup.Global(at, func(ctx *sim.Ctx) {
			h.d.SetLinkUp(l, up)
			h.net.LinkStateChanged(ctx)
		})
	}
	setLink(2*sim.Millisecond, false)
	setLink(30*sim.Millisecond, true)
	stop := sim.Second
	setup.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: h.d.N(), Links: h.d.LinkInfos, Init: setup.Events(), StopAt: stop}
	if _, err := des.New().Run(m); err != nil {
		t.Fatal(err)
	}
	rec := h.mon.Sender(0)
	if !rec.Done {
		t.Fatal("flow did not recover from the outage")
	}
	if rec.Retransmit == 0 {
		t.Fatal("no retransmissions after an outage")
	}
	if h.mon.Recv(0).BytesRcvd != 3_000_000 {
		t.Fatalf("received %d bytes", h.mon.Recv(0).BytesRcvd)
	}
}

func TestManySmallFlows(t *testing.T) {
	// Sequential small RPCs on every pair: all must finish quickly.
	h := newHarness(16, 1e9, 1e9, netdev.DropTailConfig(100), DefaultConfig(), nil)
	var flows []FlowSpec
	id := packet.FlowID(0)
	for round := 0; round < 4; round++ {
		for i := range h.d.Senders {
			flows = append(flows, FlowSpec{
				ID: id, Src: h.d.Senders[i], Dst: h.d.Receivers[i],
				Bytes: 4096, Start: sim.Time(round) * 100 * sim.Microsecond,
			})
			id++
		}
	}
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, DefaultConfig(), h.mon)
	h.run(t, flows, 100*sim.Millisecond)
	if h.mon.Completed() != len(flows) {
		t.Fatalf("completed=%d/%d", h.mon.Completed(), len(flows))
	}
}

func TestIntervalAdmit(t *testing.T) {
	c := &conn{}
	// In-order.
	if n := c.admit(0, 100); n != 100 || c.rcvNxt != 100 {
		t.Fatalf("admit in-order: n=%d rcvNxt=%d", n, c.rcvNxt)
	}
	// Gap: 200-300 buffered out of order.
	if n := c.admit(200, 300); n != 100 || c.rcvNxt != 100 {
		t.Fatalf("admit ooo: n=%d rcvNxt=%d", n, c.rcvNxt)
	}
	// Duplicate of buffered data: no new bytes.
	if n := c.admit(200, 300); n != 0 {
		t.Fatalf("duplicate counted: %d", n)
	}
	// Fill the hole: rcvNxt jumps to 300.
	if n := c.admit(100, 200); n != 100 || c.rcvNxt != 300 {
		t.Fatalf("fill hole: n=%d rcvNxt=%d", n, c.rcvNxt)
	}
	// Fully old data.
	if n := c.admit(0, 50); n != 0 {
		t.Fatalf("stale data counted: %d", n)
	}
	// Partial overlap with delivered prefix.
	if n := c.admit(250, 350); n != 50 || c.rcvNxt != 350 {
		t.Fatalf("partial overlap: n=%d rcvNxt=%d", n, c.rcvNxt)
	}
}

func TestIntervalMergeChain(t *testing.T) {
	c := &conn{}
	// Insert alternating segments then bridge them all at once.
	c.admit(100, 200)
	c.admit(300, 400)
	c.admit(500, 600)
	if len(c.ooo) != 3 {
		t.Fatalf("ooo intervals=%d, want 3", len(c.ooo))
	}
	c.admit(150, 550) // overlaps all three
	if len(c.ooo) != 1 || c.ooo[0].lo != 100 || c.ooo[0].hi != 600 {
		t.Fatalf("merge failed: %+v", c.ooo)
	}
	c.admit(0, 100)
	if c.rcvNxt != 600 || len(c.ooo) != 0 {
		t.Fatalf("pull-forward failed: rcvNxt=%d ooo=%v", c.rcvNxt, c.ooo)
	}
}

func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	cfg := DefaultConfig()
	e.init(cfg)
	if e.rto != cfg.InitRTO {
		t.Fatalf("initial rto=%v", e.rto)
	}
	e.sample(100_000, cfg) // 100 µs
	// First sample: srtt=rtt, rttvar=rtt/2, rto=srtt+4var=300µs... below
	// MinRTO (1ms), so clamped.
	if e.rto != cfg.MinRTO {
		t.Fatalf("rto=%v, want clamped to MinRTO", e.rto)
	}
	for i := 0; i < 100; i++ {
		e.sample(2*sim.Millisecond, cfg)
	}
	if e.srtt < 1900*sim.Microsecond || e.srtt > 2100*sim.Microsecond {
		t.Fatalf("srtt=%v after convergence", e.srtt)
	}
	e.sample(-5, cfg) // ignored
	if e.samples.N != 101 {
		t.Fatalf("negative sample counted: N=%d", e.samples.N)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	g := topology.New()
	h1 := g.AddNode(topology.Host, "h1")
	h2 := g.AddNode(topology.Host, "h2")
	g.AddLink(h1, h2, 1e9, 1000)
	net := netdev.New(g, routing.NewECMP(g, routing.Hops, 1), netdev.DefaultConfig(1))
	NewStack(net, Config{}, flowmon.NewMonitor(0))
}
