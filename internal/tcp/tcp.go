// Package tcp implements the simulated transport layer: TCP New Reno
// (slow start, AIMD congestion avoidance, fast retransmit, New Reno fast
// recovery, Jacobson RTO estimation) and DCTCP (ECN fraction estimation
// with window scaling), plus a minimal UDP datagram service.
//
// Connection state is owned by its endpoint's node and only mutated from
// events executing there, so the transport is lock-free under every
// kernel. Flow statistics go to an internal/flowmon monitor whose records
// are likewise single-owner.
package tcp

import (
	"fmt"
	"math"

	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/topology"
)

// Variant selects the congestion-control algorithm.
type Variant uint8

const (
	// NewReno is classic loss-based TCP with New Reno fast recovery.
	NewReno Variant = iota
	// DCTCP scales the window by the ECN-marked fraction (Alizadeh 2010).
	DCTCP
)

func (v Variant) String() string {
	if v == DCTCP {
		return "dctcp"
	}
	return "newreno"
}

// Config tunes the transport.
type Config struct {
	Variant  Variant
	MSS      int32
	InitCwnd int32    // initial window in segments
	MinRTO   sim.Time // RTO floor (1 ms for DCNs, 200 ms for WANs)
	InitRTO  sim.Time // RTO before the first RTT sample
	MaxRTO   sim.Time
	// DCTCPShiftG is DCTCP's alpha EWMA gain g (paper default 1/16).
	DCTCPShiftG float64
	// DelayedAck coalesces ACKs: one per two segments or after AckDelay,
	// with immediate ACKs on out-of-order data, FIN, and (for DCTCP) on
	// CE-state changes — the DCTCP delayed-ACK state machine.
	DelayedAck bool
	// AckDelay is the delayed-ACK timeout (default 40 µs, a data-center
	// setting; use milliseconds for WANs).
	AckDelay sim.Time
	// RcvBuf enables receive-window flow control when positive: receivers
	// advertise RcvBuf minus buffered out-of-order bytes, and senders
	// never exceed min(cwnd, advertised window) in flight.
	RcvBuf int32
}

// DefaultConfig returns a data-center-tuned New Reno configuration.
func DefaultConfig() Config {
	return Config{
		Variant:     NewReno,
		MSS:         packet.MSS,
		InitCwnd:    10,
		MinRTO:      sim.Millisecond,
		InitRTO:     10 * sim.Millisecond,
		MaxRTO:      sim.Second,
		DCTCPShiftG: 1.0 / 16,
		AckDelay:    40 * sim.Microsecond,
	}
}

// WANConfig returns a wide-area configuration (RFC-style 200 ms RTO floor).
func WANConfig() Config {
	c := DefaultConfig()
	c.MinRTO = 200 * sim.Millisecond
	c.InitRTO = sim.Second
	return c
}

// DCTCPConfig returns the DCTCP variant of DefaultConfig.
func DCTCPConfig() Config {
	c := DefaultConfig()
	c.Variant = DCTCP
	return c
}

// FlowSpec describes one application flow to run.
type FlowSpec struct {
	ID    packet.FlowID
	Src   sim.NodeID
	Dst   sim.NodeID
	Bytes int64
	Start sim.Time
}

// Stack is the per-simulation transport instance: it owns the connection
// stores of every host and registers itself as each host's packet handler.
type Stack struct {
	net *netdev.Network  //unison:ckpt-skip wiring, rebuilt by NewStack before restore
	cfg Config           //unison:ckpt-skip run config, identical across restore by contract
	mon *flowmon.Monitor //unison:ckpt-skip wiring; the monitor checkpoints itself as its own layer

	// hosts[node] is the node's connection store (arena + flow table, see
	// store.go); owned by the node, mutated only from its events. Records
	// are recycled when an endpoint finishes its role, so the live
	// footprint tracks concurrent flows, not total flows.
	hosts []hostConns

	// udpSinks holds per-host datagram consumers (see udp.go); populated
	// at setup time only, read-only during the run.
	udpSinks map[sim.NodeID]UDPSink //unison:ckpt-skip wiring, re-registered at setup before restore

	// pump is the streaming-workload cursor when AttachStream wired one;
	// its (pending, ok) pair is part of the checkpointable state.
	pump *streamPump

	// starts are the workloads Attach chained, in call order (chain.go), and
	// chained the flows they hold: set-up wiring, read-only during the run.
	// A pending start's place in its chain is its event's descriptor.
	starts  []*startChain //unison:ckpt-skip wiring, rebuilt by Attach before restore
	chained int32         //unison:ckpt-skip wiring, rebuilt by Attach before restore

	// flowDone is the completion hook registered by OnFlowDone; nil when
	// nothing listens. Written once at setup time, read-only during the
	// run, invoked from the completing endpoint's own events.
	flowDone FlowDoneFunc //unison:ckpt-skip wiring, re-registered by OnFlowDone before restore
}

// FlowDoneFunc observes flow-endpoint completion. It is called once per
// endpoint role: with sender=true from the event (at the flow's Src) that
// acknowledges the sender's FIN, and with sender=false from the event (at
// the flow's Dst) that delivers the last byte plus FIN. The monitor
// record of the finished side is final when the hook runs.
//
// The hook executes inside a node event, so it may only touch state owned
// by ctx.Node() and start new flows originating there (StartFlow or
// ScheduleFlow with Src == ctx.Node()) — the same causality contract
// every other event obeys, which is what keeps hook-driven workloads
// bit-identical under the conservative and distributed kernels.
type FlowDoneFunc func(ctx *sim.Ctx, id packet.FlowID, sender bool)

// NewStack wires the transport into net's hosts.
func NewStack(net *netdev.Network, cfg Config, mon *flowmon.Monitor) *Stack {
	if cfg.MSS <= 0 || cfg.InitCwnd <= 0 {
		panic("tcp: invalid config")
	}
	s := &Stack{net: net, cfg: cfg, mon: mon, hosts: make([]hostConns, net.G.N())}
	for _, h := range net.G.Hosts() {
		host := h
		net.SetHandler(host, func(ctx *sim.Ctx, p packet.Packet) { s.deliver(ctx, host, p) })
	}
	return s
}

// Attach schedules the start events for all flows on the model setup:
// flow i starts at flows[i].Start on flows[i].Src as the setup event it
// would have been had each been added with setup.AtDesc in slice order. Only
// each host's first start is an init event; it puts the host's next, and so
// on (chain.go). Attach retains flows, which must not change afterwards.
// Flows must already be registered with the monitor.
func (s *Stack) Attach(setup *sim.Setup, flows []FlowSpec) {
	if int64(s.chained)+int64(len(flows)) > math.MaxInt32 {
		panic(fmt.Sprintf("tcp: more than %d flows attached", math.MaxInt32))
	}
	c := &startChain{s: s, flows: flows, base: setup.Reserve(len(flows)), off: s.chained}
	first := c.link(len(s.hosts))
	s.starts = append(s.starts, c)
	s.chained += int32(len(flows))
	evs := make([]chainEvt, len(first)) // one allocation, not one per host
	setup.Grow(len(first))
	for k, i := range first {
		e := &evs[k]
		e.c, e.i, e.fn = c, i, e.run
		f := &flows[i]
		setup.AtReserved(f.Start, f.Src, c.base+uint64(i), e.fn, e)
	}
}

// FlowSource yields a workload one flow at a time in nondecreasing Start
// order. traffic.Stream implements it; AttachStream consumes it.
type FlowSource interface {
	Next() (FlowSpec, bool)
}

// DefaultStreamWindow is AttachStream's release granularity: each pump
// event hands the kernel the arrivals of the next window.
const DefaultStreamWindow = 100 * sim.Microsecond

// AttachStream wires a lazily generated workload into the run: instead of
// materializing every flow up front (the whole []FlowSpec, held for the
// whole run, with one pending start per host), a chained global "pump"
// event walks the source as virtual time advances and releases each
// window's arrivals just before they are due.
//
// The pump runs as a global event (all workers quiescent), which is the
// one context allowed to schedule directly onto any node without
// violating the kernels' causality windows. Kernels that reject global
// events (null-message, distributed) need the materialized Attach path.
//
// window <= 0 selects DefaultStreamWindow. The source must yield flows in
// nondecreasing Start order (traffic.Stream guarantees this).
func (s *Stack) AttachStream(setup *sim.Setup, src FlowSource, window sim.Time) {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	p := &streamPump{s: s, src: src, window: window}
	p.fn = p.run
	p.pending, p.ok = src.Next()
	s.pump = p
	if !p.ok {
		return
	}
	setup.GlobalDesc(p.pending.Start, p.fn, p)
}

// streamPump is the chained global event of AttachStream. Its cursor
// state (the next flow to release and whether the source is exhausted)
// lives on the struct instead of closure locals so a checkpoint can
// persist it; the pump event itself serializes as an empty-payload
// descriptor, with the cursor restored through the Stack's section.
type streamPump struct {
	s       *Stack     //unison:ckpt-skip wiring, rebuilt by AttachStream before restore
	src     FlowSource //unison:ckpt-skip the source replays deterministically to the restored cursor
	window  sim.Time   //unison:ckpt-skip config, fixed at AttachStream
	pending FlowSpec
	ok      bool
	fn      sim.Proc //unison:ckpt-skip method value, rebound by AttachStream
}

func (p *streamPump) run(ctx *sim.Ctx) {
	horizon := ctx.Now() + p.window
	for p.ok && p.pending.Start < horizon {
		f := p.pending
		if f.Start < ctx.Now() {
			panic(fmt.Sprintf("tcp: flow source went backwards: flow %d at %v before pump at %v",
				f.ID, f.Start, ctx.Now()))
		}
		e := &flowStartEvt{s: p.s, f: f}
		e.fn = e.run
		ctx.ScheduleAtDesc(f.Start, f.Src, e.fn, e)
		p.pending, p.ok = p.src.Next()
	}
	if p.ok {
		ctx.ScheduleGlobalDesc(p.pending.Start, p.fn, p)
	}
}

// OnFlowDone registers the stack's single completion hook (the collective
// DAG engine's release driver, internal/coll). One owner only: a second
// registration panics, so two subsystems cannot silently race for the
// same callback slot. Call at setup time, before the run starts.
//
//unison:owner producer
func (s *Stack) OnFlowDone(fn FlowDoneFunc) {
	if s.flowDone != nil {
		panic("tcp: OnFlowDone hook already registered (single owner)")
	}
	s.flowDone = fn
}

// notifyFlowDone fires the completion hook from the finishing endpoint's
// own event. Runs after the monitor record was finalized, and before the
// connection record is recycled — a hook that starts a new flow on this
// node allocates fresh arena slots (chunks never move), so the caller's
// connection pointer stays valid.
//
//unison:owner consumer
func (s *Stack) notifyFlowDone(ctx *sim.Ctx, id packet.FlowID, sender bool) {
	if s.flowDone != nil {
		s.flowDone(ctx, id, sender)
	}
}

// ScheduleFlow schedules f's start event at f.Start (>= the current event
// time) on f.Src, carrying f itself as its checkpoint descriptor, so a
// released flow that is still pending at a snapshot boundary survives
// restore exactly like a materialized one. It must be
// called from an event executing at f.Src: scheduling onto one's own node
// is the one runtime scheduling pattern every kernel (including
// null-message and distributed) permits at zero lookahead.
func (s *Stack) ScheduleFlow(ctx *sim.Ctx, f FlowSpec) {
	if ctx.Node() != f.Src {
		panic(fmt.Sprintf("tcp: ScheduleFlow for src %d from node %d", f.Src, ctx.Node()))
	}
	e := &flowStartEvt{s: s, f: f}
	e.fn = e.run
	ctx.ScheduleAtDesc(f.Start, f.Src, e.fn, e)
}

// StartFlow opens the connection for f and begins the handshake. It must
// run on an event executing at f.Src.
func (s *Stack) StartFlow(ctx *sim.Ctx, f FlowSpec) {
	if ctx.Node() != f.Src {
		panic(fmt.Sprintf("tcp: StartFlow for src %d on node %d", f.Src, ctx.Node()))
	}
	if s.net.G.Nodes[f.Dst].Kind != topology.Host {
		panic(fmt.Sprintf("tcp: flow %d destination %d is not a host", f.ID, f.Dst))
	}
	h := &s.hosts[f.Src]
	c, idx := h.arena.alloc()
	c.init(s, f, true)
	h.tab.put(f.ID, idx)
	s.mon.Sender(f.ID).Start(ctx.Now(), f.Src, f.Dst, f.Bytes)
	c.sendSYN(ctx)
}

// deliver dispatches an arriving packet to its connection, creating the
// passive endpoint on SYN. UDP datagrams go to the host's sink.
func (s *Stack) deliver(ctx *sim.Ctx, host sim.NodeID, p packet.Packet) {
	if p.Proto == packet.UDP {
		s.deliverUDP(ctx, host, p)
		return
	}
	h := &s.hosts[host]
	idx, found := h.tab.get(p.Flow)
	var c *conn
	if found {
		c = h.arena.at(idx)
	} else {
		if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 {
			c, idx = h.arena.alloc()
			c.init(s, FlowSpec{ID: p.Flow, Src: p.Dst, Dst: p.Src}, false)
			h.tab.put(p.Flow, idx)
		} else {
			// Stray packet for a closed/unknown connection. If this
			// endpoint already finished receiving the flow, the peer lost
			// our final ACK and is retransmitting data or FIN: answer
			// statelessly from the monitor record (the TIME-WAIT analog;
			// the record knows the exact cumulative ACK).
			if (p.Payload > 0 || p.Flags&packet.FlagFIN != 0) && s.mon.Recv(p.Flow).Done {
				s.sendClosedAck(ctx, host, &p)
			}
			return
		}
	}
	c.receive(ctx, p)
	// Recycle the record as soon as the endpoint's role is over: the
	// sender when its FIN is acknowledged, the receiver when it has
	// delivered the whole flow and emitted the final ACK. Late packets
	// take the stateless path above; stale timers are disarmed by the
	// generation counters recycle() preserves.
	if c.roleDone() {
		h.tab.delete(p.Flow)
		h.arena.release(idx)
	}
}

// sendClosedAck re-acknowledges a finished flow without connection state:
// the cumulative ACK covers every byte plus the FIN, exactly what the
// live receiver's final ACK carried.
func (s *Stack) sendClosedAck(ctx *sim.Ctx, host sim.NodeID, p *packet.Packet) {
	rec := s.mon.Recv(p.Flow)
	ack := packet.Packet{
		Flow: p.Flow, Src: host, Dst: p.Src, Proto: packet.TCP,
		Flags: packet.FlagACK,
		Ack:   uint32(rec.BytesRcvd) + 1, // all bytes + FIN
	}
	ack.SendTime = ctx.Now()
	ack.EchoTime = p.SendTime
	if buf := s.cfg.RcvBuf; buf > 0 {
		ack.Wnd = uint32(buf)
	}
	if s.cfg.Variant == DCTCP && p.CE {
		ack.Flags |= packet.FlagECE
	}
	s.net.Inject(ctx, ack)
}

// Conn returns the live endpoint of flow id at node n, or nil once the
// endpoint finished and its record was recycled (testing).
func (s *Stack) Conn(n sim.NodeID, id packet.FlowID) Endpoint {
	h := &s.hosts[n]
	idx, ok := h.tab.get(id)
	if !ok {
		return nil
	}
	return h.arena.at(idx)
}

// Endpoint exposes read-only connection state for tests and monitors.
type Endpoint interface {
	Cwnd() int32
	Ssthresh() int32
	RTO() sim.Time
	Done() bool
	Retransmits() uint64
}
