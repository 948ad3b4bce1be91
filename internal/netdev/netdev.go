// Package netdev implements the data plane of the simulated network:
// network devices (one per link endpoint) with output queues, link
// transmission and propagation, switch forwarding, and delivery to host
// transports. Together with internal/tcp it is the ns-3-model analog the
// paper's kernel runs underneath.
//
// Ownership discipline (the lock-free property): every Device belongs to
// exactly one node and is only touched from events executing on that node,
// so no device state needs synchronization under any kernel. Packets are
// value types; crossing a link copies the packet into a new event.
package netdev

import (
	"fmt"
	"sync"
	"unsafe"

	"unison/internal/netobs"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/topology"
	"unison/internal/trace"
)

// Handler consumes packets delivered to a host (the transport layer's
// entry point). It runs on the host's node.
type Handler func(ctx *sim.Ctx, p packet.Packet)

// Config tunes the data plane.
type Config struct {
	// Queue is the default queue configuration applied to every device.
	Queue QueueConfig
	// ChecksumWork enables the per-byte checksum work model, giving each
	// forwarding event a realistic processing cost (see internal/packet).
	ChecksumWork bool
	// Seed feeds the per-queue RED random streams.
	Seed uint64
}

// DefaultConfig returns a DropTail data plane with checksum work enabled.
func DefaultConfig(seed uint64) Config {
	return Config{Queue: DropTailConfig(100), ChecksumWork: true, Seed: seed}
}

// Network is the data plane over one topology graph.
type Network struct {
	G      *topology.Graph //unison:ckpt-skip topology is immutable run config, rebuilt from the scenario
	Router routing.Router  //unison:ckpt-skip routing tables are recomputed from G at construction
	Cfg    Config          //unison:ckpt-skip run config, identical across restore by contract

	// Tracer, when set before the run, records packet events (enqueue,
	// dequeue, drop, mark, deliver) — the pcap/ascii tracing analog.
	// Collection is lock-free (per-node buffers).
	Tracer *trace.Collector //unison:ckpt-skip wiring; the collector checkpoints itself as its own layer

	// sampler, when attached before the run, collects per-device queue and
	// link time series (see AttachSampler).
	sampler *netobs.Sampler //unison:ckpt-skip wiring; the sampler checkpoints itself as its own layer

	// Remote, when set, is consulted before scheduling a link arrival: if
	// it returns true the delivery was taken over by an external transport
	// (the distributed kernel ships the packet to the owning simulation
	// host over the wire, internal/dist).
	Remote func(ctx *sim.Ctx, at sim.NodeID, p packet.Packet, arrival sim.Time) bool //unison:ckpt-skip wiring, re-established by the dist kernel at attach

	// devs is the flat device array in struct-of-arrays style: the device
	// of link l at endpoint A (side 0) or B (side 1) is devs[2*l+side].
	// One allocation holds every device; hot per-device state (queue
	// pointer, busy flag) sits first in each record and the cold
	// observability counters live in the embedded DevStats block, so the
	// forwarding path touches a dense, predictable working set.
	devs []Device

	// handlers[n] receives packets addressed to host n.
	handlers []Handler //unison:ckpt-skip wiring, re-registered by the transport before restore

	// Dropped counts per-node drops (owned by the dropping node).
	nodeDrops []uint64

	// halfBusy[l] is the shared channel state of half-duplex link l. It
	// is only touched from events of the link's endpoints, which the
	// partition guarantees live in one LP (stateful links are never cut),
	// so no synchronization is needed.
	halfBusy []bool

	// lost names the frames a stateless link lost by going down while they
	// were being serialised: the receive event their startTx scheduled finds
	// itself here and delivers nothing. LinkStateChanged is the only writer,
	// so any node's receive may read it.
	lost []lostFrame

	// route[at] is a per-node scratch packet for the Router interface
	// call in forward: passing the address of a stack packet through an
	// interface method forces the whole packet to the heap on every hop.
	// Events of one node never run concurrently, so each slot is owned by
	// its node.
	route []packet.Packet //unison:ckpt-skip per-event scratch, dead at quiescent points
}

// New builds devices for every link of g.
func New(g *topology.Graph, router routing.Router, cfg Config) *Network {
	n := &Network{
		G:         g,
		Router:    router,
		Cfg:       cfg,
		devs:      make([]Device, 2*len(g.Links)),
		handlers:  make([]Handler, g.N()),
		nodeDrops: make([]uint64, g.N()),
		halfBusy:  make([]bool, len(g.Links)),
		route:     make([]packet.Packet, g.N()),
	}
	qalloc := newQueueArena(cfg, 2*len(g.Links))
	for i := range g.Links {
		l := &g.Links[i]
		for side, node := range [2]sim.NodeID{l.A, l.B} {
			d := &n.devs[2*i+side]
			d.net = n
			d.node = node
			d.link = l.ID
			d.queue = qalloc(node, l.ID)
			d.freeAt = neverSent
		}
	}
	return n
}

// SetHandler registers the transport entry point of host h.
func (n *Network) SetHandler(h sim.NodeID, fn Handler) {
	if n.G.Nodes[h].Kind != topology.Host {
		panic(fmt.Sprintf("netdev: handler on non-host node %d", h))
	}
	n.handlers[h] = fn
}

// Device returns the device of node at on link l.
func (n *Network) Device(at sim.NodeID, l topology.LinkID) *Device {
	if d := &n.devs[2*int(l)]; d.node == at {
		return d
	}
	if d := &n.devs[2*int(l)+1]; d.node == at {
		return d
	}
	panic(fmt.Sprintf("netdev: node %d not on link %d", at, l))
}

// Devices calls fn for every device (post-run statistics collection).
func (n *Network) Devices(fn func(*Device)) {
	for i := range n.devs {
		fn(&n.devs[i])
	}
}

// AttachSampler registers a queue/link probe on every device. Call before
// the run starts; probes then ride the device's own events (single-owner,
// lock-free under every kernel — the same discipline as Tracer). A nil or
// absent sampler costs one nil-check per queue operation.
func (n *Network) AttachSampler(s *netobs.Sampler) {
	n.sampler = s
	if s == nil {
		n.Devices(func(d *Device) { d.probe = nil })
		return
	}
	n.Devices(func(d *Device) {
		d.probe = s.Register(d.node, int32(d.link), n.G.Links[d.link].Bandwidth)
	})
}

// Sampler returns the attached sampler, or nil.
func (n *Network) Sampler() *netobs.Sampler { return n.sampler }

// MemStats is the data plane's self-reported memory footprint, held to a
// budget by experiments.TestScaleMemoryBudget.
type MemStats struct {
	Devices     int   `json:"devices"`      // link endpoints
	DeviceBytes int64 `json:"device_bytes"` // flat device array
	QueueBytes  int64 `json:"queue_bytes"`  // queue records + ring buffers
	NodeBytes   int64 `json:"node_bytes"`   // per-node flat state (handlers, drops, scratch)
}

// Mem reports the network's state footprint.
func (n *Network) Mem() MemStats {
	m := MemStats{
		Devices:     len(n.devs),
		DeviceBytes: int64(cap(n.devs)) * int64(unsafe.Sizeof(Device{})),
		NodeBytes: int64(cap(n.handlers))*int64(unsafe.Sizeof(Handler(nil))) +
			int64(cap(n.nodeDrops))*8 + int64(cap(n.halfBusy)) +
			int64(cap(n.route))*int64(unsafe.Sizeof(packet.Packet{})),
	}
	for i := range n.devs {
		m.QueueBytes += queueMemBytes(n.devs[i].queue)
	}
	return m
}

// Drops returns the total packets dropped network-wide.
func (n *Network) Drops() uint64 {
	var t uint64
	for _, d := range n.nodeDrops {
		t += d
	}
	n.Devices(func(d *Device) { t += d.Drops })
	return t
}

// Inject sends packet p from its source host into the network. It must run
// on an event executing at p.Src (transports guarantee this).
func (n *Network) Inject(ctx *sim.Ctx, p packet.Packet) {
	if ctx.Node() != p.Src {
		panic(fmt.Sprintf("netdev: inject of packet from %d on node %d", p.Src, ctx.Node()))
	}
	n.forward(ctx, ctx.Node(), p)
}

// Deliver injects a packet arrival at node `at` from an external
// transport; it must run on an event executing at that node (the
// distributed kernel guarantees this).
func (n *Network) Deliver(ctx *sim.Ctx, at sim.NodeID, p packet.Packet) {
	n.receive(ctx, at, p)
}

// receive handles a packet arriving at node `at` after link propagation.
func (n *Network) receive(ctx *sim.Ctx, at sim.NodeID, p packet.Packet) {
	if n.Cfg.ChecksumWork {
		_ = packet.Checksum(&p)
	}
	if p.Dst == at {
		n.traceEvent(ctx, trace.Deliver, at, &p)
		if h := n.handlers[at]; h != nil {
			h(ctx, p)
		}
		return
	}
	n.forward(ctx, at, p)
}

// traceEvent emits a trace record when tracing is enabled.
func (n *Network) traceEvent(ctx *sim.Ctx, kind trace.Kind, at sim.NodeID, p *packet.Packet) {
	if n.Tracer == nil {
		return
	}
	n.Tracer.Add(trace.Record{
		Time: ctx.Now(), Node: at, Kind: kind, Flow: p.Flow, Seq: p.Seq, Size: p.Size(),
	})
}

// forward routes p out of node `at`.
func (n *Network) forward(ctx *sim.Ctx, at sim.NodeID, p packet.Packet) {
	if p.Hops >= packet.MaxHops {
		n.nodeDrops[at]++
		n.traceEvent(ctx, trace.Drop, at, &p)
		return
	}
	// Route via the node's scratch slot so the packet stays off the heap
	// (routers only read the packet; the slot is consumed again before any
	// reentrant forward on this node can run).
	sp := &n.route[at]
	*sp = p
	l, ok := n.Router.NextLink(at, sp)
	if !ok {
		n.nodeDrops[at]++
		n.traceEvent(ctx, trace.Drop, at, sp)
		return
	}
	sp.Hops++
	n.Device(at, l).Send(ctx, *sp)
}

// pktEvt is a pooled event context for the closures of the transmit path
// (receive, drain, and a half-duplex link's txDone). An ad-hoc closure
// capturing a packet costs two heap allocations per hop; a pooled context
// reuses one struct whose bound method value was allocated once, so
// steady-state hops are allocation-free. A context is exclusive from Get
// until its event fires; run copies the fields out and returns it to the
// pool before dispatching.
type pktEvt struct {
	net  *Network
	dev  *Device // the transmitting device, whatever the kind
	p    packet.Packet
	kind uint8
	fn   sim.Proc
}

// A pktEvt's kind is its descriptor tag (ckpt.go) less kindTxDone.
const (
	evtTxDone  = uint8(kindTxDone - kindTxDone)
	evtReceive = uint8(kindReceive - kindTxDone)
	evtDrain   = uint8(kindDrain - kindTxDone)
)

var pktEvtPool sync.Pool

func init() {
	// Assigned in init (not in the var declaration) to break the spurious
	// initialization cycle pool → run → receive → … → pool.
	pktEvtPool.New = func() any {
		e := &pktEvt{}
		e.fn = e.run
		return e
	}
}

func (e *pktEvt) run(c *sim.Ctx) {
	net, dev, p, kind := e.net, e.dev, e.p, e.kind
	e.net, e.dev = nil, nil
	pktEvtPool.Put(e)
	switch kind {
	case evtTxDone:
		dev.txDone(c, p)
	case evtDrain:
		dev.drain(c)
	default:
		// A receive runs on the peer's node: of dev, which its own node is
		// writing, it may use the address and nothing else.
		if len(net.lost) == 0 || !net.lostNow(dev, c.Now()) {
			net.receive(c, c.Node(), p)
		}
	}
}

func schedPkt(ctx *sim.Ctx, delay sim.Time, at sim.NodeID, d *Device, kind uint8, p packet.Packet) {
	e := pktEvtPool.Get().(*pktEvt)
	e.net, e.dev, e.kind, e.p = d.net, d, kind, p
	ctx.ScheduleDesc(delay, at, e.fn, e)
}

// neverSent is freeAt before a device's first frame: earlier than any now.
const neverSent sim.Time = -1

// Device is one endpoint of a link: an output queue plus the transmitter.
// Devices live in the Network's flat device array (never behind individual
// heap pointers); the hot transmit-path fields come first and the cold
// per-device statistics are split into the embedded DevStats block. Field
// promotion keeps d.TxPackets-style access working for consumers.
//
// On a stateless link the end of a frame is an event only when it has work:
// startTx schedules the peer's receive itself, notes in freeAt when the
// transmitter is free again and reserves in txSeq the identity of the event
// at that instant; the event — drain — is put under it by whoever first
// leaves a packet waiting. So an event that runs is the one an eager
// transmitter ran, in the same place in the total order (DESIGN.md §5.2).
type Device struct {
	// Hot: touched on every Send/startTx.
	net    *Network //unison:ckpt-skip wiring, re-established by Build
	queue  Queue
	probe  *netobs.DevProbe //unison:ckpt-skip wiring (nil unless a sampler is attached), re-bound by AttachSampler
	freeAt sim.Time         // stateless: when the frame last started leaves the transmitter
	txSeq  uint64           // stateless: the identity reserved for the drain at freeAt
	node   sim.NodeID       //unison:ckpt-skip identity, fixed by the topology at Build
	link   topology.LinkID  //unison:ckpt-skip identity, fixed by the topology at Build
	// busy: an event that will restart the transmitter is in the FEL — a
	// drain, a half-duplex txDone or a link-down retry — and takes whatever
	// is queued meanwhile.
	busy bool

	// Cold: observability counters, read per-event but only written on
	// the slow paths (dequeue accounting, drops, marks).
	DevStats
}

// DevStats is the cold statistics block of a Device, owned by the
// device's node like the rest of its state.
type DevStats struct {
	TxPackets, TxBytes uint64
	Drops              uint64
	MarkCount          uint64 // ECN CE marks applied
	QueueDelay         stats.Summary
}

// Node returns the owning node.
func (d *Device) Node() sim.NodeID { return d.node }

// Link returns the attached link.
func (d *Device) Link() topology.LinkID { return d.link }

// QueuedPackets returns the current queue occupancy in packets.
func (d *Device) QueuedPackets() int { return d.queue.Len() }

// Send enqueues p for transmission, starting the transmitter if idle.
func (d *Device) Send(ctx *sim.Ctx, p packet.Packet) {
	verdict := d.queue.Enqueue(ctx, p)
	switch verdict {
	case verdictDrop:
		d.Drops++
		d.net.traceEvent(ctx, trace.Drop, d.node, &p)
		if d.probe != nil {
			d.probe.OnDrop(ctx.Now(), int32(d.queue.Len()))
		}
		return
	case verdictMark:
		d.MarkCount++
		d.net.traceEvent(ctx, trace.Mark, d.node, &p)
		if d.probe != nil {
			d.probe.OnEnqueue(ctx.Now(), int32(d.queue.Len()), true)
		}
	default:
		d.net.traceEvent(ctx, trace.Enqueue, d.node, &p)
		if d.probe != nil {
			d.probe.OnEnqueue(ctx.Now(), int32(d.queue.Len()), false)
		}
	}
	switch now := ctx.Now(); {
	case d.busy:
	case now > d.freeAt || now == d.freeAt && ctx.RunsBefore(d.node, d.txSeq):
		// The transmitter is free, or would be: at freeAt itself it is if
		// the drain nobody needed would have run before this event.
		d.startTx(ctx)
	default:
		d.putDrain(ctx) // mid-frame, and p is the first to wait for its end
	}
}

// putDrain schedules the event at the end of the frame on the wire.
func (d *Device) putDrain(ctx *sim.Ctx) {
	d.busy = true
	e := pktEvtPool.Get().(*pktEvt)
	e.net, e.dev, e.kind = d.net, d, evtDrain
	ctx.ScheduleReserved(d.freeAt, d.node, d.txSeq, e.fn, e)
}

func (d *Device) startTx(ctx *sim.Ctx) {
	lk := &d.net.G.Links[d.link]
	d.busy = false
	if !lk.Stateless && d.net.halfBusy[d.link] {
		// Half-duplex channel seized by the peer: stay quiet; the channel
		// release will kick this device.
		return
	}
	item, ok := d.queue.Dequeue(ctx.Now())
	if !ok {
		return
	}
	d.QueueDelay.Add(float64(ctx.Now() - item.enq))
	if !lk.Up {
		// Link went down while queued: drop and drain the rest next event.
		d.busy = true
		d.dropSent(ctx)
		ctx.Schedule(0, d.node, func(c *sim.Ctx) { d.startTx(c) })
		return
	}
	txTime := TxTime(int64(item.p.Size()), lk.Bandwidth)
	d.TxPackets++
	d.TxBytes += uint64(item.p.Size())
	d.net.traceEvent(ctx, trace.Dequeue, d.node, &item.p)
	if d.probe != nil {
		d.probe.OnDequeue(ctx.Now(), int32(d.queue.Len()), item.p.Size())
	}
	if !lk.Stateless {
		// The channel release and the kicks at the end of the frame are
		// work whatever is queued: the event stays eager.
		d.busy = true
		d.net.halfBusy[d.link] = true
		schedPkt(ctx, txTime, d.node, d, evtTxDone, item.p)
		return
	}
	d.freeAt = ctx.Now() + txTime
	d.txSeq = ctx.Reserve()
	d.propagate(ctx, lk, txTime+lk.Delay, item.p)
	if d.queue.Len() > 0 {
		d.putDrain(ctx)
	}
}

// propagate hands p to the peer's node after delay.
func (d *Device) propagate(ctx *sim.Ctx, lk *topology.Link, delay sim.Time, p packet.Packet) {
	peer := lk.Other(d.node)
	if net := d.net; net.Remote == nil || !net.Remote(ctx, peer, p, ctx.Now()+delay) {
		schedPkt(ctx, delay, peer, d, evtReceive, p)
	}
}

// dropSent counts a dequeued packet a dead link took.
func (d *Device) dropSent(ctx *sim.Ctx) {
	d.Drops++
	if d.probe != nil {
		d.probe.OnDrop(ctx.Now(), int32(d.queue.Len()))
	}
}

// drain is the end of a frame on a stateless link that someone had a reason
// to schedule: a packet was waiting, or the link went down under the frame.
func (d *Device) drain(ctx *sim.Ctx) {
	if !d.net.G.Links[d.link].Up {
		d.dropSent(ctx) // the frame just ended; LinkStateChanged saw to its receive
	}
	d.startTx(ctx)
}

// txDone is the end of a frame on a half-duplex link.
func (d *Device) txDone(ctx *sim.Ctx, p packet.Packet) {
	lk := &d.net.G.Links[d.link]
	if lk.Up {
		d.propagate(ctx, lk, lk.Delay, p)
	} else {
		d.dropSent(ctx)
	}
	// Release the shared channel and offer it to the peer device; the
	// partition keeps both endpoints in one LP, so the zero-delay kick
	// executes in the same round with deterministic ordering.
	d.net.halfBusy[d.link] = false
	d.busy = false
	peer := lk.Other(d.node)
	peerDev := d.net.Device(peer, d.link)
	ctx.Schedule(0, peer, func(c *sim.Ctx) {
		if !peerDev.busy {
			peerDev.startTx(c)
		}
	})
	ctx.Schedule(0, d.node, func(c *sim.Ctx) {
		if !d.busy {
			d.startTx(c)
		}
	})
}

// lostFrame is a frame whose link was down at end, the instant it left
// sender's transmitter; its receive event, at arrival, delivers nothing.
type lostFrame struct {
	sender       int32 // index into devs
	end, arrival sim.Time
}

// lostNow reports whether the frame d sent that arrives now was lost.
func (n *Network) lostNow(d *Device, now sim.Time) bool {
	for _, lf := range n.lost {
		if lf.arrival == now && &n.devs[lf.sender] == d {
			return true
		}
	}
	return false
}

// LinkStateChanged keeps a link that fails mid-frame losing exactly that
// frame: its receive was scheduled when serialisation began, yet it is lost
// if the link is down when serialisation ends. The global event that set any
// link up or down calls this before it returns (app.ScheduleTopoChange
// does). With every node quiescent, each frame still on a transmitter whose
// link is now down is listed for its receive to find and given a drain,
// where the sender counts the drop at the instant an eager transmitter did;
// one whose link came back before its end is unlisted. The distributed
// runtime runs no global event but the stop, so Remote needs no counterpart.
// A frame propagates with the delay its link had when serialisation began.
func (n *Network) LinkStateChanged(ctx *sim.Ctx) {
	now := ctx.Now()
	keep := n.lost[:0]
	for _, lf := range n.lost {
		// Still to arrive, and off the transmitter: nothing can change it.
		// What is still on one is decided afresh below.
		if lf.arrival >= now && lf.end < now {
			keep = append(keep, lf)
		}
	}
	n.lost = keep
	for i := range n.devs {
		d := &n.devs[i]
		if lk := &n.G.Links[d.link]; d.freeAt >= now && !lk.Up {
			n.lost = append(n.lost, lostFrame{sender: int32(i), end: d.freeAt, arrival: d.freeAt + lk.Delay})
			if !d.busy {
				d.putDrain(ctx)
			}
		}
	}
}

// TxTime returns the serialization delay of size bytes at bw bits/s.
func TxTime(size, bw int64) sim.Time {
	return sim.Time(size * 8 * int64(sim.Second) / bw)
}
