package netdev

import (
	"fmt"

	"unison/internal/ckpt"
	"unison/internal/packet"
	"unison/internal/sim"
)

// Checkpoint support for the data plane. The netdev layer owns three kinds
// of pending events at a quiescent timestamp boundary — a packet
// propagating toward a node (receive), the end of a frame with a packet
// waiting behind it (drain) and the end of a half-duplex frame (txDone) —
// plus the external-arrival variant the distributed kernel schedules
// (deliver). The zero-delay events of the transmit path (half-duplex
// kicks, link-down retries) execute within their own timestamp and are
// never pending at a boundary, so they need no descriptors. A drain that is
// owed but not yet put is no event: it is the device's freeAt and txSeq.
//
// Descriptor kind tags in the 0x01xx range (see internal/ckpt).
const (
	kindTxDone  uint16 = 0x0101
	kindReceive uint16 = 0x0102
	kindDeliver uint16 = 0x0103
	kindDrain   uint16 = 0x0104
)

// encodePacket appends every field of p. The packet is a value type with
// no indirection, so field-by-field encoding is complete.
func encodePacket(e *ckpt.Enc, p *packet.Packet) {
	e.U32(uint32(p.Flow))
	e.I32(int32(p.Src))
	e.I32(int32(p.Dst))
	e.U8(uint8(p.Proto))
	e.U32(p.Seq)
	e.U32(p.Ack)
	e.U32(p.Wnd)
	e.U8(p.Flags)
	e.Bool(p.ECT)
	e.Bool(p.CE)
	e.I32(p.Payload)
	e.Time(p.SendTime)
	e.Time(p.EchoTime)
	e.U8(p.Hops)
}

// packetBytes is the encoded size of one packet, the element floor for
// Dec.Count guards.
const packetBytes = 4 + 4 + 4 + 1 + 4 + 4 + 4 + 1 + 1 + 1 + 4 + 8 + 8 + 1

func decodePacket(d *ckpt.Dec) packet.Packet {
	return packet.Packet{
		Flow:     packet.FlowID(d.U32()),
		Src:      sim.NodeID(d.I32()),
		Dst:      sim.NodeID(d.I32()),
		Proto:    packet.Proto(d.U8()),
		Seq:      d.U32(),
		Ack:      d.U32(),
		Wnd:      d.U32(),
		Flags:    d.U8(),
		ECT:      d.Bool(),
		CE:       d.Bool(),
		Payload:  d.I32(),
		SendTime: d.Time(),
		EchoTime: d.Time(),
		Hops:     d.U8(),
	}
}

// CkptKind implements sim.EvDesc: a pooled transmit-path event is its own
// descriptor (it is exclusive from Get until its event fires, and a
// checkpoint only reads it).
func (e *pktEvt) CkptKind() uint16 { return kindTxDone + uint16(e.kind) }

// CkptEncode implements sim.EvDesc: the transmitting device, and the packet
// unless the event is a drain, whose packet is still in the queue.
func (e *pktEvt) CkptEncode(buf []byte) []byte {
	enc := ckpt.AppendEnc(buf)
	enc.I32(int32(e.dev.node))
	enc.I32(int32(e.dev.link))
	if e.kind != evtDrain {
		encodePacket(enc, &e.p)
	}
	return enc.Bytes()
}

// deliverEvt is the descriptor-carrying event for a packet arrival handed
// in by an external transport (internal/dist): the remote peer's txDone
// completed on another simulation host, and this event re-enters the
// local data plane at the receiving node.
type deliverEvt struct {
	net *Network
	at  sim.NodeID
	p   packet.Packet
	fn  sim.Proc
}

func (e *deliverEvt) run(c *sim.Ctx) { e.net.Deliver(c, e.at, e.p) }

// CkptKind implements sim.EvDesc.
func (e *deliverEvt) CkptKind() uint16 { return kindDeliver }

// CkptEncode implements sim.EvDesc.
func (e *deliverEvt) CkptEncode(buf []byte) []byte {
	enc := ckpt.AppendEnc(buf)
	enc.I32(int32(e.at))
	encodePacket(enc, &e.p)
	return enc.Bytes()
}

// DeliverEvent returns the (closure, descriptor) pair for an external
// packet arrival at node at — what the distributed kernel pushes into its
// FEL for remote events so they survive checkpointing.
func (n *Network) DeliverEvent(at sim.NodeID, p packet.Packet) (sim.Proc, sim.EvDesc) {
	e := &deliverEvt{net: n, at: at, p: p}
	e.fn = e.run
	return e.fn, e
}

// deviceChecked resolves (node, link) from decoded input without the
// panic Device() reserves for programming errors: garbled checkpoint
// bytes must surface as errors.
func (n *Network) deviceChecked(node sim.NodeID, link int32) (*Device, error) {
	if link < 0 || int(link) >= len(n.G.Links) {
		return nil, fmt.Errorf("netdev: checkpoint references link %d of %d", link, len(n.G.Links))
	}
	for side := 0; side < 2; side++ {
		if d := &n.devs[2*int(link)+side]; d.node == node {
			return d, nil
		}
	}
	return nil, fmt.Errorf("netdev: checkpoint references node %d not on link %d", node, link)
}

// nodeChecked validates a decoded node id against the topology.
func (n *Network) nodeChecked(node sim.NodeID) (sim.NodeID, error) {
	if node < 0 || int(node) >= n.G.N() {
		return 0, fmt.Errorf("netdev: checkpoint references node %d of %d", node, n.G.N())
	}
	return node, nil
}

// DecodeEvent implements ckpt.EventDecoder for the 0x01xx kinds.
func (n *Network) DecodeEvent(kind uint16, _ sim.NodeID, d *ckpt.Dec) (sim.Proc, sim.EvDesc, bool, error) {
	switch kind {
	case kindTxDone, kindReceive, kindDrain:
		node := sim.NodeID(d.I32())
		link := d.I32()
		var p packet.Packet
		if kind != kindDrain {
			p = decodePacket(d)
		}
		if err := d.Err(); err != nil {
			return nil, nil, true, err
		}
		dev, err := n.deviceChecked(node, link)
		if err != nil {
			return nil, nil, true, err
		}
		e := pktEvtPool.Get().(*pktEvt)
		e.net, e.dev, e.kind, e.p = n, dev, uint8(kind-kindTxDone), p
		return e.fn, e, true, nil
	case kindDeliver:
		at := sim.NodeID(d.I32())
		p := decodePacket(d)
		if err := d.Err(); err != nil {
			return nil, nil, true, err
		}
		if _, err := n.nodeChecked(at); err != nil {
			return nil, nil, true, err
		}
		fn, desc := n.DeliverEvent(at, p)
		return fn, desc, true, nil
	default:
		return nil, nil, false, nil
	}
}

// Queue discipline tags inside the netdev section, a cross-check against
// a checkpoint taken under a different queue configuration.
const (
	qtagDropTail uint8 = iota
	qtagRED
	qtagPfifoFast
	qtagCoDel
)

// save appends the fifo's queued items front to back.
func (f *fifo) save(e *ckpt.Enc) {
	e.U32(uint32(f.n))
	for i := 0; i < f.n; i++ {
		it := &f.items[(f.head+i)%len(f.items)]
		encodePacket(e, &it.p)
		e.Time(it.enq)
	}
}

// load replaces the fifo's contents.
func (f *fifo) load(d *ckpt.Dec) {
	n := d.Count(packetBytes + 8)
	f.head = 0
	f.n = n
	if n > len(f.items) {
		f.items = make([]queueItem, n)
	} else {
		for i := range f.items {
			f.items[i] = queueItem{}
		}
	}
	for i := 0; i < n; i++ {
		f.items[i] = queueItem{p: decodePacket(d), enq: d.Time()}
	}
}

func saveQueue(e *ckpt.Enc, q Queue) error {
	switch v := q.(type) {
	case *dropTail:
		e.U8(qtagDropTail)
		v.fifo.save(e)
	case *redQueue:
		e.U8(qtagRED)
		v.fifo.save(e)
		for _, s := range v.r.State() {
			e.U64(s)
		}
		e.F64(v.avg)
		e.I64(int64(v.count))
	case *pfifoFast:
		e.U8(qtagPfifoFast)
		v.bands[0].save(e)
		v.bands[1].save(e)
	case *codelQueue:
		e.U8(qtagCoDel)
		v.fifo.save(e)
		e.Time(v.firstAbove)
		e.Time(v.dropNext)
		e.Bool(v.dropping)
		e.I64(int64(v.count))
		e.I64(int64(v.lastCount))
		e.U64(v.Drops)
	default:
		return fmt.Errorf("netdev: queue type %T does not support checkpointing", q)
	}
	return nil
}

func loadQueue(d *ckpt.Dec, q Queue) error {
	tag := d.U8()
	switch v := q.(type) {
	case *dropTail:
		if tag != qtagDropTail {
			return fmt.Errorf("netdev: checkpoint queue tag %d, want DropTail", tag)
		}
		v.fifo.load(d)
	case *redQueue:
		if tag != qtagRED {
			return fmt.Errorf("netdev: checkpoint queue tag %d, want RED", tag)
		}
		v.fifo.load(d)
		var s [4]uint64
		for i := range s {
			s[i] = d.U64()
		}
		v.r.SetState(s)
		v.avg = d.F64()
		v.count = int(d.I64())
	case *pfifoFast:
		if tag != qtagPfifoFast {
			return fmt.Errorf("netdev: checkpoint queue tag %d, want PfifoFast", tag)
		}
		v.bands[0].load(d)
		v.bands[1].load(d)
	case *codelQueue:
		if tag != qtagCoDel {
			return fmt.Errorf("netdev: checkpoint queue tag %d, want CoDel", tag)
		}
		v.fifo.load(d)
		v.firstAbove = d.Time()
		v.dropNext = d.Time()
		v.dropping = d.Bool()
		v.count = int(d.I64())
		v.lastCount = int(d.I64())
		v.Drops = d.U64()
	default:
		return fmt.Errorf("netdev: queue type %T does not support checkpointing", q)
	}
	return nil
}

// CkptName implements ckpt.Checkpointer.
func (n *Network) CkptName() string { return "netdev" }

// CkptSave implements ckpt.Checkpointer: per-device transmitter and queue
// state plus the per-node and per-link shared state.
//
//unison:owner checkpoint
func (n *Network) CkptSave(e *ckpt.Enc) error {
	e.U32(uint32(len(n.devs)))
	for i := range n.devs {
		d := &n.devs[i]
		e.Bool(d.busy)
		e.Time(d.freeAt)
		e.U64(d.txSeq)
		e.U64(d.TxPackets)
		e.U64(d.TxBytes)
		e.U64(d.Drops)
		e.U64(d.MarkCount)
		e.Summary(&d.QueueDelay)
		if err := saveQueue(e, d.queue); err != nil {
			return err
		}
	}
	e.U32(uint32(len(n.halfBusy)))
	for _, b := range n.halfBusy {
		e.Bool(b)
	}
	e.U32(uint32(len(n.nodeDrops)))
	for _, v := range n.nodeDrops {
		e.U64(v)
	}
	e.U32(uint32(len(n.lost)))
	for _, lf := range n.lost {
		e.I32(lf.sender)
		e.Time(lf.end)
		e.Time(lf.arrival)
	}
	return nil
}

// CkptLoad implements ckpt.Checkpointer over a freshly built Network of
// the identical topology and configuration.
//
//unison:owner checkpoint
func (n *Network) CkptLoad(d *ckpt.Dec) error {
	if nd := d.Count(1); nd != len(n.devs) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("netdev: checkpoint has %d devices, topology has %d", nd, len(n.devs))
	}
	for i := range n.devs {
		dev := &n.devs[i]
		dev.busy = d.Bool()
		dev.freeAt = d.Time()
		dev.txSeq = d.U64()
		dev.TxPackets = d.U64()
		dev.TxBytes = d.U64()
		dev.Drops = d.U64()
		dev.MarkCount = d.U64()
		dev.QueueDelay = d.Summary()
		if err := loadQueue(d, dev.queue); err != nil {
			return err
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	if nh := d.Count(1); nh != len(n.halfBusy) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("netdev: checkpoint has %d half-duplex slots, topology has %d", nh, len(n.halfBusy))
	}
	for i := range n.halfBusy {
		n.halfBusy[i] = d.Bool()
	}
	if nn := d.Count(8); nn != len(n.nodeDrops) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("netdev: checkpoint has %d node-drop slots, topology has %d", nn, len(n.nodeDrops))
	}
	for i := range n.nodeDrops {
		n.nodeDrops[i] = d.U64()
	}
	n.lost = n.lost[:0]
	for i, nl := 0, d.Count(4+8+8); i < nl; i++ {
		lf := lostFrame{sender: d.I32(), end: d.Time(), arrival: d.Time()}
		if lf.sender < 0 || int(lf.sender) >= len(n.devs) {
			if err := d.Err(); err != nil {
				return err
			}
			return fmt.Errorf("netdev: checkpoint lost frame references device %d of %d", lf.sender, len(n.devs))
		}
		n.lost = append(n.lost, lf)
	}
	return d.Err()
}

// Interface checks.
var (
	_ sim.EvDesc        = (*pktEvt)(nil)
	_ sim.EvDesc        = (*deliverEvt)(nil)
	_ ckpt.Checkpointer = (*Network)(nil)
	_ ckpt.EventDecoder = (*Network)(nil)
)
