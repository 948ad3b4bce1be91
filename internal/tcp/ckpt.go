package tcp

import (
	"fmt"
	"sync"

	"unison/internal/ckpt"
	"unison/internal/packet"
	"unison/internal/sim"
)

// Checkpoint support for the transport. Pending tcp-owned events at a
// quiescent boundary are connection timer events, each host's next start of
// an Attach workload, flow start events released by the stream pump or
// ScheduleFlow, and the pump's own chained global event. A timer event
// references its connection's timer by (host, arena index, generation); what
// it will do when it pops — fire, put itself again at a later deadline under
// a reserved identity, or nothing — is the timer's state, saved with the
// connection (lazyTimer), so a restored run redeems the identities the
// uninterrupted one would have.
//
// Descriptor kind tags in the 0x02xx range (see internal/ckpt; 0x0202 was
// the delayed-ACK timer's before format 3 gave a connection one timer).
const (
	kindTimer     uint16 = 0x0201
	kindFlowStart uint16 = 0x0203
	kindPump      uint16 = 0x0204
	kindChain     uint16 = 0x0205
)

// timerEvt is the pooled, descriptor-carrying event of a connection's timer
// (same exclusive-until-fire pooling discipline as netdev.pktEvt).
type timerEvt struct {
	s    *Stack
	host sim.NodeID
	idx  int32
	gen  uint32
	fn   sim.Proc
}

var timerEvtPool sync.Pool

func init() {
	timerEvtPool.New = func() any {
		e := &timerEvt{}
		e.fn = e.run
		return e
	}
}

func (e *timerEvt) run(cx *sim.Ctx) {
	s, host, idx, gen := e.s, e.host, e.idx, e.gen
	e.s = nil
	timerEvtPool.Put(e)
	s.hosts[host].arena.at(idx).onTimerEvent(cx, gen)
}

// CkptKind implements sim.EvDesc.
func (e *timerEvt) CkptKind() uint16 { return kindTimer }

// CkptEncode implements sim.EvDesc.
func (e *timerEvt) CkptEncode(buf []byte) []byte {
	enc := ckpt.AppendEnc(buf)
	enc.I32(int32(e.host))
	enc.I32(e.idx)
	enc.U32(e.gen)
	return enc.Bytes()
}

// flowStartEvt opens one flow; it is scheduled by the stream pump and by
// ScheduleFlow.
type flowStartEvt struct {
	s  *Stack
	f  FlowSpec
	fn sim.Proc
}

func (e *flowStartEvt) run(ctx *sim.Ctx) { e.s.StartFlow(ctx, e.f) }

// CkptKind implements sim.EvDesc.
func (e *flowStartEvt) CkptKind() uint16 { return kindFlowStart }

// CkptEncode implements sim.EvDesc.
func (e *flowStartEvt) CkptEncode(buf []byte) []byte {
	enc := ckpt.AppendEnc(buf)
	encodeFlowSpec(enc, &e.f)
	return enc.Bytes()
}

// CkptKind implements sim.EvDesc.
func (e *chainEvt) CkptKind() uint16 { return kindChain }

// CkptEncode implements sim.EvDesc: the pending flow's index among every
// flow the stack chained. The rest of the chain is rebuilt by Attach from
// the same workload before a restore.
func (e *chainEvt) CkptEncode(buf []byte) []byte {
	enc := ckpt.AppendEnc(buf)
	enc.I32(e.c.off + e.i)
	return enc.Bytes()
}

// CkptKind implements sim.EvDesc: the pump event's payload is empty; the
// cursor state travels in the Stack's own section.
func (p *streamPump) CkptKind() uint16 { return kindPump }

// CkptEncode implements sim.EvDesc.
func (p *streamPump) CkptEncode(buf []byte) []byte { return buf }

func encodeFlowSpec(e *ckpt.Enc, f *FlowSpec) {
	e.U32(uint32(f.ID))
	e.I32(int32(f.Src))
	e.I32(int32(f.Dst))
	e.I64(f.Bytes)
	e.Time(f.Start)
}

const flowSpecBytes = 4 + 4 + 4 + 8 + 8

func decodeFlowSpec(d *ckpt.Dec) FlowSpec {
	return FlowSpec{
		ID:    packet.FlowID(d.U32()),
		Src:   sim.NodeID(d.I32()),
		Dst:   sim.NodeID(d.I32()),
		Bytes: d.I64(),
		Start: d.Time(),
	}
}

// DecodeEvent implements ckpt.EventDecoder for the 0x02xx kinds.
func (s *Stack) DecodeEvent(kind uint16, node sim.NodeID, d *ckpt.Dec) (sim.Proc, sim.EvDesc, bool, error) {
	switch kind {
	case kindChain:
		g := d.I32()
		if err := d.Err(); err != nil {
			return nil, nil, true, err
		}
		e, err := s.decodeChain(node, g)
		if err != nil {
			return nil, nil, true, err
		}
		return e.fn, e, true, nil
	case kindTimer:
		host := sim.NodeID(d.I32())
		idx := d.I32()
		gen := d.U32()
		if err := d.Err(); err != nil {
			return nil, nil, true, err
		}
		if host < 0 || int(host) >= len(s.hosts) {
			return nil, nil, true, fmt.Errorf("tcp: checkpoint timer references host %d of %d", host, len(s.hosts))
		}
		if idx < 0 || idx >= s.hosts[host].arena.next {
			return nil, nil, true, fmt.Errorf("tcp: checkpoint timer references slot %d of %d on host %d", idx, s.hosts[host].arena.next, host)
		}
		e := timerEvtPool.Get().(*timerEvt)
		e.s, e.host, e.idx, e.gen = s, host, idx, gen
		return e.fn, e, true, nil
	case kindFlowStart:
		f := decodeFlowSpec(d)
		if err := d.Err(); err != nil {
			return nil, nil, true, err
		}
		if f.Src < 0 || int(f.Src) >= len(s.hosts) || f.Dst < 0 || int(f.Dst) >= len(s.hosts) {
			return nil, nil, true, fmt.Errorf("tcp: checkpoint flow %d references nodes (%d,%d) of %d", f.ID, f.Src, f.Dst, len(s.hosts))
		}
		e := &flowStartEvt{s: s, f: f}
		e.fn = e.run
		return e.fn, e, true, nil
	case kindPump:
		if s.pump == nil {
			return nil, nil, true, fmt.Errorf("tcp: checkpoint has a stream pump event but this run has no stream workload")
		}
		return s.pump.fn, s.pump, true, nil
	default:
		return nil, nil, false, nil
	}
}

// decodeChain re-materializes the pending start of flow g (an index among
// every flow the stack chained) on node.
func (s *Stack) decodeChain(node sim.NodeID, g int32) (*chainEvt, error) {
	for _, c := range s.starts {
		i := g - c.off
		if i < 0 || int(i) >= len(c.flows) {
			continue
		}
		if src := c.flows[i].Src; src != node {
			return nil, fmt.Errorf("tcp: checkpoint start of flow %d (source %d) is pending on node %d", c.flows[i].ID, src, node)
		}
		e := &chainEvt{c: c, i: i}
		e.fn = e.run
		return e, nil
	}
	return nil, fmt.Errorf("tcp: checkpoint start of flow index %d of the %d this run attached", g, s.chained)
}

// --- Layer state ---

func encodeConn(e *ckpt.Enc, c *conn) {
	encodeFlowSpec(e, &c.f)
	e.Bool(c.sender)
	e.Bool(c.established)
	e.Bool(c.done)
	e.U32(c.total)
	e.U32(c.sndUna)
	e.U32(c.sndNxt)
	e.Bool(c.finSent)
	e.I32(c.cwnd)
	e.I32(c.ssthresh)
	e.I64(int64(c.dupacks))
	e.Bool(c.inRec)
	e.U32(c.recover)
	e.U64(c.retrans)
	e.Time(c.rtt.srtt)
	e.Time(c.rtt.rttvar)
	e.Time(c.rtt.rto)
	e.Summary(&c.rtt.samples)
	e.Time(c.backoff)
	e.Time(c.timer.deadline)
	e.U64(c.timer.seq)
	e.Time(c.timer.pendAt)
	e.U32(c.timer.gen)
	e.Bool(c.timer.exact)
	e.U32(c.peerWnd)
	e.F64(c.alpha)
	e.I64(c.ackedBytes)
	e.I64(c.markedBytes)
	e.U32(c.alphaWinEnd)
	e.U32(c.rcvNxt)
	e.U32(uint32(len(c.ooo)))
	for _, iv := range c.ooo {
		e.U32(iv.lo)
		e.U32(iv.hi)
	}
	e.U32(c.finSeq)
	e.Bool(c.finSeen)
	e.Bool(c.rcvDone)
	e.I64(int64(c.ackPending))
	e.Time(c.ackEcho)
	e.Bool(c.ceSeen)
	e.Bool(c.ceState)
}

// connMinBytes under-approximates one encoded conn record, the Count
// guard floor for the per-host slot loop.
const connMinBytes = flowSpecBytes + 3 + 12 + 1 + 8 + 8 + 1 + 4 + 8 +
	24 + ckpt.SummaryBytes + 8 + 29 + 4 + 8 + 16 + 4 + 4 + 4 + 4 + 2 + 8 + 8 + 2

func decodeConn(d *ckpt.Dec, s *Stack, idx int32, c *conn) {
	ooo := c.ooo[:0]
	*c = conn{s: s, idx: idx}
	c.f = decodeFlowSpec(d)
	c.sender = d.Bool()
	c.established = d.Bool()
	c.done = d.Bool()
	c.total = d.U32()
	c.sndUna = d.U32()
	c.sndNxt = d.U32()
	c.finSent = d.Bool()
	c.cwnd = d.I32()
	c.ssthresh = d.I32()
	c.dupacks = int(d.I64())
	c.inRec = d.Bool()
	c.recover = d.U32()
	c.retrans = d.U64()
	c.rtt.srtt = d.Time()
	c.rtt.rttvar = d.Time()
	c.rtt.rto = d.Time()
	c.rtt.samples = d.Summary()
	c.backoff = d.Time()
	c.timer = lazyTimer{deadline: d.Time(), seq: d.U64(), pendAt: d.Time(), gen: d.U32(), exact: d.Bool()}
	c.peerWnd = d.U32()
	c.alpha = d.F64()
	c.ackedBytes = d.I64()
	c.markedBytes = d.I64()
	c.alphaWinEnd = d.U32()
	c.rcvNxt = d.U32()
	nOOO := d.Count(8)
	for i := 0; i < nOOO; i++ {
		ooo = append(ooo, interval{lo: d.U32(), hi: d.U32()})
	}
	c.ooo = ooo
	c.finSeq = d.U32()
	c.finSeen = d.Bool()
	c.rcvDone = d.Bool()
	c.ackPending = int(d.I64())
	c.ackEcho = d.Time()
	c.ceSeen = d.Bool()
	c.ceState = d.Bool()
}

// CkptName implements ckpt.Checkpointer.
func (s *Stack) CkptName() string { return "tcp" }

// CkptSave implements ckpt.Checkpointer: every host's connection arena
// (all slots ever used, free ones included — a free slot's timer still
// answers for the event its last occupant left pending), its free list in
// LIFO order, the flow table verbatim, its timer tallies, and the stream
// pump cursor.
//
//unison:owner checkpoint
func (s *Stack) CkptSave(e *ckpt.Enc) error {
	e.U32(uint32(len(s.hosts)))
	for i := range s.hosts {
		h := &s.hosts[i]
		e.U32(uint32(h.arena.next))
		for idx := int32(0); idx < h.arena.next; idx++ {
			encodeConn(e, h.arena.at(idx))
		}
		e.U32(uint32(len(h.arena.free)))
		for _, f := range h.arena.free {
			e.I32(f)
		}
		e.I32(h.arena.live)
		e.I32(h.arena.peak)
		e.U32(uint32(len(h.tab.keys)))
		for j := range h.tab.keys {
			e.U64(h.tab.keys[j])
			e.I32(h.tab.vals[j])
		}
		e.I64(int64(h.tab.n))
		e.U64(h.timers.arms)
		e.U64(h.timers.events)
		e.U64(h.timers.superseded)
		e.U64(h.timers.earlier)
	}
	hasPump := s.pump != nil
	e.Bool(hasPump)
	if hasPump {
		encodeFlowSpec(e, &s.pump.pending)
		e.Bool(s.pump.ok)
	}
	return nil
}

// CkptLoad implements ckpt.Checkpointer over a freshly built Stack of the
// identical configuration.
//
//unison:owner checkpoint
func (s *Stack) CkptLoad(d *ckpt.Dec) error {
	if nh := d.Count(1); nh != len(s.hosts) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("tcp: checkpoint has %d nodes, topology has %d", nh, len(s.hosts))
	}
	for i := range s.hosts {
		h := &s.hosts[i]
		next := int32(d.Count(connMinBytes))
		h.arena.next = next
		nChunks := (int(next) + arenaChunkSize - 1) >> arenaChunkBits
		h.arena.chunks = h.arena.chunks[:0]
		for len(h.arena.chunks) < nChunks {
			h.arena.chunks = append(h.arena.chunks, make([]conn, arenaChunkSize))
		}
		for idx := int32(0); idx < next; idx++ {
			decodeConn(d, s, idx, h.arena.at(idx))
		}
		nFree := d.Count(4)
		h.arena.free = h.arena.free[:0]
		for j := 0; j < nFree; j++ {
			f := d.I32()
			if f < 0 || f >= next {
				if err := d.Err(); err != nil {
					return err
				}
				return fmt.Errorf("tcp: checkpoint free-list slot %d of %d on host %d", f, next, i)
			}
			h.arena.free = append(h.arena.free, f)
		}
		h.arena.live = d.I32()
		h.arena.peak = d.I32()
		nKeys := d.Count(12)
		if nKeys != 0 && (nKeys < flowTabMinCap || nKeys&(nKeys-1) != 0) {
			if err := d.Err(); err != nil {
				return err
			}
			return fmt.Errorf("tcp: checkpoint flow table capacity %d is not a power of two", nKeys)
		}
		h.tab.keys = make([]uint64, nKeys)
		h.tab.vals = make([]int32, nKeys)
		for j := 0; j < nKeys; j++ {
			h.tab.keys[j] = d.U64()
			h.tab.vals[j] = d.I32()
		}
		h.tab.n = int(d.I64())
		h.timers = timerCounts{arms: d.U64(), events: d.U64(), superseded: d.U64(), earlier: d.U64()}
		if err := d.Err(); err != nil {
			return err
		}
	}
	hasPump := d.Bool()
	if hasPump {
		if s.pump == nil {
			return fmt.Errorf("tcp: checkpoint has stream pump state but this run has no stream workload")
		}
		s.pump.pending = decodeFlowSpec(d)
		s.pump.ok = d.Bool()
	} else if s.pump != nil {
		return fmt.Errorf("tcp: this run has a stream workload but the checkpoint has no pump state")
	}
	return d.Err()
}

// Interface checks.
var (
	_ sim.EvDesc        = (*timerEvt)(nil)
	_ sim.EvDesc        = (*flowStartEvt)(nil)
	_ sim.EvDesc        = (*chainEvt)(nil)
	_ sim.EvDesc        = (*streamPump)(nil)
	_ ckpt.Checkpointer = (*Stack)(nil)
	_ ckpt.EventDecoder = (*Stack)(nil)
)
