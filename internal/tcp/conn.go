package tcp

import (
	"slices"

	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/stats"
)

// maxCwnd caps window growth (64 MB, far above any BDP simulated here).
const maxCwnd = 64 << 20

// conn is one endpoint of a TCP connection. A conn is owned by the node it
// lives on and is only touched from that node's events.
type conn struct {
	s *Stack //unison:ckpt-skip wiring, rebound by decodeConn from the owning store
	// idx is the record's stable arena slot, set at alloc and preserved by
	// recycle; timer descriptors reference connections by (host, idx, gen)
	// so they survive checkpointing.
	idx    int32    //unison:ckpt-skip implied by arena position, rebound by decodeConn
	f      FlowSpec // Src is always this endpoint's node
	sender bool

	established bool
	done        bool

	// --- Sender state ---
	total    uint32 // bytes to send; FIN consumes sequence `total`
	sndUna   uint32
	sndNxt   uint32
	finSent  bool
	cwnd     int32 // bytes
	ssthresh int32
	dupacks  int
	inRec    bool   // New Reno fast recovery
	recover  uint32 // recovery exit point
	retrans  uint64

	rtt     rttEstimator
	backoff sim.Time  // current RTO multiplier (doubles on timeout)
	timer   lazyTimer // retransmission on the sending side, delayed ACK on the receiving

	// peerWnd is the most recent advertised window (0 = no flow control).
	peerWnd uint32

	// DCTCP state.
	alpha       float64
	ackedBytes  int64
	markedBytes int64
	alphaWinEnd uint32

	// --- Receiver state ---
	rcvNxt  uint32
	ooo     []interval // out-of-order byte ranges beyond rcvNxt
	finSeq  uint32
	finSeen bool
	rcvDone bool

	// Delayed-ACK state.
	ackPending int      // unacknowledged segments since the last ACK
	ackEcho    sim.Time // newest timestamp to echo
	ceSeen     bool     // CE observed since the last ACK (DCTCP echo)
	ceState    bool     // last CE value (state-change forces an ACK)
}

// lazyTimer is a timer that is armed far more often than it fires. Arming
// puts no event: it records the deadline and reserves, where an eager timer
// stamped its event, the identity (node, seq) the firing will carry. At most
// one live event per timer is in the FEL; popping short of the deadline it
// puts itself again at (deadline, seq), so the event that fires is the one an
// eager timer's last arm scheduled, and the ones that would have popped stale
// are never created. Only a deadline that moves ahead of the live event (an
// RTO shrinking) needs a second event; the first is superseded by generation.
type lazyTimer struct {
	deadline sim.Time // when it fires; 0 when not armed
	seq      uint64   // the identity the last arm reserved
	pendAt   sim.Time // when the live event pops; 0 when there is none
	gen      uint32   // the live event's generation
	exact    bool     // the live event is (deadline, seq) itself
}

// timerCounts tallies one host's timers, for the event budget
// (TestEventBudget).
type timerCounts struct {
	arms       uint64 // arm calls
	events     uint64 // timer events executed, whatever they did
	superseded uint64 // of those, events a newer generation had replaced
	earlier    uint64 // arms that moved the deadline ahead of the live event
}

type interval struct{ lo, hi uint32 } // [lo, hi)

// init prepares a zeroed (fresh or recycled) arena record for flow f.
func (c *conn) init(s *Stack, f FlowSpec, sender bool) {
	c.s = s
	c.f = f
	c.sender = sender
	c.backoff = 1
	if sender {
		c.total = uint32(f.Bytes)
		c.cwnd = s.cfg.InitCwnd * s.cfg.MSS
		c.ssthresh = maxCwnd
		c.alpha = 1 // DCTCP starts conservative
	}
	c.rtt.init(s.cfg)
}

// recycle zeroes the record for reuse by a new flow while preserving what
// must survive slot reuse: the timer, disarmed, still knows the event the
// previous occupant left in the FEL, which will serve the new one or pop
// and do nothing, and the out-of-order buffer keeps its capacity.
func (c *conn) recycle() {
	timer, idx := c.timer, c.idx
	ooo := c.ooo[:0]
	*c = conn{}
	c.timer, c.idx = timer, idx
	c.timer.deadline = 0
	c.ooo = ooo
}

// roleDone reports whether this endpoint's part in the flow is over and
// its record can be recycled.
func (c *conn) roleDone() bool {
	if c.sender {
		return c.done
	}
	return c.rcvDone
}

// Cwnd returns the congestion window in bytes.
func (c *conn) Cwnd() int32 { return c.cwnd }

// Ssthresh returns the slow-start threshold in bytes.
func (c *conn) Ssthresh() int32 { return c.ssthresh }

// RTO returns the current retransmission timeout.
func (c *conn) RTO() sim.Time { return c.rtt.rto * c.backoff }

// Done reports whether the endpoint finished its role.
func (c *conn) Done() bool {
	if c.sender {
		return c.done
	}
	return c.rcvDone
}

// Retransmits returns the number of retransmitted segments.
func (c *conn) Retransmits() uint64 { return c.retrans }

func (c *conn) peer() sim.NodeID { return c.f.Dst }

func (c *conn) newPacket() packet.Packet {
	return packet.Packet{
		Flow:  c.f.ID,
		Src:   c.f.Src,
		Dst:   c.f.Dst,
		Proto: packet.TCP,
	}
}

// --- Handshake ---

func (c *conn) sendSYN(ctx *sim.Ctx) {
	p := c.newPacket()
	p.Flags = packet.FlagSYN
	p.SendTime = ctx.Now()
	c.s.net.Inject(ctx, p)
	c.armTimer(ctx)
}

func (c *conn) sendSYNACK(ctx *sim.Ctx, syn *packet.Packet) {
	p := c.newPacket()
	p.Flags = packet.FlagSYN | packet.FlagACK
	p.SendTime = ctx.Now()
	p.EchoTime = syn.SendTime
	c.s.net.Inject(ctx, p)
}

// --- Receive dispatch ---

func (c *conn) receive(ctx *sim.Ctx, p packet.Packet) {
	switch {
	case p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK != 0:
		// SYN-ACK at the active opener.
		if !c.sender || c.done {
			return
		}
		if !c.established {
			c.established = true
			c.rtt.sample(ctx.Now()-p.EchoTime, c.s.cfg)
			c.alphaWinEnd = 0
			mon := c.s.mon.Sender(c.f.ID)
			if mon.FirstTxT == 0 {
				mon.FirstTxT = ctx.Now()
			}
			c.trySend(ctx)
		}
	case p.Flags&packet.FlagSYN != 0:
		// SYN at the passive endpoint (possibly a retransmission).
		c.established = true
		c.sendSYNACK(ctx, &p)
	case c.sender:
		c.receiveAck(ctx, &p)
	default:
		c.receiveData(ctx, &p)
	}
}

// --- Sender side ---

// flight returns bytes in flight.
func (c *conn) flight() int32 { return int32(c.sndNxt - c.sndUna) }

// sendWindow returns the effective window: the congestion window capped
// by the receiver's advertised window when flow control is on.
func (c *conn) sendWindow() int32 {
	w := c.cwnd
	if c.peerWnd > 0 && int32(c.peerWnd) < w {
		w = int32(c.peerWnd)
	}
	if w < c.s.cfg.MSS {
		w = c.s.cfg.MSS // always allow one segment (window probe)
	}
	return w
}

// trySend transmits new segments while the effective window allows.
func (c *conn) trySend(ctx *sim.Ctx) {
	if !c.established || c.done {
		return
	}
	for c.sndNxt < c.total+1 && c.flight() < c.sendWindow() {
		if c.sndNxt >= c.total {
			// Only the FIN remains.
			if !c.finSent || c.sndNxt == c.total {
				c.sendSegment(ctx, c.total, 0, true)
				c.sndNxt = c.total + 1
				c.finSent = true
			}
			break
		}
		seg := c.total - c.sndNxt
		if seg > uint32(c.s.cfg.MSS) {
			seg = uint32(c.s.cfg.MSS)
		}
		fin := c.sndNxt+seg == c.total
		c.sendSegment(ctx, c.sndNxt, int32(seg), fin)
		c.sndNxt += seg
		if fin {
			c.sndNxt++ // FIN consumes one sequence number
			c.finSent = true
		}
	}
}

// sendSegment emits one data (or FIN) segment starting at seq.
func (c *conn) sendSegment(ctx *sim.Ctx, seq uint32, payload int32, fin bool) {
	p := c.newPacket()
	p.Seq = seq
	p.Payload = payload
	p.SendTime = ctx.Now()
	if fin {
		p.Flags |= packet.FlagFIN
	}
	if c.s.cfg.Variant == DCTCP {
		p.ECT = true
	}
	c.s.net.Inject(ctx, p)
	c.armTimer(ctx)
}

func (c *conn) noteRetransmit() {
	c.retrans++
	c.s.mon.Sender(c.f.ID).Retransmit++
}

// retransmitFirst resends the segment at sndUna.
func (c *conn) retransmitFirst(ctx *sim.Ctx) {
	c.noteRetransmit()
	if c.sndUna >= c.total {
		c.sendSegment(ctx, c.total, 0, true)
		return
	}
	seg := c.total - c.sndUna
	if seg > uint32(c.s.cfg.MSS) {
		seg = uint32(c.s.cfg.MSS)
	}
	c.sendSegment(ctx, c.sndUna, int32(seg), c.sndUna+seg == c.total)
}

func (c *conn) receiveAck(ctx *sim.Ctx, p *packet.Packet) {
	if c.done {
		return
	}
	if p.EchoTime > 0 {
		c.rtt.sample(ctx.Now()-p.EchoTime, c.s.cfg)
	}
	if p.Wnd > 0 {
		c.peerWnd = p.Wnd
	}
	switch {
	case p.Ack > c.sndUna:
		c.newAck(ctx, p)
	case p.Ack == c.sndUna && c.flight() > 0:
		c.dupAck(ctx, p)
	}
}

func (c *conn) newAck(ctx *sim.Ctx, p *packet.Packet) {
	acked := int64(p.Ack - c.sndUna)
	c.sndUna = p.Ack
	if c.sndNxt < c.sndUna {
		// An RTO rewound sndNxt and a late ACK for the old transmission
		// overtook it: fast-forward past the acknowledged data.
		c.sndNxt = c.sndUna
		c.finSent = c.sndUna == c.total+1
	}
	c.backoff = 1
	c.dctcpOnAck(acked, p.Flags&packet.FlagECE != 0)

	if c.inRec {
		if p.Ack >= c.recover {
			// Full acknowledgement: leave fast recovery.
			c.inRec = false
			c.dupacks = 0
			c.cwnd = c.ssthresh
		} else {
			// New Reno partial ACK: retransmit the next hole, deflate the
			// window by the amount acknowledged.
			c.retransmitFirst(ctx)
			c.cwnd -= int32(acked)
			if c.cwnd < c.s.cfg.MSS {
				c.cwnd = c.s.cfg.MSS
			}
			c.cwnd += c.s.cfg.MSS
		}
	} else {
		c.dupacks = 0
		c.grow(acked)
	}

	// sndUna can only pass total when the receiver acknowledged the FIN.
	if c.sndUna >= c.total+1 {
		c.complete(ctx)
		return
	}
	c.armTimer(ctx)
	c.trySend(ctx)
}

// grow applies slow start / congestion avoidance for acked bytes.
func (c *conn) grow(acked int64) {
	mss := int64(c.s.cfg.MSS)
	if c.cwnd < c.ssthresh {
		inc := acked
		if inc > mss {
			inc = mss
		}
		c.cwnd += int32(inc)
	} else {
		inc := mss * mss / int64(c.cwnd)
		if inc < 1 {
			inc = 1
		}
		c.cwnd += int32(inc)
	}
	if c.cwnd > maxCwnd {
		c.cwnd = maxCwnd
	}
}

func (c *conn) dupAck(ctx *sim.Ctx, p *packet.Packet) {
	c.dupacks++
	if c.inRec {
		// Inflate and try to keep the pipe full.
		c.cwnd += c.s.cfg.MSS
		c.trySend(ctx)
		return
	}
	if c.dupacks == 3 {
		c.ssthresh = c.halfFlight()
		c.inRec = true
		c.recover = c.sndNxt
		c.retransmitFirst(ctx)
		c.cwnd = c.ssthresh + 3*c.s.cfg.MSS
	}
}

func (c *conn) halfFlight() int32 {
	h := c.flight() / 2
	if min := 2 * c.s.cfg.MSS; h < min {
		h = min
	}
	return h
}

// dctcpOnAck maintains the ECN-fraction estimate alpha and applies the
// once-per-window cwnd reduction.
func (c *conn) dctcpOnAck(acked int64, ece bool) {
	if c.s.cfg.Variant != DCTCP {
		return
	}
	c.ackedBytes += acked
	if ece {
		c.markedBytes += acked
	}
	if c.sndUna < c.alphaWinEnd {
		return
	}
	// Window boundary: fold the observation into alpha.
	if c.ackedBytes > 0 {
		f := float64(c.markedBytes) / float64(c.ackedBytes)
		g := c.s.cfg.DCTCPShiftG
		c.alpha = (1-g)*c.alpha + g*f
		if c.markedBytes > 0 {
			reduced := int32(float64(c.cwnd) * (1 - c.alpha/2))
			if reduced < c.s.cfg.MSS {
				reduced = c.s.cfg.MSS
			}
			c.cwnd = reduced
			c.ssthresh = c.cwnd
		}
	}
	c.ackedBytes, c.markedBytes = 0, 0
	c.alphaWinEnd = c.sndNxt
}

func (c *conn) complete(ctx *sim.Ctx) {
	c.done = true
	c.timer.deadline = 0
	rec := c.s.mon.Sender(c.f.ID)
	rec.Done = true
	rec.DoneT = ctx.Now()
	rec.RTT.Merge(&c.rtt.samples)
	c.s.notifyFlowDone(ctx, c.f.ID, true)
}

// --- Retransmission timer ---

func (c *conn) armTimer(ctx *sim.Ctx) { c.arm(ctx, c.RTO()) }

// arm sets the endpoint's timer to fire after delay, replacing any earlier
// setting.
func (c *conn) arm(ctx *sim.Ctx, delay sim.Time) {
	t, n := &c.timer, &c.s.hosts[ctx.Node()].timers
	n.arms++
	t.deadline, t.seq, t.exact = ctx.Now()+delay, ctx.Reserve(), false
	switch {
	case t.pendAt == 0:
		c.putTimer(ctx)
	case t.pendAt > t.deadline:
		t.gen++
		n.earlier++
		c.putTimer(ctx)
	}
}

// putTimer puts the timer's live event at (deadline, seq).
func (c *conn) putTimer(ctx *sim.Ctx) {
	t := &c.timer
	t.pendAt, t.exact = t.deadline, true
	e := timerEvtPool.Get().(*timerEvt)
	e.s, e.host, e.idx, e.gen = c.s, ctx.Node(), c.idx, t.gen
	ctx.ScheduleReserved(t.deadline, e.host, t.seq, e.fn, e)
}

// onTimerEvent runs a timer event of generation gen.
func (c *conn) onTimerEvent(ctx *sim.Ctx, gen uint32) {
	t, n := &c.timer, &c.s.hosts[ctx.Node()].timers
	n.events++
	if gen != t.gen {
		n.superseded++
		return
	}
	t.pendAt = 0
	switch {
	case t.deadline == 0: // cancelled, or the flow that armed it is gone
	case !t.exact:
		c.putTimer(ctx) // armed again since this event was put
	default:
		t.deadline = 0
		if c.sender {
			c.onTimer(ctx)
		} else if c.ackPending > 0 {
			c.sendAck(ctx)
		}
	}
}

func (c *conn) onTimer(ctx *sim.Ctx) {
	if c.done {
		return
	}
	if !c.established {
		// SYN timeout.
		c.backoff = minT(c.backoff*2, 64)
		c.noteRetransmit()
		c.sendSYN(ctx)
		return
	}
	if c.flight() == 0 {
		return
	}
	// RTO: collapse to one segment and go back to sndUna.
	c.noteRetransmit()
	c.ssthresh = c.halfFlight()
	c.cwnd = c.s.cfg.MSS
	c.sndNxt = c.sndUna
	c.finSent = false
	c.inRec = false
	c.dupacks = 0
	c.backoff = minT(c.backoff*2, 64)
	c.trySend(ctx)
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// --- Receiver side ---

func (c *conn) receiveData(ctx *sim.Ctx, p *packet.Packet) {
	rec := c.s.mon.Recv(c.f.ID)
	if rec.FirstRxT == 0 && p.Payload > 0 {
		rec.FirstRxT = ctx.Now()
	}
	if p.Flags&packet.FlagFIN != 0 {
		c.finSeen = true
		c.finSeq = p.Seq + uint32(p.Payload)
	}
	inOrder := p.Seq <= c.rcvNxt
	if p.Payload > 0 {
		newBytes := c.admit(p.Seq, p.Seq+uint32(p.Payload))
		rec.BytesRcvd += int64(newBytes)
		if newBytes > 0 {
			rec.LastRxT = ctx.Now()
		}
	}
	finDone := c.finSeen && c.rcvNxt >= c.finSeq
	if finDone && !c.rcvDone {
		c.rcvDone = true
		rec.Done = true
		rec.DoneT = ctx.Now()
		c.s.notifyFlowDone(ctx, c.f.ID, false)
	}
	if p.CE {
		c.ceSeen = true
	}
	if c.ackEcho < p.SendTime {
		c.ackEcho = p.SendTime
	}
	if !c.s.cfg.DelayedAck {
		c.sendAck(ctx)
		return
	}
	// Delayed-ACK state machine: immediate on out-of-order arrivals, FIN
	// completion, a CE-state change (DCTCP), or every second segment;
	// otherwise coalesce under a timer.
	c.ackPending++
	ceChanged := c.s.cfg.Variant == DCTCP && p.CE != c.ceState
	c.ceState = p.CE
	if !inOrder || len(c.ooo) > 0 || finDone || ceChanged || c.ackPending >= 2 {
		c.sendAck(ctx)
		return
	}
	delay := c.s.cfg.AckDelay
	if delay <= 0 {
		delay = 40 * sim.Microsecond
	}
	c.arm(ctx, delay)
}

// sendAck emits a cumulative ACK reflecting the current receive state and
// resets the delayed-ACK machinery.
func (c *conn) sendAck(ctx *sim.Ctx) {
	ackNo := c.rcvNxt
	if c.finSeen && c.rcvNxt >= c.finSeq {
		ackNo = c.finSeq + 1 // acknowledge the FIN
	}
	ack := c.newPacket()
	ack.Flags = packet.FlagACK
	ack.Ack = ackNo
	ack.SendTime = ctx.Now()
	ack.EchoTime = c.ackEcho
	if buf := c.s.cfg.RcvBuf; buf > 0 {
		var buffered uint32
		for _, iv := range c.ooo {
			buffered += iv.hi - iv.lo
		}
		wnd := int64(buf) - int64(buffered)
		if wnd < 1 {
			wnd = 1
		}
		ack.Wnd = uint32(wnd)
	}
	if c.s.cfg.Variant == DCTCP && c.ceSeen {
		ack.Flags |= packet.FlagECE
	}
	c.ackPending = 0
	c.timer.deadline = 0
	c.ceSeen = false
	c.s.net.Inject(ctx, ack)
}

// admit merges [lo,hi) into the receive state and returns newly covered
// bytes.
func (c *conn) admit(lo, hi uint32) uint32 {
	if hi <= c.rcvNxt {
		return 0
	}
	if lo < c.rcvNxt {
		lo = c.rcvNxt
	}
	covered := c.coveredIn(lo, hi)
	newBytes := (hi - lo) - covered
	if lo == c.rcvNxt {
		c.rcvNxt = hi
	} else {
		c.insertOOO(lo, hi)
	}
	// Pull contiguous out-of-order data forward.
	for len(c.ooo) > 0 && c.ooo[0].lo <= c.rcvNxt {
		if c.ooo[0].hi > c.rcvNxt {
			c.rcvNxt = c.ooo[0].hi
		}
		c.ooo = c.ooo[1:]
	}
	return newBytes
}

// coveredIn returns how many bytes of [lo,hi) are already buffered.
func (c *conn) coveredIn(lo, hi uint32) uint32 {
	var n uint32
	for _, iv := range c.ooo {
		l, h := maxU(iv.lo, lo), minU(iv.hi, hi)
		if l < h {
			n += h - l
		}
	}
	return n
}

// insertOOO adds [lo,hi) to the sorted, disjoint out-of-order list: the
// run of intervals that overlap or touch it, [i,j), becomes their union.
func (c *conn) insertOOO(lo, hi uint32) {
	i := 0
	for i < len(c.ooo) && c.ooo[i].hi < lo {
		i++
	}
	j := i
	for j < len(c.ooo) && c.ooo[j].lo <= hi {
		j++
	}
	if i < j {
		lo = minU(lo, c.ooo[i].lo)
		hi = maxU(hi, c.ooo[j-1].hi)
	}
	c.ooo = slices.Replace(c.ooo, i, j, interval{lo, hi})
}

func minU(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// --- RTT estimation (Jacobson/Karels) ---

type rttEstimator struct {
	srtt, rttvar sim.Time
	rto          sim.Time
	samples      stats.Summary // all samples (ns), merged into the monitor
}

func (e *rttEstimator) init(cfg Config) {
	e.rto = cfg.InitRTO
}

func (e *rttEstimator) sample(rtt sim.Time, cfg Config) {
	if rtt <= 0 {
		return
	}
	e.samples.Add(float64(rtt))
	if e.srtt == 0 {
		e.srtt = rtt
		e.rttvar = rtt / 2
	} else {
		d := e.srtt - rtt
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.rto = e.srtt + 4*e.rttvar
	if e.rto < cfg.MinRTO {
		e.rto = cfg.MinRTO
	}
	if e.rto > cfg.MaxRTO {
		e.rto = cfg.MaxRTO
	}
}
