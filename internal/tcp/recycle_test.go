package tcp

import (
	"testing"

	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/sim"
)

// Regression tests for arena slot recycling: a timer event left in the FEL
// by a finished flow references the slot by (host, idx, gen), so after the
// slot is handed to a new flow the event must either pop and do nothing or
// serve the new occupant's timer — it can never fire into it early.

// connSnap captures every field a timer handler could disturb.
type connSnap struct {
	established, done, finSent bool
	sndUna, sndNxt, recoverS   uint32
	cwnd, ssthresh             int32
	dupacks                    int
	inRec                      bool
	retrans                    uint64
	backoff                    sim.Time
	peerWnd, rcvNxt            uint32
	rcvDone                    bool
	ackPending                 int
}

func snap(c *conn) connSnap {
	return connSnap{
		established: c.established, done: c.done, finSent: c.finSent,
		sndUna: c.sndUna, sndNxt: c.sndNxt, recoverS: c.recover,
		cwnd: c.cwnd, ssthresh: c.ssthresh, dupacks: c.dupacks,
		inRec: c.inRec, retrans: c.retrans, backoff: c.backoff,
		peerWnd: c.peerWnd, rcvNxt: c.rcvNxt, rcvDone: c.rcvDone,
		ackPending: c.ackPending,
	}
}

// putLog is a sim.Sink that keeps what is put, and a context to run one
// node's events on by hand.
type putLog struct {
	evs []sim.Event
	seq uint64
	ctx *sim.Ctx
}

func newPutLog() *putLog {
	l := &putLog{}
	l.ctx = sim.NewCtx(l, 0)
	return l
}

func (l *putLog) Put(ev sim.Event)       { l.evs = append(l.evs, ev) }
func (l *putLog) PutGlobal(ev sim.Event) { l.evs = append(l.evs, ev) }

// at positions the context inside an event on node at time t.
func (l *putLog) at(t sim.Time, node sim.NodeID) *sim.Ctx {
	l.ctx.Begin(&sim.Event{Time: t, Src: node, Seq: l.seq, Node: node}, &l.seq)
	return l.ctx
}

// pop runs the i-th put event as the kernel would.
func (l *putLog) pop(i int) {
	ev := l.evs[i]
	l.ctx.Begin(&ev, &l.seq)
	ev.Fn(l.ctx)
}

// TestStaleTimerOnRecycledSlot replays the slot lifecycle by hand: flow A
// arms its timer, finishes, and its slot is recycled to flow B. A's event
// popping into B must change nothing while B has not armed, and once B has,
// must do no more than put B's own event, under the identity B reserved.
func TestStaleTimerOnRecycledSlot(t *testing.T) {
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(100), DefaultConfig(), nil)
	s := h.stack
	src, dst := h.d.Senders[0], h.d.Receivers[0]
	a := &s.hosts[src].arena
	log := newPutLog()

	// Flow A occupies a slot and arms at t=0 for 1 ms: one event.
	c1, idx1 := a.alloc()
	c1.init(s, FlowSpec{ID: 1, Src: src, Dst: dst, Bytes: 10_000}, true)
	c1.arm(log.at(0, src), sim.Millisecond)
	if len(log.evs) != 1 || log.evs[0].Time != sim.Millisecond || log.evs[0].Seq != c1.timer.seq {
		t.Fatalf("first arm put %+v, want one event at 1ms under the reserved identity %d", log.evs, c1.timer.seq)
	}
	// Arming again, later, puts nothing: the event in the FEL will do.
	c1.arm(log.at(100*sim.Microsecond, src), sim.Millisecond)
	if len(log.evs) != 1 {
		t.Fatalf("re-arm with a later deadline put an event: %+v", log.evs[1:])
	}
	// A finishes; deliver() releases.
	c1.complete(log.at(200*sim.Microsecond, src))
	a.release(idx1)

	// Flow B reuses the record — the free list is LIFO, so this is
	// deterministic — and must know of the event A left pending.
	c2, idx2 := a.alloc()
	if idx2 != idx1 {
		t.Fatalf("recycled slot %d, want LIFO reuse of slot %d", idx2, idx1)
	}
	c2.init(s, FlowSpec{ID: 2, Src: src, Dst: dst, Bytes: 1_000_000}, true)
	if c2.timer.pendAt != sim.Millisecond || c2.timer.deadline != 0 {
		t.Fatalf("recycled timer %+v: want disarmed, with A's event at 1ms still known", c2.timer)
	}

	// Put B in a believable mid-flight state and arm it at 0.5 ms for 1 ms.
	c2.established = true
	c2.sndUna, c2.sndNxt = 50_000, 80_000
	c2.cwnd, c2.ssthresh = 8*int32(s.cfg.MSS), 64*int32(s.cfg.MSS)
	c2.arm(log.at(500*sim.Microsecond, src), sim.Millisecond)
	if len(log.evs) != 1 {
		t.Fatalf("B's arm put an event though A's pops before B's deadline: %+v", log.evs[1:])
	}
	before := snap(c2)
	log.pop(0) // A's event, at 1 ms
	if after := snap(c2); after != before {
		t.Fatalf("a stale timer event mutated the recycled occupant:\nbefore %+v\nafter  %+v", before, after)
	}
	if len(log.evs) != 2 || log.evs[1].Time != 1500*sim.Microsecond || log.evs[1].Seq != c2.timer.seq || log.evs[1].Src != src {
		t.Fatalf("A's event should have put B's at (1.5ms, %d, %d): %+v", src, c2.timer.seq, log.evs[1:])
	}

	// A deadline that moves ahead of the live event supersedes it.
	c2.backoff = 1
	c2.arm(log.at(600*sim.Microsecond, src), 100*sim.Microsecond)
	if len(log.evs) != 3 || log.evs[2].Time != 700*sim.Microsecond {
		t.Fatalf("an earlier deadline put %+v, want an event at 0.7ms", log.evs[2:])
	}
	c2.timer.deadline = 0 // cancel, so neither does more than pop
	before = snap(c2)
	log.pop(2)
	log.pop(1)
	if after := snap(c2); after != before || len(log.evs) != 3 {
		t.Fatalf("cancelled timer events did something: %+v, puts %+v", after, log.evs[3:])
	}
	if n := s.hosts[src].timers; n.arms != 4 || n.events != 3 || n.superseded != 1 || n.earlier != 1 {
		t.Fatalf("timer tallies %+v, want 4 arms, 3 events, 1 superseded, 1 earlier", n)
	}
}

// TestStaleRTOAfterRecycleEndToEnd runs the race for real: a short flow
// completes well inside the 1 ms RTO floor, so its last retransmission
// timer is still pending when a second flow on the same host pair reuses
// the slot. The stale timer fires mid-flight into flow B; a clean path
// must stay retransmit-free and both flows must deliver every byte.
func TestStaleRTOAfterRecycleEndToEnd(t *testing.T) {
	// The receive window caps in-flight data below the 200-packet buffer
	// so slow start cannot overflow the queue: any retransmit can then
	// only come from a timer misfire.
	cfg := DefaultConfig()
	cfg.RcvBuf = 100_000
	h := newHarness(1, 1e9, 1e9, netdev.DropTailConfig(200), cfg, nil)
	flows := []FlowSpec{
		{ID: 0, Src: h.d.Senders[0], Dst: h.d.Receivers[0], Bytes: 10_000, Start: 0},
		{ID: 1, Src: h.d.Senders[0], Dst: h.d.Receivers[0], Bytes: 2_000_000, Start: 500 * sim.Microsecond},
	}
	h.mon = flowmon.NewMonitor(len(flows))
	h.stack = NewStack(h.net, cfg, h.mon)
	h.run(t, flows, 100*sim.Millisecond)

	for _, f := range flows {
		if !h.mon.Sender(f.ID).Done {
			t.Fatalf("flow %d did not complete", f.ID)
		}
		if got := h.mon.Recv(f.ID).BytesRcvd; got != f.Bytes {
			t.Fatalf("flow %d delivered %d bytes, want %d", f.ID, got, f.Bytes)
		}
	}
	if d := h.net.Drops(); d != 0 {
		t.Fatalf("%d drops — the scenario is not loss-free, fix the window/buffer sizing", d)
	}
	if r := h.mon.TotalRetransmits(); r != 0 {
		t.Fatalf("%d retransmits on a loss-free path — a stale timer fired into the recycled slot", r)
	}
	// Both arenas must have reused flow 0's slot for flow 1, otherwise
	// this test is not exercising recycling at all.
	for _, n := range []sim.NodeID{h.d.Senders[0], h.d.Receivers[0]} {
		if p := h.stack.hosts[n].arena.peak; p != 1 {
			t.Fatalf("node %d arena peak %d, want 1 (slot reuse)", n, p)
		}
	}
}
