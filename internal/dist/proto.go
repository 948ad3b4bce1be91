// Package dist is the distributed simulation layer: the §5.2 hybrid
// kernel's outer synchronization implemented over real TCP sockets
// (standing in for the paper's MPI, DESIGN.md §1). A coordinator and H
// simulation hosts — separate processes or separate goroutines — each
// build the same deterministic model. A host runs it as one rank of
// internal/core's round engine, its own nodes' LP alone resident (DESIGN.md
// §5.1); this package is what lies between the ranks: the host's core.Wire,
// which ships cross-host packet arrivals with their deterministic identities
// (Time, Src, Seq) and agrees LBTS windows by an all-reduce, the protocol
// it speaks, and the coordinator at the centre of the star.
//
// Because remote events carry the same identity a local event would have,
// a distributed run produces bit-identical results to the sequential
// kernel — the property dist_test.go pins over loopback TCP.
//
// Fault model (DESIGN.md §7): every socket operation carries a deadline
// when CoordConfig.Timeout / HostConfig.Timeout is set, a failed or
// timed-out host makes the coordinator broadcast kAbort so the survivors
// return a descriptive error instead of hanging, and hosts retry the
// initial dial with bounded exponential backoff to survive coordinator
// startup races. Nothing mid-simulation is retried: a lost host means the
// deterministic global event order can no longer be completed, so the
// only safe reaction is a loud, bounded-time abort.
package dist

import (
	"encoding/gob"
	"fmt"
	"net"
	"time"

	"unison/internal/flowmon"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/trace"
)

// msgKind enumerates the wire message kinds.
type msgKind byte

const (
	kHello  msgKind = iota + 1
	kMin            // host → coord: local minimum next-event time
	kWindow         // coord → host: global minimum (hosts derive the LBTS)
	kFlush          // host → coord: this round's outbound remote events
	kEvents         // coord → host: the remote events addressed to this host
	kDone           // coord → host: simulation over, send your gather
	kGather         // host → coord: final per-host flow statistics
	kAbort          // coord → host: a peer failed or the run was cut short; Err says why
)

var kindNames = [...]string{
	kHello:  "hello",
	kMin:    "min",
	kWindow: "window",
	kFlush:  "flush",
	kEvents: "events",
	kDone:   "done",
	kGather: "gather",
	kAbort:  "abort",
}

func (k msgKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// RemoteEvent is a serialized cross-host packet arrival. Identity fields
// (Time, Src, Seq) reproduce the deterministic event order on the
// receiving host.
type RemoteEvent struct {
	Time sim.Time
	Src  sim.NodeID
	Seq  uint64
	Node sim.NodeID
	Host int32 // target simulation host
	Pkt  packet.Packet
}

// Sideband is the per-round telemetry a host piggybacks on its kMin
// message when HostConfig.Live is set: the RoundRecords emitted since the
// previous min and the netobs rows closed since then. The coordinator files
// the records under the lane of the connection they arrived on, whatever
// Worker they carry. It is filled by the host's probe and sent from its
// engine's phase-4 serial section — quiescent, and on the same goroutine —
// and it rides a message the protocol sends anyway, so the live path adds
// no extra round trips and never changes the simulation.
type Sideband struct {
	Recs []obs.RoundRecord
	Rows []netobs.Row
}

// envelope is the single wire message type (gob-encoded).
type envelope struct {
	Kind    msgKind
	Host    int32
	Min     sim.Time
	Err     string // kAbort: human-readable reason the run was aborted
	Events  []RemoteEvent
	Senders []flowmon.SenderRec
	Recvs   []flowmon.RecvRec
	// Rows and Trace ride the kGather message when the host had a sampler
	// or tracer attached; every device and node is owned by exactly one
	// host, so the coordinator's merge reproduces the single-process output.
	Rows  []netobs.Row
	Trace []trace.Record
	// Side rides kMin when the host runs with Live telemetry enabled.
	Side *Sideband
	// Stats rides kGather: the host's final run stats, merged by the
	// coordinator into CoordConfig.Stats.
	Stats *sim.RunStats
}

// conn wraps a TCP connection with gob codecs, optional per-message
// deadlines, and a label for the remote peer so protocol errors are
// diagnosable from the message alone.
type conn struct {
	c       net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	timeout time.Duration // 0 = no deadlines
	peer    string        // remote role, e.g. "coordinator" or "host 3"
}

func newConn(c net.Conn, timeout time.Duration, peer string) *conn {
	return &conn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c), timeout: timeout, peer: peer}
}

func (c *conn) send(e *envelope) error {
	if c.timeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return c.enc.Encode(e)
}

// recvAny decodes the next envelope, whatever its kind. The read deadline
// covers the whole inter-message gap: a peer that goes silent for longer
// than the timeout surfaces as a deadline error here.
func (c *conn) recvAny() (*envelope, error) {
	if c.timeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(c.timeout))
	}
	var e envelope
	if err := c.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

func (c *conn) recv(want msgKind) (*envelope, error) {
	e, err := c.recvAny()
	if err != nil {
		return nil, err
	}
	if e.Kind == kAbort && want != kAbort {
		return nil, fmt.Errorf("dist: %s aborted the run: %s", c.peer, e.Err)
	}
	if e.Kind != want {
		return nil, fmt.Errorf("dist: %s: expected %v, got %v", c.peer, want, e.Kind)
	}
	return e, nil
}

func (c *conn) close() { _ = c.c.Close() }
