// Package dist is the distributed simulation layer: the §5.2 hybrid
// kernel's outer synchronization implemented over real TCP sockets
// (standing in for the paper's MPI, DESIGN.md §1). A coordinator and H
// simulation hosts — separate processes or separate goroutines — each
// build the same deterministic model. A host runs it as one rank of
// internal/core's round engine, its own nodes' LP alone resident (DESIGN.md
// §5.1); this package is what lies between the ranks: the host's core.Wire,
// the protocol it speaks, and the coordinator at the centre of the star.
// A round is one round trip: each host sends one step frame holding its
// cross-host packet arrivals, stamped with their deterministic identities
// (Time, Src, Seq), and its earliest event time; the coordinator answers
// each with its inbox and the global minimum, from which every host
// derives the same LBTS window.
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
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"time"

	"unison/internal/ckpt"
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
	kStep           // host → coord: the round's outbound events, the local minimum, the sideband
	kWindow         // coord → host: the inbox and the global minimum (hosts derive the LBTS)
	kDone           // coord → host: the last inbox; the simulation is over, send your gather
	kGather         // host → coord: final per-host flow statistics
	kAbort          // coord → host: a peer failed or the run was cut short; Err says why
)

var kindNames = [...]string{
	kHello:  "hello",
	kStep:   "step",
	kWindow: "window",
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

// Sideband is the telemetry a host piggybacks on its step messages: under
// HostConfig.Live the RoundRecords emitted since the previous step, and,
// with a sampler attached, the netobs rows its pauses passed on since then
// — the one way rows reach the coordinator. The last round's records, and
// the rows closed after the last pause, the final flush's among them, ride
// the gather. The coordinator files the records under the lane of the
// connection they arrived on, whatever Worker they carry. It is filled by
// the host's probe and pause clients and sent from its engine's phase-4
// serial section — quiescent, and on the same goroutine — and it rides
// messages the protocol sends anyway, so it adds no round trips and never
// changes the simulation.
type Sideband struct {
	Recs []obs.RoundRecord
	Rows []netobs.Row
}

// Final is what a host ships once, at the end of the run: its flow
// statistics, and its trace records when it had a tracer attached. Every device and node is owned by exactly one host,
// so the coordinator's merge reproduces the single-process output. Stats
// is the host's final run stats, merged by the coordinator into
// CoordConfig.Stats.
type Final struct {
	Senders []flowmon.SenderRec
	Recvs   []flowmon.RecvRec
	Trace   []trace.Record
	Stats   *sim.RunStats
}

// envelope is the single wire message type. Which fields a kind carries is
// the frame layout below.
type envelope struct {
	Kind   msgKind
	Host   int32         // hello: the sending host
	Min    sim.Time      // step: the host's minimum; window, done: every host's
	Events []RemoteEvent // step: the outbound events; window, done: the inbox
	Side   *Sideband     // step, gather: under HostConfig.Live or with a sampler
	Final  *Final        // gather
	Err    string        // abort: human-readable reason the run was aborted
}

// Every message is one frame:
//
//	u32 body length | u32 its complement | body | u32 CRC-32C of all before
//
// The complement checks the length before the body is waited for: a
// garbled length is an error at once, not a read that waits for bytes the
// peer never sends.
//
// and a body is a kind byte and the kind's fields, little-endian, through
// ckpt.Enc and ckpt.Dec:
//
//	hello   i32 host
//	step    time min | events | sideband
//	window  time min | events
//	done    time min | events
//	gather  sideband | u32 length | gob of the Final
//	abort   u32 length | reason
//
//	events    u32 count | count × (time, i32 src, u64 seq, i32 node, i32 host, packet)
//	sideband  u8 present | if present: u32 count | records | u32 count | rows
//
// A packet is ckpt.Enc.Packet's layout, a record and a row their fields in
// declaration order. Only the once-per-run Final is gob.
const (
	// maxFrame bounds a body: a longer length is refused before anything
	// is read into memory for it.
	maxFrame    = 1 << 30
	headBytes   = 4 + 4 // the length and its complement
	eventBytes  = 8 + 4 + 8 + 4 + 4 + ckpt.PacketBytes
	recordBytes = 8 + 4 + 8 + 8 + 5*8 + 5*8 + 8 + 8 + 8 + 8 + 1
	rowBytes    = 8 + 4 + 4 + 4 + 4 + 4*4 + 8 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode appends e's body.
func (e *envelope) encode(enc *ckpt.Enc) error {
	enc.U8(uint8(e.Kind))
	switch e.Kind {
	case kHello:
		enc.I32(e.Host)
	case kStep:
		enc.Time(e.Min)
		encodeEvents(enc, e.Events)
		encodeSide(enc, e.Side)
	case kWindow, kDone:
		enc.Time(e.Min)
		encodeEvents(enc, e.Events)
	case kGather:
		encodeSide(enc, e.Side)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(e.Final); err != nil {
			return fmt.Errorf("dist: encoding the gather: %w", err)
		}
		enc.Blob(b.Bytes())
	case kAbort:
		enc.Blob([]byte(e.Err))
	default:
		return fmt.Errorf("dist: cannot send a message of %v", e.Kind)
	}
	return nil
}

// decodeBody is encode's inverse. It reads the whole body or fails: an
// accepted body encodes back to the same bytes, the gather's gob aside.
func decodeBody(body []byte) (*envelope, error) {
	d := ckpt.NewDec(body)
	e := &envelope{Kind: msgKind(d.U8())}
	switch e.Kind {
	case kHello:
		e.Host = d.I32()
	case kStep:
		e.Min = d.Time()
		e.Events = decodeEvents(d)
		e.Side = decodeSide(d)
	case kWindow, kDone:
		e.Min = d.Time()
		e.Events = decodeEvents(d)
	case kGather:
		e.Side = decodeSide(d)
		if b := d.Blob(); d.Err() == nil {
			e.Final = &Final{}
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(e.Final); err != nil {
				return nil, fmt.Errorf("decoding a gather: %w", err)
			}
		}
	case kAbort:
		e.Err = string(d.Blob())
	default:
		return nil, fmt.Errorf("unknown message %v", e.Kind)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("decoding a %v: %w", e.Kind, err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%d bytes left over after a %v", d.Len(), e.Kind)
	}
	return e, nil
}

func encodeEvents(enc *ckpt.Enc, evs []RemoteEvent) {
	enc.U32(uint32(len(evs)))
	for i := range evs {
		ev := &evs[i]
		enc.Time(ev.Time)
		enc.I32(int32(ev.Src))
		enc.U64(ev.Seq)
		enc.I32(int32(ev.Node))
		enc.I32(ev.Host)
		enc.Packet(&ev.Pkt)
	}
}

func decodeEvents(d *ckpt.Dec) []RemoteEvent {
	n := d.Count(eventBytes)
	if n == 0 {
		return nil
	}
	evs := make([]RemoteEvent, n)
	for i := range evs {
		evs[i] = RemoteEvent{Time: d.Time(), Src: sim.NodeID(d.I32()), Seq: d.U64(),
			Node: sim.NodeID(d.I32()), Host: d.I32(), Pkt: d.Packet()}
	}
	return evs
}

func encodeSide(enc *ckpt.Enc, s *Sideband) {
	enc.Bool(s != nil)
	if s == nil {
		return
	}
	enc.U32(uint32(len(s.Recs)))
	for i := range s.Recs {
		r := &s.Recs[i]
		enc.U64(r.Round)
		enc.I32(r.Worker)
		enc.Time(r.LBTS)
		enc.U64(r.Events)
		enc.I64(r.ProcNS)
		enc.I64(r.SyncNS)
		enc.I64(r.MsgNS)
		enc.I64(r.WaitGlobalNS)
		enc.I64(r.MaxLPNS)
		enc.U64(r.Sends)
		enc.U64(r.SendBytes)
		enc.U64(r.Recvs)
		enc.U64(r.FELDepth)
		enc.U64(r.Migrations)
		enc.I64(r.AllReduceNS)
		enc.U64(r.Retries)
		enc.I64(r.CkptNS)
		enc.U64(r.CkptBytes)
		enc.Bool(r.Fused)
	}
	enc.U32(uint32(len(s.Rows)))
	for i := range s.Rows {
		r := &s.Rows[i]
		enc.Time(r.Tick)
		enc.I32(int32(r.Node))
		enc.I32(r.Link)
		enc.I32(r.Depth)
		enc.I32(r.MaxDepth)
		enc.U32(r.Enqueues)
		enc.U32(r.Dequeues)
		enc.U32(r.Drops)
		enc.U32(r.Marks)
		enc.U64(r.TxBytes)
		enc.I64(r.BW)
	}
}

func decodeSide(d *ckpt.Dec) *Sideband {
	if !d.Bool() {
		return nil
	}
	s := &Sideband{}
	if n := d.Count(recordBytes); n > 0 {
		s.Recs = make([]obs.RoundRecord, n)
		for i := range s.Recs {
			s.Recs[i] = obs.RoundRecord{Round: d.U64(), Worker: d.I32(), LBTS: d.Time(), Events: d.U64(),
				ProcNS: d.I64(), SyncNS: d.I64(), MsgNS: d.I64(), WaitGlobalNS: d.I64(), MaxLPNS: d.I64(),
				Sends: d.U64(), SendBytes: d.U64(), Recvs: d.U64(), FELDepth: d.U64(), Migrations: d.U64(),
				AllReduceNS: d.I64(), Retries: d.U64(), CkptNS: d.I64(), CkptBytes: d.U64(), Fused: d.Bool()}
		}
	}
	if n := d.Count(rowBytes); n > 0 {
		s.Rows = make([]netobs.Row, n)
		for i := range s.Rows {
			s.Rows[i] = netobs.Row{Tick: d.Time(), Node: sim.NodeID(d.I32()), Link: d.I32(),
				Depth: d.I32(), MaxDepth: d.I32(), Enqueues: d.U32(), Dequeues: d.U32(), Drops: d.U32(), Marks: d.U32(),
				TxBytes: d.U64(), BW: d.I64()}
		}
	}
	return s
}

// conn wraps a TCP connection with the frame codec, optional per-message
// deadlines, and a label for the remote peer so protocol errors are
// diagnosable from the message alone. One goroutine sends and one
// receives; each owns its buffer.
type conn struct {
	c       net.Conn
	r       *bufio.Reader
	out, in []byte        // the last frame sent and received, reused
	timeout time.Duration // 0 = no deadlines
	peer    string        // remote role, e.g. "coordinator" or "host 3"
}

func newConn(c net.Conn, timeout time.Duration, peer string) *conn {
	return &conn{c: c, r: bufio.NewReader(c), timeout: timeout, peer: peer}
}

// send writes e as one frame in one Write.
func (c *conn) send(e *envelope) error {
	enc := ckpt.AppendEnc(append(c.out[:0], make([]byte, headBytes)...))
	if err := e.encode(enc); err != nil {
		return err
	}
	buf := enc.Bytes()
	n := uint32(len(buf) - headBytes)
	if n > maxFrame {
		return fmt.Errorf("dist: a %v of %d bytes exceeds the %d-byte frame cap", e.Kind, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(buf, n)
	binary.LittleEndian.PutUint32(buf[4:], ^n)
	c.out = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	if c.timeout > 0 {
		_ = c.c.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.c.Write(c.out)
	return err
}

// recvAny reads and decodes the next frame, whatever its kind. The read
// deadline covers the whole inter-message gap: a peer that goes silent for
// longer than the timeout surfaces as a deadline error here. A length that
// fails its complement is an error before the body is read; a frame over
// the cap, short of its length, or failing its checksum is one before any
// of its fields is decoded.
func (c *conn) recvAny() (*envelope, error) {
	if c.timeout > 0 {
		_ = c.c.SetReadDeadline(time.Now().Add(c.timeout))
	}
	var head [headBytes]byte
	if _, err := io.ReadFull(c.r, head[:]); err != nil {
		return nil, err
	}
	n32 := binary.LittleEndian.Uint32(head[:])
	if ^n32 != binary.LittleEndian.Uint32(head[4:]) {
		return nil, fmt.Errorf("dist: %s sent a frame length that fails its complement", c.peer)
	}
	n := int(n32)
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dist: %s sent a frame of %d bytes; the cap is %d", c.peer, n, maxFrame)
	}
	// The buffer grows with the bytes that arrive, not with the length a
	// frame claims.
	buf, total := append(c.in[:0], head[:]...), headBytes+n+4
	for len(buf) < total {
		chunk := min(total-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, chunk)
		if _, err := io.ReadFull(c.r, buf[len(buf):len(buf)+chunk]); err != nil {
			return nil, fmt.Errorf("dist: %s: a frame of %d bytes broke off: %w", c.peer, n, err)
		}
		buf = buf[:len(buf)+chunk]
	}
	c.in = buf
	if sum := binary.LittleEndian.Uint32(buf[headBytes+n:]); crc32.Checksum(buf[:headBytes+n], castagnoli) != sum {
		return nil, fmt.Errorf("dist: %s sent a frame that fails its checksum", c.peer)
	}
	e, err := decodeBody(buf[headBytes : headBytes+n])
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", c.peer, err)
	}
	return e, nil
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
