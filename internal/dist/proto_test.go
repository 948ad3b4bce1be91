package dist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"unison/internal/ckpt"
	"unison/internal/faults"
	"unison/internal/flowmon"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/trace"
)

// memConn is a net.Conn over memory: writes accumulate in out, reads come
// from in, and a read past the end of in gets what a silent peer produces —
// EOF, or the deadline error once a read deadline is armed.
type memConn struct {
	net.Conn // nil; nothing below calls the rest
	in       bytes.Reader
	out      bytes.Buffer
	armed    bool
}

func (c *memConn) Read(p []byte) (int, error) {
	n, err := c.in.Read(p)
	if err == io.EOF && c.armed {
		err = os.ErrDeadlineExceeded
	}
	return n, err
}
func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) SetReadDeadline(time.Time) error  { c.armed = true; return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
func (c *memConn) Close() error                     { return nil }

// wireBytes is e as a fresh connection would put it on the wire, through
// the fault plan p.
func wireBytes(t testing.TB, e *envelope, p faults.Plan) []byte {
	t.Helper()
	mc := &memConn{}
	if err := newConn(faults.Wrap(mc, p), 0, "peer").send(e); err != nil {
		t.Fatal(err)
	}
	return mc.out.Bytes()
}

// seedEnvelopes is one envelope of every kind, each field that kind
// carries set: the step and the inbox with events and a sideband.
func seedEnvelopes() []*envelope {
	evs := []RemoteEvent{
		{Time: 5000, Src: 3, Seq: 9, Node: 4, Host: 1, Pkt: packet.Packet{Flow: 2, Src: 3, Dst: 4, Seq: 1460, Payload: 1460, ECT: true}},
		{Time: 5100, Src: 3, Seq: 10, Node: 5, Host: 1, Pkt: packet.Packet{Flow: 2, Src: 3, Dst: 5, Ack: 2920, CE: true, Hops: 3}},
	}
	side := &Sideband{Recs: []obs.RoundRecord{{Round: 2, Worker: 1, Events: 7, AllReduceNS: 40, Fused: true}},
		Rows: []netobs.Row{{Tick: 1000, Node: 2, Link: 3, Depth: 4, TxBytes: 1500, BW: 1e9}}}
	return []*envelope{
		{Kind: kHello, Host: 1},
		{Kind: kStep, Min: 1234, Events: evs, Side: side},
		{Kind: kStep, Min: sim.MaxTime},
		{Kind: kWindow, Min: 1234, Events: evs},
		{Kind: kDone, Min: sim.MaxTime, Events: evs[:1]},
		{Kind: kGather, Side: side, Final: &Final{Senders: []flowmon.SenderRec{{}}, Recvs: []flowmon.RecvRec{{}},
			Trace: []trace.Record{{}},
			Stats: &sim.RunStats{Kernel: "dist-host(1)", Events: 40, Workers: []sim.WorkerStats{{P: 1, S: 2, M: 3}}}}},
		{Kind: kAbort, Err: "dist: MaxRounds exceeded"},
	}
}

// framed wraps body as the wire does: its length and the length's
// complement in front, the checksum of all three behind.
func framed(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = binary.LittleEndian.AppendUint32(f, ^uint32(len(body)))
	f = append(f, body...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
}

// decodeWire is what the receiving end of a connection makes of data.
func decodeWire(data []byte) (*envelope, error) {
	mc := &memConn{}
	mc.in.Reset(data)
	return newConn(mc, time.Second, "peer").recvAny()
}

// FuzzEnvelope: whatever bytes arrive, recvAny returns an error or an
// envelope that encodes back to the frame it came from — the gather, whose
// gob need not re-encode to the same bytes, to a frame that decodes equal.
// It never panics, and never spins (the fuzz engine's own watchdog is the
// hang detector: memConn cannot block).
func FuzzEnvelope(f *testing.F) {
	for i, e := range seedEnvelopes() {
		clean := wireBytes(f, e, faults.Plan{})
		f.Add(clean)
		f.Add(clean[:len(clean)/2])
		f.Add(clean[:len(clean)-1])
		f.Add(wireBytes(f, e, faults.Plan{Action: faults.Garble, Seed: uint64(7 * i)}))
	}
	f.Add([]byte{0x01, 0x02, 0x03})
	// A length over the cap, and a well-formed frame whose event count
	// promises more than its payload holds.
	f.Add(append(head(maxFrame+1), make([]byte, 64)...))
	enc := ckpt.AppendEnc(nil)
	enc.U8(uint8(kWindow))
	enc.Time(1234)
	enc.U32(1000)
	encodeEvents(enc, seedEnvelopes()[1].Events[:1])
	f.Add(framed(enc.Bytes()))
	// Well-formed frames the body refuses: an unknown kind, and a step whose
	// sideband flag is neither 0 nor 1.
	f.Add(framed([]byte{99}))
	f.Add(framed([]byte{byte(kStep), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeWire(data)
		if err != nil {
			return
		}
		_ = e.Kind.String()
		again := wireBytes(t, e, faults.Plan{})
		if e.Kind != kGather {
			if !bytes.Equal(again, data[:len(again)]) {
				t.Fatalf("a %v encodes to another frame:\n%x\n%x", e.Kind, data[:len(again)], again)
			}
			return
		}
		if back, err := decodeWire(again); err != nil || !reflect.DeepEqual(back, e) {
			t.Fatalf("a gather changed on its second trip (%v): %+v then %+v", err, e, back)
		}
	})
}

// TestEnvelopesRoundTrip: every kind comes back as it was sent, and nothing
// of the frame is left unread.
func TestEnvelopesRoundTrip(t *testing.T) {
	for _, e := range seedEnvelopes() {
		got, err := decodeWire(wireBytes(t, e, faults.Plan{}))
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Errorf("%v: got %+v (%v), want %+v", e.Kind, got, err, e)
		}
	}
}

// head is a frame's head for a body of n bytes.
func head(n uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, n), ^n)
}

// TestGarbledFrameIsAlwaysAnError flips, one at a time, every bit of a
// step and of an inbox carrying events: the checksum turns each into an
// error, never into another envelope. A flipped bit of the length fails at
// once, with no deadline set and the connection open: a read that waited
// for the bytes a larger length promises would wait forever.
func TestGarbledFrameIsAlwaysAnError(t *testing.T) {
	seeds := seedEnvelopes()
	for _, e := range []*envelope{seeds[1], seeds[3]} {
		clean := wireBytes(t, e, faults.Plan{})
		for bit := 0; bit < 8*len(clean); bit++ {
			bad := bytes.Clone(clean)
			bad[bit/8] ^= 1 << (bit % 8)
			if got, err := decodeWire(bad); err == nil {
				t.Fatalf("%v with bit %d flipped decodes as a %v: %+v", e.Kind, bit, got.Kind, got)
			}
		}
		for bit := 0; bit < 32; bit++ {
			bad := bytes.Clone(clean)
			bad[bit/8] ^= 1 << (bit % 8)
			a, b := net.Pipe()
			go func() { _, _ = a.Write(bad) }() // blocks on the bytes nobody reads, until the close below
			got := make(chan error, 1)
			go func() {
				_, err := newConn(b, 0, "peer").recvAny()
				got <- err
			}()
			select {
			case err := <-got:
				if err == nil || !strings.Contains(err.Error(), "complement") {
					t.Errorf("%v with length bit %d flipped: %v, want the length refused", e.Kind, bit, err)
				}
			case <-time.After(5 * time.Second):
				t.Errorf("%v with length bit %d flipped: the read is still waiting", e.Kind, bit)
			}
			a.Close()
			b.Close()
		}
	}
}

// TestFrameGuards: a length over the cap, a count its payload cannot hold
// and a checksum mismatch are refused, each saying which.
func TestFrameGuards(t *testing.T) {
	step := seedEnvelopes()[1]
	enc := ckpt.AppendEnc(nil)
	enc.U8(uint8(kStep))
	enc.Time(step.Min)
	enc.U32(uint32(len(step.Events) + 1))
	encodeEvents(enc, step.Events)
	badSum := wireBytes(t, step, faults.Plan{})
	badSum[len(badSum)-1] ^= 0x80
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"over the cap", "the cap is", head(maxFrame + 1)},
		{"empty body", "frame of 0 bytes", head(0)},
		{"length and complement disagree", "fails its complement", binary.LittleEndian.AppendUint32(head(4)[:4], 4)},
		{"count past the payload", "element count", framed(enc.Bytes())},
		{"checksum", "checksum", badSum},
		{"unknown kind", "unknown message kind(99)", framed([]byte{99})},
		{"trailing bytes", "left over", framed(append(wireBytes(t, &envelope{Kind: kHello}, faults.Plan{})[headBytes:headBytes+5], 0))},
		{"bool not 0 or 1", "bad bool", framed([]byte{byte(kStep), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})},
	} {
		if _, err := decodeWire(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
}

// TestSidebandLayoutCoversEveryField: a record and a row whose every field
// holds a distinct non-zero value take their declared sizes and come back
// equal, so a field added to either without a place in the frame fails
// here instead of going missing from the live stream.
func TestSidebandLayoutCoversEveryField(t *testing.T) {
	var rec obs.RoundRecord
	var row netobs.Row
	fill(t, reflect.ValueOf(&rec).Elem())
	fill(t, reflect.ValueOf(&row).Elem())
	side := &Sideband{Recs: []obs.RoundRecord{rec}, Rows: []netobs.Row{row}}
	enc := ckpt.AppendEnc(nil)
	encodeSide(enc, side)
	if n, want := len(enc.Bytes()), 1+4+recordBytes+4+rowBytes; n != want {
		t.Fatalf("a sideband of one record and one row takes %d bytes, the layout says %d", n, want)
	}
	d := ckpt.NewDec(enc.Bytes())
	if got := decodeSide(d); d.Err() != nil || d.Len() != 0 || !reflect.DeepEqual(got, side) {
		t.Fatalf("decoded %+v (err %v, %d left), want %+v", got, d.Err(), d.Len(), side)
	}
}

// fill sets every field of the struct v to a distinct non-zero value.
func fill(t *testing.T, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(uint64(i + 1))
		default:
			t.Fatalf("%s.%s has kind %v, which the frame layout does not know", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}
