package dist

import (
	"bytes"
	"io"
	"net"
	"os"
	"testing"
	"time"

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

// FuzzEnvelope: whatever bytes arrive, recvAny returns an error or an
// envelope that survives the wire again; it never panics, and never spins
// (the fuzz engine's own watchdog is the hang detector: memConn cannot
// block).
func FuzzEnvelope(f *testing.F) {
	ev := []RemoteEvent{{Time: 5000, Src: 3, Seq: 9, Node: 4, Host: 1, Pkt: packet.Packet{}}}
	seeds := []*envelope{
		{Kind: kHello, Host: 1},
		{Kind: kMin, Host: 1, Min: 1234, Side: &Sideband{
			Recs: []obs.RoundRecord{{Round: 2, Worker: 1, Events: 7}}, Rows: []netobs.Row{{}}}},
		{Kind: kWindow, Min: 1234},
		{Kind: kFlush, Host: 1, Events: ev},
		{Kind: kEvents, Events: ev},
		{Kind: kDone, Min: sim.MaxTime},
		{Kind: kGather, Host: 1, Senders: []flowmon.SenderRec{{}}, Recvs: []flowmon.RecvRec{{}},
			Rows: []netobs.Row{{}}, Trace: []trace.Record{{}},
			Stats: &sim.RunStats{Kernel: "dist-host(1)", Events: 40, Workers: []sim.WorkerStats{{P: 1, S: 2, M: 3}}}},
		{Kind: kAbort, Err: "dist: MaxRounds exceeded"},
	}
	for i, e := range seeds {
		clean := wireBytes(f, e, faults.Plan{})
		f.Add(clean)
		f.Add(clean[:len(clean)/2])
		f.Add(clean[:len(clean)-1])
		f.Add(wireBytes(f, e, faults.Plan{Action: faults.Garble, Seed: uint64(7 * i)}))
	}
	f.Add([]byte{0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		mc := &memConn{}
		mc.in.Reset(data)
		e, err := newConn(mc, time.Second, "peer").recvAny()
		if err != nil {
			return
		}
		_ = e.Kind.String()
		mc.in.Reset(wireBytes(t, e, faults.Plan{}))
		again, err := newConn(mc, time.Second, "peer").recvAny()
		if err != nil {
			t.Fatalf("an accepted envelope (%v) does not decode again: %v", e.Kind, err)
		}
		if again.Kind != e.Kind || again.Host != e.Host || again.Min != e.Min || len(again.Events) != len(e.Events) {
			t.Fatalf("envelope changed on its second trip: %+v then %+v", e, again)
		}
	})
}
