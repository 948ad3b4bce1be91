package netobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/trace"
)

func TestDevProbeBucketRolling(t *testing.T) {
	s := NewSampler(SamplerConfig{Interval: 100})
	p := s.Register(3, 7, 1_000_000_000)

	// Bucket [0,100): two enqueues, one dequeue.
	p.OnEnqueue(10, 1, false)
	p.OnEnqueue(20, 2, true)
	p.OnDequeue(30, 1, 500)
	// Gap: nothing in [100,200). Bucket [200,300): a drop at depth 4.
	p.OnDrop(250, 4)
	s.Flush()

	rows := s.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows=%d, want 2 (idle bucket skipped)", len(rows))
	}
	r0 := rows[0]
	if r0.Tick != 0 || r0.Node != 3 || r0.Link != 7 {
		t.Fatalf("row0 key = (%d,%d,%d)", r0.Tick, r0.Node, r0.Link)
	}
	if r0.Enqueues != 2 || r0.Dequeues != 1 || r0.Marks != 1 || r0.Drops != 0 {
		t.Fatalf("row0 counters = %+v", r0)
	}
	if r0.Depth != 1 || r0.MaxDepth != 2 {
		t.Fatalf("row0 depth=%d max=%d, want 1/2", r0.Depth, r0.MaxDepth)
	}
	if r0.TxBytes != 500 {
		t.Fatalf("row0 txbytes=%d", r0.TxBytes)
	}
	r1 := rows[1]
	if r1.Tick != 200 || r1.Drops != 1 || r1.MaxDepth != 4 {
		t.Fatalf("row1 = %+v", r1)
	}
}

func TestSamplerFlushIdempotent(t *testing.T) {
	s := NewSampler(SamplerConfig{Interval: 100})
	p := s.Register(0, 0, 1)
	p.OnEnqueue(5, 1, false)
	s.Flush()
	s.Flush()
	if n := len(s.Rows()); n != 1 {
		t.Fatalf("rows=%d after double flush, want 1", n)
	}
}

func TestUtilization(t *testing.T) {
	// 1250 bytes in a 100µs bucket on a 1Gbps link = 10000 bits / 100000 ns·Gbps = 0.1.
	r := Row{TxBytes: 1250, BW: 1_000_000_000}
	if got := r.Utilization(100 * sim.Microsecond); got < 0.0999 || got > 0.1001 {
		t.Fatalf("utilization=%v, want 0.1", got)
	}
	if (&Row{}).Utilization(0) != 0 {
		t.Fatal("zero interval must yield zero utilization")
	}
}

// TestSeriesMergesRankRows: two ranks' row deltas, interleaved in the
// record stream as their sidebands arrive, render the series.csv of the
// union in canonical order. Each device belongs to one rank.
func TestSeriesMergesRankRows(t *testing.T) {
	a := []Row{{Tick: 0, Node: 1, Depth: 3}, {Tick: 200, Node: 1}}
	b := []Row{{Tick: 0, Node: 2}, {Tick: 100, Node: 2, Drops: 1}}
	var stream []byte
	var err error
	for _, r := range []*Record{{Meta: &StreamMeta{Schema: RecordsSchema, IntervalNS: 100}},
		{Row: &b[1]}, {Row: &a[0]}, {Row: &a[1]}, {Row: &b[0]}} {
		if stream, err = AppendRecord(stream, r); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, RecordsFile), stream, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Bundle{}).Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "series.csv"))
	var want bytes.Buffer
	if err == nil {
		err = WriteCSV(&want, []Row{a[0], b[0], b[1], a[1]}, 100)
	}
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("series.csv from the stream (%v):\n%s\nwant:\n%s", err, got, want.Bytes())
	}
}

func TestWriteCSVDeterministic(t *testing.T) {
	rows := []Row{
		{Tick: 0, Node: 1, Link: 0, Depth: 2, MaxDepth: 3, Enqueues: 4, Dequeues: 2, TxBytes: 1250, BW: 1_000_000_000},
		{Tick: 100000, Node: 2, Link: 1, Drops: 1},
	}
	var b1, b2 bytes.Buffer
	if err := WriteCSV(&b1, rows, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b2, rows, 100*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("CSV not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines=%d, want header+2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tick_ns,node,link,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], "0.100000") {
		t.Fatalf("row 1 utilization: %q", lines[1])
	}
}

// parsePcapng walks the block structure, returning block types in order
// and the enhanced packet blocks' (timestamp, caplen, origlen).
type epbInfo struct {
	ts      uint64
	caplen  uint32
	origlen uint32
	frame   []byte
}

func parsePcapng(t *testing.T, raw []byte) ([]uint32, []epbInfo) {
	t.Helper()
	var types []uint32
	var epbs []epbInfo
	for off := 0; off < len(raw); {
		if off+12 > len(raw) {
			t.Fatalf("truncated block header at %d", off)
		}
		typ := binary.LittleEndian.Uint32(raw[off:])
		total := binary.LittleEndian.Uint32(raw[off+4:])
		if total%4 != 0 || off+int(total) > len(raw) {
			t.Fatalf("bad block length %d at %d", total, off)
		}
		if tail := binary.LittleEndian.Uint32(raw[off+int(total)-4:]); tail != total {
			t.Fatalf("trailing length %d != %d", tail, total)
		}
		types = append(types, typ)
		if typ == epbType {
			body := raw[off+8 : off+int(total)-4]
			ts := uint64(binary.LittleEndian.Uint32(body[4:]))<<32 | uint64(binary.LittleEndian.Uint32(body[8:]))
			caplen := binary.LittleEndian.Uint32(body[12:])
			origlen := binary.LittleEndian.Uint32(body[16:])
			epbs = append(epbs, epbInfo{ts, caplen, origlen, body[20 : 20+caplen]})
		}
		off += int(total)
	}
	return types, epbs
}

func TestWritePcapngStructure(t *testing.T) {
	recs := []trace.Record{
		{Time: 1000, Node: 2, Kind: trace.Enqueue, Flow: 7, Seq: 0, Size: 1000},
		{Time: 9000, Node: 2, Kind: trace.Dequeue, Flow: 7, Seq: 0, Size: 1000},
		{Time: 17000, Node: 5, Kind: trace.Deliver, Flow: 7, Seq: 0, Size: 1000},
	}
	flows := func(f packet.FlowID) (FlowInfo, bool) {
		return FlowInfo{Src: 2, Dst: 5, Proto: packet.TCP}, true
	}
	var buf bytes.Buffer
	if err := WritePcapng(&buf, recs, flows); err != nil {
		t.Fatal(err)
	}
	types, epbs := parsePcapng(t, buf.Bytes())
	if len(types) != 5 || types[0] != shbType || types[1] != idbType {
		t.Fatalf("block types = %#v", types)
	}
	if len(epbs) != 3 {
		t.Fatalf("EPBs=%d, want 3", len(epbs))
	}
	for i, e := range epbs {
		if e.ts != uint64(recs[i].Time) {
			t.Fatalf("EPB %d ts=%d, want %d", i, e.ts, recs[i].Time)
		}
		if e.origlen != uint32(recs[i].Size)+ethHeaderLen {
			t.Fatalf("EPB %d origlen=%d", i, e.origlen)
		}
		if e.caplen != maxFrameBytes {
			t.Fatalf("EPB %d caplen=%d, want %d", i, e.caplen, maxFrameBytes)
		}
		// Ethertype IPv4, IP version/IHL, TCP proto.
		if e.frame[12] != 0x08 || e.frame[13] != 0x00 {
			t.Fatalf("EPB %d not IPv4", i)
		}
		if e.frame[14] != 0x45 {
			t.Fatalf("EPB %d bad IP header byte %x", i, e.frame[14])
		}
		if e.frame[14+9] != 6 {
			t.Fatalf("EPB %d proto=%d, want TCP", i, e.frame[14+9])
		}
		// IP checksum must verify (sums to 0xffff with the field included).
		var sum uint32
		for o := 14; o < 34; o += 2 {
			sum += uint32(e.frame[o])<<8 | uint32(e.frame[o+1])
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		if sum != 0xffff {
			t.Fatalf("EPB %d IP checksum invalid (sum=%x)", i, sum)
		}
	}
	// Determinism: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := WritePcapng(&buf2, recs, flows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("pcapng not deterministic")
	}
}

func TestWritePcapngNilFlowLookup(t *testing.T) {
	var buf bytes.Buffer
	recs := []trace.Record{{Time: 5, Node: 1, Kind: trace.Drop, Flow: 3, Size: 40}}
	if err := WritePcapng(&buf, recs, nil); err != nil {
		t.Fatal(err)
	}
	_, epbs := parsePcapng(t, buf.Bytes())
	if len(epbs) != 1 {
		t.Fatalf("EPBs=%d", len(epbs))
	}
}

func TestNetworkEventsValidTraceJSON(t *testing.T) {
	rows := []Row{
		{Tick: 0, Node: 1, Link: 0, Depth: 2, TxBytes: 1250, BW: 1_000_000_000},
		{Tick: 300, Node: 1, Link: 0, Depth: 1, BW: 1_000_000_000}, // gap before this
	}
	flows := []FlowSlice{{ID: 0, Src: 1, Dst: 2, Bytes: 4096, Start: 10, End: 500}}
	var buf bytes.Buffer
	err := WriteCombinedPerfetto(&buf, obs.RunMeta{Kernel: "test"}, nil, rows, 100, flows)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var counters, begins, ends int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "C":
			counters++
		case "b":
			begins++
		case "e":
			ends++
		}
	}
	// 2 active buckets ×2 tracks + gap reset ×2 + final reset ×2 = 8.
	if counters != 8 {
		t.Fatalf("counter events=%d, want 8", counters)
	}
	if begins != 1 || ends != 1 {
		t.Fatalf("flow slices b=%d e=%d, want 1/1", begins, ends)
	}
}
