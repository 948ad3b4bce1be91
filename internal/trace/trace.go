// Package trace is the packet-event tracing subsystem — the analog of
// ns-3's pcap/ascii tracing. Devices emit records for enqueue, dequeue,
// drop, ECN mark and delivery events; records are collected per node
// (single-owner, lock-free under every kernel), merged into a
// deterministic total order, and serialized to a compact binary format.
package trace

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"unison/internal/packet"
	"unison/internal/sim"
)

// Kind classifies a trace record.
type Kind uint8

const (
	// Enqueue: a packet entered a device queue.
	Enqueue Kind = iota
	// Dequeue: a packet left a queue and began transmission.
	Dequeue
	// Drop: a packet was discarded (queue overflow, TTL, dead link...).
	Drop
	// Mark: a packet received an ECN congestion mark.
	Mark
	// Deliver: a packet reached its destination host.
	Deliver
	kindCount
)

func (k Kind) String() string {
	switch k {
	case Enqueue:
		return "enq"
	case Dequeue:
		return "deq"
	case Drop:
		return "drop"
	case Mark:
		return "mark"
	case Deliver:
		return "rcv"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one trace entry. Fixed-size for compact binary encoding.
type Record struct {
	Time sim.Time
	Node sim.NodeID
	Kind Kind
	Flow packet.FlowID
	Seq  uint32 // the packet's TCP sequence number (0 for UDP)
	Size int32  // on-wire bytes
}

// recordBytes is the wire size of one record (8+4+1+4+4+4 padded to 25).
const recordBytes = 25

// Collector gathers records per node. The per-node slices are only
// appended from events executing on that node, so collection needs no
// locks under any kernel; Merged sorts the union afterwards.
type Collector struct {
	perNode [][]Record
	cap     int //unison:ckpt-skip config, fixed at NewCollector
	lost    []uint64
}

// NewCollector creates a collector for n nodes, keeping at most perNodeCap
// records per node (0 = unlimited). Overflowing records are counted, not
// stored.
func NewCollector(n, perNodeCap int) *Collector {
	return &Collector{
		perNode: make([][]Record, n),
		cap:     perNodeCap,
		lost:    make([]uint64, n),
	}
}

// Add records one event on node rec.Node.
func (c *Collector) Add(rec Record) {
	n := rec.Node
	if c.cap > 0 && len(c.perNode[n]) >= c.cap {
		c.lost[n]++
		return
	}
	c.perNode[n] = append(c.perNode[n], rec)
}

// Lost returns the number of records dropped due to the per-node cap.
func (c *Collector) Lost() uint64 {
	var t uint64
	for _, l := range c.lost {
		t += l
	}
	return t
}

// Count returns the number of stored records.
func (c *Collector) Count() int {
	t := 0
	for _, rs := range c.perNode {
		t += len(rs)
	}
	return t
}

// Merged returns all records in a deterministic total order: by time,
// then node, then per-node emission order. Because per-node emission
// order is fixed by the deterministic event order, the merged trace is
// identical across kernels and thread counts.
func (c *Collector) Merged() []Record {
	type keyed struct {
		r   Record
		idx int
	}
	var all []keyed
	for _, rs := range c.perNode {
		for i, r := range rs {
			all = append(all, keyed{r, i})
		}
	}
	// (time, node, index) is unique, so any sort yields the one order.
	slices.SortFunc(all, func(x, y keyed) int {
		return cmp.Or(cmp.Compare(x.r.Time, y.r.Time), cmp.Compare(x.r.Node, y.r.Node), cmp.Compare(x.idx, y.idx))
	})
	out := make([]Record, len(all))
	for i, k := range all {
		out[i] = k.r
	}
	return out
}

// CountKind returns how many stored records have the given kind.
func (c *Collector) CountKind(k Kind) int {
	t := 0
	for _, rs := range c.perNode {
		for _, r := range rs {
			if r.Kind == k {
				t++
			}
		}
	}
	return t
}

var magic = [4]byte{'U', 'T', 'R', '1'}

// WriteTo serializes the merged trace in the UTR1 binary format.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	recs := c.Merged()
	bw := bufio.NewWriter(w)
	var written int64
	if _, err := bw.Write(magic[:]); err != nil {
		return written, err
	}
	written += 4
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 8
	var buf [recordBytes]byte
	for _, r := range recs {
		encodeRecord(&buf, &r)
		if _, err := bw.Write(buf[:]); err != nil {
			return written, err
		}
		written += recordBytes
	}
	return written, bw.Flush()
}

func encodeRecord(buf *[recordBytes]byte, r *Record) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.Time))
	binary.LittleEndian.PutUint32(buf[8:], uint32(r.Node))
	buf[12] = byte(r.Kind)
	binary.LittleEndian.PutUint32(buf[13:], uint32(r.Flow))
	binary.LittleEndian.PutUint32(buf[17:], r.Seq)
	binary.LittleEndian.PutUint32(buf[21:], uint32(r.Size))
}

// ReadAll parses a UTR1 stream.
func ReadAll(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const sane = 1 << 30
	if n > sane {
		return nil, fmt.Errorf("trace: implausible record count %d", n)
	}
	out := make([]Record, 0, n)
	var buf [recordBytes]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		rec := Record{
			Time: sim.Time(binary.LittleEndian.Uint64(buf[0:])),
			Node: sim.NodeID(binary.LittleEndian.Uint32(buf[8:])),
			Kind: Kind(buf[12]),
			Flow: packet.FlowID(binary.LittleEndian.Uint32(buf[13:])),
			Seq:  binary.LittleEndian.Uint32(buf[17:]),
			Size: int32(binary.LittleEndian.Uint32(buf[21:])),
		}
		if rec.Kind >= kindCount {
			return nil, fmt.Errorf("trace: record %d has unknown kind %d", i, rec.Kind)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Dump renders records as one human-readable line each (ascii tracing).
func Dump(w io.Writer, recs []Record) error {
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "%v node=%d %s flow=%d seq=%d size=%d\n",
			r.Time, r.Node, r.Kind, r.Flow, r.Seq, r.Size); err != nil {
			return err
		}
	}
	return nil
}
