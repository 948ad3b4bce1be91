// Package ckpt implements whole-simulation checkpoint/restore: a
// versioned, self-describing binary snapshot of every stateful layer,
// taken deterministically at a quiescent kernel point (DESIGN.md §11).
//
// A checkpoint file is a sequence of named sections over a fixed header:
//
//	magic "UCKPT" | u16 version | u64 config hash
//	repeat: u8 name length | name bytes | u32 payload length | payload
//	section "end" with an empty payload
//	u32 CRC-32C (Castagnoli) of every preceding byte
//
// All integers are little-endian. The section names and payloads are
// produced by the layers themselves through the Checkpointer interface;
// the kernel-owned state (pending events, sequence counters, progress
// counters) is the "kernel" section, which comes first. A file is encoded
// once, in place: every section goes straight into a buffer of the saver a
// kernel run owns (Target.Saver), length patched in afterwards, and the
// buffers are written out one after another. Pending events serialize
// through their sim.EvDesc descriptors; the kind tags are allocated in
// ranges per layer:
//
//	0x01xx internal/netdev   0x02xx internal/tcp
//	0x03xx internal/app      0x04xx reserved (dist reuses netdev's)
//
// The decoder is sticky-error and fully bounds-checked: a truncated or
// garbled file of any content produces a descriptive error, never a
// panic and never an unbounded allocation (the fuzz target in
// ckpt_fuzz_test.go pins this).
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/sim"
	"unison/internal/stats"
)

// Version is the current checkpoint format version. Readers reject any
// other version outright: snapshots are short-lived crash-recovery
// artifacts, not archival data, so there is no cross-version migration.
const Version uint16 = 5

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var magic = [5]byte{'U', 'C', 'K', 'P', 'T'}

// maxSection bounds any single section payload (and any single length
// field the decoder trusts before reading), so a garbled length cannot
// drive an unbounded allocation.
const maxSection = 1 << 30

// Checkpointer is one stateful layer's hook pair. Save must not mutate
// the layer; Load fully overwrites the layer's dynamic state. Both run at a
// quiescent point, where nothing simulates: a restore is the single owner
// of every layer, and a save reads every layer at once, each on whichever
// parked worker claimed it, so a Save may share no scratch with another
// layer's.
type Checkpointer interface {
	// CkptName is the layer's section name, unique within a Target.
	CkptName() string
	// CkptSave appends the layer's dynamic state.
	CkptSave(e *Enc) error
	// CkptLoad restores the layer's dynamic state.
	CkptLoad(d *Dec) error
}

// EventDecoder re-materializes an event closure from its descriptor and
// the node the event is pending on. Layers that own descriptor kinds
// implement it; ok=false means the kind belongs to some other layer.
type EventDecoder interface {
	DecodeEvent(kind uint16, node sim.NodeID, d *Dec) (sim.Proc, sim.EvDesc, bool, error)
}

// --- Encoder ---

// Enc is an append-only little-endian encoder. A counting Enc stores
// nothing and adds up what it is given: how a saver sizes a buffer it is
// about to fill for the first time.
type Enc struct {
	buf      []byte
	counting bool
	size     int
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) {
	if e.counting {
		e.size++
		return
	}
	e.buf = append(e.buf, v)
}

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) {
	if e.counting {
		e.size += 2
		return
	}
	e.buf = append(e.buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) {
	if e.counting {
		e.size += 4
		return
	}
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) {
	if e.counting {
		e.size += 8
		return
	}
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// Time appends a sim.Time.
func (e *Enc) Time(t sim.Time) { e.I64(int64(t)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// F64 appends a float64 by bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// raw appends b as it is.
func (e *Enc) raw(b string) {
	if e.counting {
		e.size += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Blob appends b behind a u32 length, as Dec.Blob reads it.
func (e *Enc) Blob(b []byte) {
	e.U32(uint32(len(b)))
	if e.counting {
		e.size += len(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// Summary appends a stats.Summary (several layers carry one).
func (e *Enc) Summary(s *stats.Summary) {
	e.I64(int64(s.N))
	e.F64(s.Sum)
	e.F64(s.Min)
	e.F64(s.Max)
	e.F64(s.MeanAcc)
	e.F64(s.M2Acc)
}

// Packet appends every field of p. The packet is a value type with no
// indirection, so field-by-field encoding is complete. Checkpoints and
// internal/dist's frames share this one layout.
func (e *Enc) Packet(p *packet.Packet) {
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

// PacketBytes is the encoded size of one packet, the element floor for
// Count guards.
const PacketBytes = 4 + 4 + 4 + 1 + 4 + 4 + 4 + 1 + 1 + 1 + 4 + 8 + 8 + 1

// len is how many bytes e holds, or has counted.
func (e *Enc) len() int {
	if e.counting {
		return e.size
	}
	return len(e.buf)
}

// section opens a section of a payload length known now, or patched in by
// endSection once the payload is there; it returns where the length sits.
func (e *Enc) section(name string, payload int) (lenAt int, err error) {
	if len(name) == 0 || len(name) > 255 {
		return 0, fmt.Errorf("ckpt: bad section name %q", name)
	}
	if payload > maxSection {
		return 0, fmt.Errorf("ckpt: section %q exceeds %d bytes", name, maxSection)
	}
	e.U8(uint8(len(name)))
	e.raw(name)
	lenAt = e.len()
	e.U32(uint32(payload))
	return lenAt, nil
}

// endSection closes the section opened at lenAt over everything appended
// since.
func (e *Enc) endSection(name string, lenAt int) error {
	payload := e.len() - lenAt - 4
	if payload > maxSection {
		return fmt.Errorf("ckpt: section %q exceeds %d bytes", name, maxSection)
	}
	if !e.counting {
		binary.LittleEndian.PutUint32(e.buf[lenAt:], uint32(payload))
	}
	return nil
}

// event appends one pending event, its descriptor encoded in place.
func (e *Enc) event(ev *sim.Event) {
	e.Time(ev.Time)
	e.I32(int32(ev.Src))
	e.U64(ev.Seq)
	e.I32(int32(ev.Node))
	e.U16(ev.Desc.CkptKind())
	if e.counting {
		e.buf = ev.Desc.CkptEncode(e.buf[:0])
		e.size += 4 + len(e.buf)
		return
	}
	lenAt := len(e.buf)
	e.U32(0)
	e.buf = ev.Desc.CkptEncode(e.buf)
	binary.LittleEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-lenAt-4))
}

// SummaryBytes is the encoded size of one stats.Summary.
const SummaryBytes = 8 * 6

// --- Decoder ---

// Dec is a sticky-error little-endian decoder over one section payload.
// After the first failure every read returns zero values and Err()
// reports the failure; callers only need one error check per section.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// AppendEnc returns an encoder that appends to buf — how sim.EvDesc
// implementations reuse the ckpt primitives inside CkptEncode, whose
// signature is raw-bytes-in/raw-bytes-out to keep sim free of a ckpt
// dependency.
func AppendEnc(buf []byte) *Enc { return &Enc{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.buf) - d.off }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: truncated %s at offset %d", what, d.off)
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2, "u16")
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// Time reads a sim.Time.
func (d *Dec) Time() sim.Time { return sim.Time(d.I64()) }

// Bool reads a boolean. Any byte but 0 and 1 is an error, so a decoded
// value encodes back to the bytes it came from.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	if d.err == nil {
		d.err = fmt.Errorf("ckpt: bad bool at offset %d", d.off-1)
	}
	return false
}

// F64 reads a float64 by bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Summary reads a stats.Summary.
func (d *Dec) Summary() stats.Summary {
	return stats.Summary{
		N:       int(d.I64()),
		Sum:     d.F64(),
		Min:     d.F64(),
		Max:     d.F64(),
		MeanAcc: d.F64(),
		M2Acc:   d.F64(),
	}
}

// Packet reads a packet laid out by Enc.Packet.
func (d *Dec) Packet() packet.Packet {
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

// Blob reads a length-prefixed byte slice (borrowed from the input).
func (d *Dec) Blob() []byte {
	n := int(d.U32())
	return d.take(n, "blob")
}

// Count reads a u32 element count and validates it against the remaining
// input, assuming each element occupies at least minBytes encoded bytes —
// the guard that keeps a garbled count from driving a huge allocation.
func (d *Dec) Count(minBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > d.Len()/minBytes {
		d.fail("element count")
		return 0
	}
	return n
}

// --- File format ---

// writeFile writes the image — pieces, end to end — atomically: a temp
// file in the target directory, synced, then renamed over path. A crash
// mid-write leaves either the old checkpoint or none, never a torn one.
func writeFile(path string, pieces [][]byte) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".uckpt-*")
	if err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	var n int64
	for _, p := range pieces {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("ckpt: writing %s: %w", path, err)
		}
		n += int64(len(p))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("ckpt: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	return n, nil
}

// File is a parsed checkpoint image.
type File struct {
	ConfigHash uint64
	sections   map[string][]byte // of sections sharing a name, the first
}

// Parse validates the header, checksum and section framing of img.
func Parse(img []byte) (*File, error) {
	if len(img) < len(magic)+2+8+4 {
		return nil, errors.New("ckpt: file too short")
	}
	body, sum := img[:len(img)-4], binary.LittleEndian.Uint32(img[len(img)-4:])
	d := NewDec(body)
	if string(d.take(len(magic), "magic")) != string(magic[:]) {
		return nil, errors.New("ckpt: bad magic — not a checkpoint file")
	}
	if v := d.U16(); v != Version {
		return nil, fmt.Errorf("ckpt: unsupported format version %d (this build reads %d)", v, Version)
	}
	if want := crc32.Checksum(body, castagnoli); sum != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (file %08x, computed %08x) — truncated or corrupted checkpoint", sum, want)
	}
	f := &File{ConfigHash: d.U64(), sections: map[string][]byte{}}
	for {
		nameLen := int(d.U8())
		name := string(d.take(nameLen, "section name"))
		payload := d.Blob()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if name == "end" {
			if d.Len() != 0 {
				return nil, errors.New("ckpt: trailing bytes after end section")
			}
			return f, nil
		}
		if _, dup := f.sections[name]; !dup {
			f.sections[name] = payload
		}
	}
}

// ReadFile loads and parses path.
func ReadFile(path string) (*File, error) {
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return Parse(img)
}

// Section returns the named section's payload.
func (f *File) Section(name string) ([]byte, bool) {
	payload, ok := f.sections[name]
	return payload, ok
}

// --- Target: one process's full snapshot ---

// Target aggregates the stateful layers of one simulation process. The
// same Target serves both directions: the savers it makes write files from
// a kernel's quiescent points, Load reads one back into freshly built
// (identically configured) layers.
type Target struct {
	// ConfigHash guards restores: it must hash everything the snapshot
	// does NOT carry (topology, seeds, stop time, kernel choice), since a
	// restore silently assumes the rebuilt static state matches.
	ConfigHash uint64
	// Layers are saved and restored in order; names must be unique.
	Layers []Checkpointer
	// Decoders re-materialize pending-event closures from descriptors,
	// tried in order.
	Decoders []EventDecoder
}

// Saver returns a sim.Pause's New: every saver it makes writes a run's
// snapshot of round r to path(r) and, when probe is non-nil, files one
// RoundRecord per snapshot with its size and for how long it held the
// kernel's workers, from Start to the file being durable. A saver owns
// every buffer its saves encode into and fills them again from save to
// save, so a run's second and later saves allocate nothing, and the memory
// goes when the run drops the saver — the Target holds none of it.
func (t *Target) Saver(path func(round uint64) string, probe obs.Probe) func() sim.Pauser {
	return func() sim.Pauser { return &saver{t: t, path: path, probe: probe} }
}

// felsPerJob is how many of the kernel's event lists one job encodes. An
// LP's list is a few hundred events: 64 of them are enough work to claim at
// once and few enough that the jobs of a k=8 fat-tree still spread over
// every worker.
const felsPerJob = 64

// saver is the one encoder: whoever drives it (sim.PauseRun), from one
// goroutine or from all of a round engine's, the same bytes come out.
type saver struct {
	t     *Target
	path  func(round uint64) string
	probe obs.Probe
	rec   obs.RoundRecord // the snapshot's record, kept here so it escapes once
	start time.Time
	ks    *sim.KernelState
	// jobs are the independent parts of a snapshot in file order, which puts
	// the large ones first: the kernel section's events in runs of
	// felsPerJob lists, then one whole section per layer.
	jobs       []saveJob
	runs       int      // how many of jobs are runs of lists
	head, tail Enc      // what frames the jobs: file header and kernel section head; end section and checksum
	pieces     [][]byte // the image in file order
}

// saveJob is one job's encoder and outcome. An append writes its slice
// header back, and neighbouring jobs are other workers': the padding keeps
// any two on different cache lines.
type saveJob struct {
	enc    Enc
	events int // in a run of lists
	err    error
	_      [64]byte
}

func (s *saver) Start(ks *sim.KernelState) int {
	s.start = time.Now() //unison:wallclock-ok how long a snapshot holds the workers, for obs.RoundRecord.CkptNS
	s.ks = ks
	if s.jobs == nil {
		s.runs = (ks.FELs + felsPerJob - 1) / felsPerJob
		s.jobs = make([]saveJob, s.runs+len(s.t.Layers))
	}
	return len(s.jobs)
}

func (s *saver) Job(i int, scratch []sim.Event) []sim.Event {
	j := &s.jobs[i]
	e := &j.enc
	if cap(e.buf) == 0 {
		// The run's first save: growing an empty buffer to megabytes costs
		// several times the encode, so count first. The slack is for layers
		// that grow as the run goes on.
		*e = Enc{counting: true}
		if scratch, _, j.err = s.encode(i, e, scratch); j.err != nil {
			return scratch
		}
		*e = Enc{buf: make([]byte, 0, e.size+e.size/8)}
	}
	e.buf = e.buf[:0]
	scratch, j.events, j.err = s.encode(i, e, scratch)
	return scratch
}

// encode is job i: the events of a run of lists, each as the kernel hands
// it over, or a layer's section.
func (s *saver) encode(i int, e *Enc, scratch []sim.Event) (_ []sim.Event, events int, err error) {
	if i >= s.runs {
		l := s.t.Layers[i-s.runs]
		name := l.CkptName()
		lenAt, err := e.section(name, 0)
		if err != nil {
			return scratch, 0, err
		}
		if err := l.CkptSave(e); err != nil {
			return scratch, 0, fmt.Errorf("ckpt: saving %s: %w", name, err)
		}
		return scratch, 0, e.endSection(name, lenAt)
	}
	for f := i * felsPerJob; f < min((i+1)*felsPerJob, s.ks.FELs); f++ {
		scratch = s.ks.FEL(f, scratch[:0])
		for k := range scratch {
			if scratch[k].Desc == nil {
				return scratch, 0, NoDesc(&scratch[k])
			}
			e.event(&scratch[k])
		}
		events += len(scratch)
	}
	return scratch, events, nil
}

// image frames the encoded jobs into the file image, checksum included,
// and returns it piece by piece.
func (s *saver) image() ([][]byte, error) {
	ks := s.ks
	events, payload := 0, 8+8+8+8+4+8*len(ks.Seqs)+4
	for i := range s.jobs {
		j := &s.jobs[i]
		if j.err != nil {
			return nil, j.err
		}
		if i < s.runs {
			events += j.events
			payload += len(j.enc.buf)
		}
	}
	h := &s.head
	h.buf = append(h.buf[:0], magic[:]...)
	h.U16(Version)
	h.U64(s.t.ConfigHash)
	if _, err := h.section("kernel", payload); err != nil {
		return nil, err
	}
	h.U64(ks.Round)
	h.U64(ks.Events)
	h.Time(ks.Now)
	h.Time(ks.EndTime)
	h.U32(uint32(len(ks.Seqs)))
	for _, q := range ks.Seqs {
		h.U64(q)
	}
	h.U32(uint32(events))
	t := &s.tail
	t.buf = append(t.buf[:0], 3, 'e', 'n', 'd', 0, 0, 0, 0) // the end section

	s.pieces = append(s.pieces[:0], h.buf)
	for i := range s.jobs {
		s.pieces = append(s.pieces, s.jobs[i].enc.buf)
	}
	var sum uint32
	for _, p := range s.pieces {
		sum = crc32.Update(sum, castagnoli, p)
	}
	t.U32(crc32.Update(sum, castagnoli, t.buf))
	s.pieces = append(s.pieces, t.buf)
	return s.pieces, nil
}

func (s *saver) Commit() error {
	pieces, err := s.image()
	var n int64
	if err == nil {
		n, err = writeFile(s.path(s.ks.Round), pieces)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if s.probe != nil {
		s.rec = obs.RoundRecord{Round: s.ks.Round, LBTS: s.ks.Now, CkptBytes: uint64(n),
			CkptNS: time.Since(s.start).Nanoseconds()} //unison:wallclock-ok how long a snapshot holds the workers, for obs.RoundRecord.CkptNS
		s.probe.OnRound(&s.rec)
	}
	return nil
}

// Load reads path into the Target's layers and returns the kernel
// snapshot with every pending event's closure re-materialized.
func (t *Target) Load(path string) (*sim.KernelState, error) {
	f, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	return t.LoadFile(f)
}

// LoadFile is Load over an already parsed file.
func (t *Target) LoadFile(f *File) (*sim.KernelState, error) {
	if f.ConfigHash != t.ConfigHash {
		return nil, fmt.Errorf("ckpt: config hash mismatch (file %016x, scenario %016x) — the checkpoint was taken from a differently configured run", f.ConfigHash, t.ConfigHash)
	}
	for _, l := range t.Layers {
		payload, ok := f.Section(l.CkptName())
		if !ok {
			return nil, fmt.Errorf("ckpt: missing section %q", l.CkptName())
		}
		d := NewDec(payload)
		if err := l.CkptLoad(d); err != nil {
			return nil, fmt.Errorf("ckpt: loading %s: %w", l.CkptName(), err)
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("ckpt: loading %s: %w", l.CkptName(), d.Err())
		}
	}
	payload, ok := f.Section("kernel")
	if !ok {
		return nil, errors.New("ckpt: missing kernel section")
	}
	d := NewDec(payload)
	ks, err := t.decodeKernel(d)
	if err != nil {
		return nil, err
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("ckpt: loading kernel section: %w", d.Err())
	}
	return ks, nil
}

func (t *Target) decodeKernel(d *Dec) (*sim.KernelState, error) {
	ks := &sim.KernelState{
		Round:   d.U64(),
		Events:  d.U64(),
		Now:     d.Time(),
		EndTime: d.Time(),
	}
	nSeq := d.Count(8)
	ks.Seqs = make([]uint64, nSeq)
	for i := range ks.Seqs {
		ks.Seqs[i] = d.U64()
	}
	nEv := d.Count(8 + 4 + 8 + 4 + 2 + 4)
	ks.Queue = make([]sim.Event, 0, nEv)
	for i := 0; i < nEv; i++ {
		ev := sim.Event{
			Time: d.Time(),
			Src:  sim.NodeID(d.I32()),
			Seq:  d.U64(),
			Node: sim.NodeID(d.I32()),
		}
		kind := d.U16()
		payload := d.Blob()
		if d.Err() != nil {
			return nil, d.Err()
		}
		fn, desc, err := t.decodeEvent(kind, ev.Node, payload)
		if err != nil {
			return nil, fmt.Errorf("ckpt: pending event %d (t=%v node=%d kind=%#04x): %w", i, ev.Time, ev.Node, kind, err)
		}
		ev.Fn, ev.Desc = fn, desc
		ks.Queue = append(ks.Queue, ev)
	}
	return ks, nil
}

func (t *Target) decodeEvent(kind uint16, node sim.NodeID, payload []byte) (sim.Proc, sim.EvDesc, error) {
	for _, dec := range t.Decoders {
		pd := NewDec(payload)
		fn, desc, ok, err := dec.DecodeEvent(kind, node, pd)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		if pd.Err() != nil {
			return nil, nil, pd.Err()
		}
		return fn, desc, nil
	}
	return nil, nil, fmt.Errorf("no decoder for event kind %#04x", kind)
}

// NoDesc returns the error kernels and layers report when a pending
// event cannot be serialized: the feature that scheduled it (dynamic
// topology scripts, progress tickers, custom apps) does not support
// checkpointing.
func NoDesc(ev *sim.Event) error {
	return fmt.Errorf("ckpt: pending event at %v on node %d has no descriptor — a model feature that does not support checkpointing scheduled it", ev.Time, ev.Node)
}
