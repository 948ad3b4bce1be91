package ckpt

import (
	"bytes"
	"testing"

	"unison/internal/sim"
)

// The decoder's contract is that arbitrary bytes — truncated files,
// bit-flipped files, adversarial length fields — produce a descriptive
// error, never a panic and never an unbounded allocation. FuzzParse pins
// that under go test -fuzz; TestParseTruncated and TestParseGarbled pin a
// systematic subset on every ordinary test run.

// fuzzLayer is a minimal Checkpointer exercising Count/U64 round-trips.
type fuzzLayer struct{ vals []uint64 }

func (l *fuzzLayer) CkptName() string { return "fuzz-layer" }

func (l *fuzzLayer) CkptSave(e *Enc) error {
	e.U32(uint32(len(l.vals)))
	for _, v := range l.vals {
		e.U64(v)
	}
	return nil
}

func (l *fuzzLayer) CkptLoad(d *Dec) error {
	n := d.Count(8)
	l.vals = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		l.vals = append(l.vals, d.U64())
	}
	return d.Err()
}

// fuzzDesc is a minimal pending-event descriptor.
type fuzzDesc struct{ a uint64 }

func (f fuzzDesc) CkptKind() uint16 { return 0x7f01 }

func (f fuzzDesc) CkptEncode(buf []byte) []byte {
	e := AppendEnc(buf)
	e.U64(f.a)
	return e.Bytes()
}

type fuzzDecoder struct{}

func (fuzzDecoder) DecodeEvent(kind uint16, _ sim.NodeID, d *Dec) (sim.Proc, sim.EvDesc, bool, error) {
	if kind != 0x7f01 {
		return nil, nil, false, nil
	}
	a := d.U64()
	return func(*sim.Ctx) {}, fuzzDesc{a}, true, nil
}

func fuzzTarget() *Target {
	return &Target{
		ConfigHash: 0xfeedface,
		Layers:     []Checkpointer{&fuzzLayer{}},
		Decoders:   []EventDecoder{fuzzDecoder{}},
	}
}

// validState is the kernel's side of validImage: two pending events in one
// list.
func validState() *sim.KernelState {
	return &sim.KernelState{
		Round: 3, Events: 1234, Now: 500, EndTime: 499,
		Seqs: []uint64{7, 8, 9},
		FELs: 1,
		FEL: func(_ int, dst []sim.Event) []sim.Event {
			return append(dst,
				sim.Event{Time: 510, Src: 1, Seq: 4, Node: 2, Desc: fuzzDesc{a: 42}},
				sim.Event{Time: 520, Src: 0, Seq: 5, Node: 0, Desc: fuzzDesc{a: 43}})
		},
	}
}

// encodeImage runs one save of ks through s, job by job, and returns the
// framed image in one piece.
func encodeImage(t testing.TB, s *saver, ks *sim.KernelState) []byte {
	t.Helper()
	var scratch []sim.Event
	for i, n := 0, s.Start(ks); i < n; i++ {
		scratch = s.Job(i, scratch)
	}
	pieces, err := s.image()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(pieces, nil)
}

// validImage builds a well-formed checkpoint image entirely in memory,
// through the encoder every kernel saves with.
func validImage(t testing.TB) []byte {
	t.Helper()
	tgt := fuzzTarget()
	tgt.Layers[0].(*fuzzLayer).vals = []uint64{1, 2, 3}
	return encodeImage(t, &saver{t: tgt}, validState())
}

func TestValidImageRoundTrips(t *testing.T) {
	img := validImage(t)
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := fuzzTarget().LoadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Round != 3 || ks.Events != 1234 || len(ks.Seqs) != 3 || len(ks.Queue) != 2 {
		t.Fatalf("decoded kernel state mangled: %+v", ks)
	}
	if ks.Queue[0].Fn == nil || ks.Queue[0].Desc.(fuzzDesc).a != 42 {
		t.Fatalf("descriptor not re-materialized: %+v", ks.Queue[0])
	}
}

// TestParseTruncated feeds every prefix of a valid image to the parser:
// all but the full image must error, and none may panic.
func TestParseTruncated(t *testing.T) {
	img := validImage(t)
	for n := 0; n < len(img); n++ {
		if _, err := Parse(img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes parsed without error", n, len(img))
		}
	}
	if _, err := Parse(img); err != nil {
		t.Fatalf("full image failed to parse: %v", err)
	}
}

// TestParseGarbled flips one byte at a time. The checksum catches every
// single-byte corruption at Parse time, so each must error cleanly.
func TestParseGarbled(t *testing.T) {
	img := validImage(t)
	buf := make([]byte, len(img))
	for i := range img {
		copy(buf, img)
		buf[i] ^= 0x5a
		f, err := Parse(buf)
		if err != nil {
			continue
		}
		// A corrupted image that still parses (it cannot, with the
		// checksum, but keep the invariant honest) must still fail or
		// succeed cleanly through the full decode.
		_, _ = fuzzTarget().LoadFile(f)
		t.Fatalf("byte %d: corruption survived the checksum", i)
	}
}

// FuzzParse drives arbitrary bytes through the full parse + decode path.
// Any input may error; none may panic or over-allocate.
func FuzzParse(f *testing.F) {
	img := validImage(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte("UCKPT"))
	f.Add([]byte{})
	// A header claiming an enormous section length: the decoder must
	// reject it before allocating.
	huge := append([]byte{}, img[:15]...)
	huge = append(huge, 6, 'k', 'e', 'r', 'n', 'e', 'l', 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		// Bypass the config-hash guard so fuzzing reaches the section
		// decoders, which must be equally panic-free.
		tgt := fuzzTarget()
		tgt.ConfigHash = file.ConfigHash
		_, _ = tgt.LoadFile(file)
	})
}

// FuzzDec drives the primitive decoder directly: a read loop over
// arbitrary bytes must terminate with a sticky error, never panic.
func FuzzDec(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(validImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		for d.Err() == nil && d.Len() > 0 {
			d.U8()
			d.U16()
			d.U32()
			d.U64()
			d.Time()
			d.Bool()
			d.F64()
			d.Blob()
			d.Summary()
			if n := d.Count(4); n > d.Len() {
				break
			}
		}
	})
}
