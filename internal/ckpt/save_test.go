package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"unison/internal/sim"
)

// The save path's contract: section guards that moved with the streaming
// encoder, a v1 file refused by version, bytes that do not depend on who ran
// which job, and a steady state that allocates nothing.

func TestSectionGuards(t *testing.T) {
	for _, name := range []string{"", strings.Repeat("n", 256)} {
		var e Enc
		if _, err := e.section(name, 0); err == nil || !strings.Contains(err.Error(), "bad section name") {
			t.Errorf("section name of %d bytes: err=%v, want it rejected", len(name), err)
		}
		tgt := &Target{Layers: []Checkpointer{&namedLayer{name: name}}}
		s := &saver{t: tgt}
		s.Start(&sim.KernelState{})
		s.Job(0, nil)
		if _, err := s.image(); err == nil || !strings.Contains(err.Error(), "bad section name") {
			t.Errorf("layer named with %d bytes: image err=%v, want the name rejected", len(name), err)
		}
	}
	var e Enc
	if _, err := e.section(strings.Repeat("n", 255), maxSection); err != nil {
		t.Errorf("255-byte name, payload of exactly maxSection: %v", err)
	}
	if _, err := e.section("kernel", maxSection+1); err == nil || !strings.Contains(err.Error(), `section "kernel" exceeds`) {
		t.Errorf("payload over maxSection: err=%v, want an error naming the section", err)
	}
	// A layer that outgrows maxSection is caught by the sizing pass of its
	// first save, before a gigabyte is allocated for it.
	c := Enc{counting: true}
	lenAt, err := c.section("flowmon", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.size += maxSection
	if err := c.endSection("flowmon", lenAt); err != nil {
		t.Errorf("section of exactly maxSection: %v", err)
	}
	c.U8(0)
	if err := c.endSection("flowmon", lenAt); err == nil || !strings.Contains(err.Error(), `section "flowmon" exceeds`) {
		t.Errorf("section one byte over maxSection: err=%v, want an error naming the layer", err)
	}
}

type namedLayer struct{ name string }

func (l *namedLayer) CkptName() string    { return l.name }
func (l *namedLayer) CkptSave(*Enc) error { return nil }
func (l *namedLayer) CkptLoad(*Dec) error { return nil }

func TestOlderVersionsRejected(t *testing.T) {
	for _, v := range []uint16{1, 2, 3, 4} {
		img := validImage(t)
		binary.LittleEndian.PutUint16(img[len(magic):], v)
		_, err := Parse(img)
		if want := fmt.Sprintf("ckpt: unsupported format version %d (this build reads 5)", v); err == nil || err.Error() != want {
			t.Fatalf("v%d header: err=%v, want %q", v, err, want)
		}
	}
}

func TestCountingEncMatchesBytes(t *testing.T) {
	var e Enc
	c := Enc{counting: true}
	for _, enc := range []*Enc{&e, &c} {
		lenAt, err := enc.section("layer", 0)
		if err != nil {
			t.Fatal(err)
		}
		enc.U8(1)
		enc.U16(2)
		enc.U32(3)
		enc.U64(4)
		enc.Bool(true)
		enc.F64(5)
		enc.event(&sim.Event{Time: 1, Desc: fuzzDesc{a: 6}})
		if err := enc.endSection("layer", lenAt); err != nil {
			t.Fatal(err)
		}
	}
	if c.size != len(e.Bytes()) {
		t.Fatalf("counting encoder counted %d bytes, the storing one appended %d", c.size, len(e.Bytes()))
	}
}

// bigState is a kernel with lists lists of perList events each.
func bigState(lists, perList int) *sim.KernelState {
	evs := make([][]sim.Event, lists)
	for i := range evs {
		for j := 0; j < perList; j++ {
			evs[i] = append(evs[i], sim.Event{Time: sim.Time(1000 + j), Src: sim.NodeID(i), Seq: uint64(j), Node: sim.NodeID(i), Desc: fuzzDesc{a: uint64(i*perList + j)}})
		}
	}
	return &sim.KernelState{
		Round: 9, Events: 99, Now: 1000, EndTime: 999, Seqs: make([]uint64, lists+1),
		FELs: lists,
		FEL:  func(i int, dst []sim.Event) []sim.Event { return append(dst, evs[i]...) },
	}
}

func bigTarget(words int) *Target {
	tgt := fuzzTarget()
	tgt.Layers = []Checkpointer{&fuzzLayer{vals: make([]uint64, words)}, &namedLayer{name: "empty"}}
	return tgt
}

func TestImageIndependentOfJobOrder(t *testing.T) {
	ks, tgt := bigState(3*felsPerJob+5, 7), bigTarget(1000)
	want := encodeImage(t, &saver{t: tgt}, ks)
	f, err := Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tgt.LoadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Queue) != ks.FELs*7 || got.Round != 9 || len(got.Seqs) != len(ks.Seqs) {
		t.Fatalf("restored %d events, round %d, %d counters", len(got.Queue), got.Round, len(got.Seqs))
	}

	// The same saver again, its jobs backwards and four at a time.
	s := &saver{t: tgt}
	for save := 0; save < 3; save++ {
		n := s.Start(ks)
		if n != 2+4 {
			t.Fatalf("%d jobs, want 2 layers + 4 runs of lists", n)
		}
		jobs := make(chan int, n) // sized to the sends: nobody blocks
		for i := n - 1; i >= 0; i-- {
			jobs <- i
		}
		close(jobs)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var scratch []sim.Event
				for i := range jobs {
					scratch = s.Job(i, scratch)
				}
			}()
		}
		wg.Wait()
		pieces, err := s.image()
		if err != nil {
			t.Fatal(err)
		}
		if img := bytes.Join(pieces, nil); !bytes.Equal(img, want) {
			t.Fatalf("save %d: image of %d bytes differs from the one encoded in job order (%d bytes)", save, len(img), len(want))
		}
	}
}

func TestMissingDescriptorFailsTheSave(t *testing.T) {
	ks := validState()
	ks.FEL = func(_ int, dst []sim.Event) []sim.Event { return append(dst, sim.Event{Time: 7, Node: 3}) }
	save := []sim.Pause{{New: fuzzTarget().Saver(func(uint64) string { t.Fatal("a failed save asked for a path"); return "" }, nil)}}
	err := sim.OpenPauses("des", save, 1, 0, ks.Seqs, ks.FELs, ks.FEL, nil).Pause(1, 1, 1, 7, 6)
	if err == nil || !strings.HasPrefix(err.Error(), "des: checkpoint: ckpt: pending event at") || !strings.Contains(err.Error(), "on node 3 has no descriptor") {
		t.Fatalf("err=%v, want the kernel-prefixed NoDesc error", err)
	}
}

// TestSteadyStateAllocatesNothing: from a run's second save on, encoding
// and framing reuse the saver's buffers (the temp file's syscalls, which
// Commit adds, are not in the loop).
func TestSteadyStateAllocatesNothing(t *testing.T) {
	ks, tgt := bigState(2*felsPerJob, 50), bigTarget(10_000)
	s := &saver{t: tgt}
	var scratch []sim.Event
	save := func() {
		for i, n := 0, s.Start(ks); i < n; i++ {
			scratch = s.Job(i, scratch)
		}
		if _, err := s.image(); err != nil {
			t.Fatal(err)
		}
	}
	save()
	if allocs := testing.AllocsPerRun(10, save); allocs != 0 {
		t.Fatalf("a steady-state save allocates %v times, want 0", allocs)
	}
}

// TestFirstSaveIsSized: a run's first save counts and then allocates each
// buffer once, so it allocates little more than the image and costs less
// than twice a later save (growing the buffers from empty allocated five
// images and cost seven saves).
func TestFirstSaveIsSized(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.uckpt")
	ks, tgt := bigState(4*felsPerJob, 200), bigTarget(500_000) // ≈ 6 MB
	pauses := []sim.Pause{{New: tgt.Saver(func(uint64) string { return path }, nil)}}
	open := func() *sim.PauseRun { return sim.OpenPauses("test", pauses, 0, 0, ks.Seqs, ks.FELs, ks.FEL, nil) }
	save := func(run *sim.PauseRun) time.Duration {
		start := time.Now()
		if err := run.Pause(9, 9, 99, 1000, 999); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	save(open())
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(path)
	if err != nil || fi.Size() < 5<<20 {
		t.Fatalf("snapshot: %v, %v", fi, err)
	}
	if got, image := int64(after.TotalAlloc-before.TotalAlloc), fi.Size(); got > image+image/4 {
		t.Fatalf("a run's first save allocated %d bytes for an image of %d", got, image)
	}

	// Wall time against a disk and the other packages' tests: the best of
	// five, and three tries at it.
	var first, steady time.Duration
	for try := 0; try < 3; try++ {
		first, steady = time.Hour, time.Hour
		for trial := 0; trial < 5; trial++ {
			run := open()
			first = min(first, save(run))
			steady = min(steady, save(run), save(run))
		}
		t.Logf("first save %v, steady %v", first, steady)
		if first <= 2*steady {
			return
		}
	}
	t.Fatalf("a run's first save took %v, over twice a steady-state save's %v", first, steady)
}
