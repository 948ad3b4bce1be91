package unison_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/topology"
)

// The round engine encodes a snapshot on every worker it has parked, each
// claiming whichever job is next (DESIGN.md §5.1, §11). These tests pin what
// that may not change: the file, and what outlives the run.

// TestSnapshotBytesIndependentOfWorkers runs one scenario under Unison with
// 1, 2 and 4 threads and under the hybrid kernel with two one-thread hosts —
// the same partition, so the same rounds — and requires the snapshot files
// of every round to be byte-identical across the four, and each to restore
// to the uninterrupted run's artifacts. Under -race it is also the check
// that no two layers' CkptSave share state: nothing else runs them at once.
func TestSnapshotBytesIndependentOfWorkers(t *testing.T) {
	base := ckptRunArtifacts(t, des.New(), "", 0, 0, "")
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	kernels := []sim.Kernel{
		core.New(core.Config{Threads: 1}),
		core.New(core.Config{Threads: 2}),
		core.New(core.Config{Threads: 4}),
		core.NewHybrid(core.HybridConfig{HostOf: pdes.FatTreeManual(ft, 2), ThreadsPerHost: 1}),
	}
	var files []string // the first kernel's
	var images [][]byte
	for _, k := range kernels {
		dir := t.TempDir()
		got := ckptRunArtifacts(t, k, dir, 150, 0, "")
		compareArtifacts(t, k.Name()+" (checkpointing run)", got, base)
		mine := ckptFiles(t, dir)
		if files == nil {
			if files = mine; len(files) < 2 {
				t.Fatalf("%s: %d snapshots, want several", k.Name(), len(files))
			}
		}
		if len(mine) != len(files) {
			t.Fatalf("%s wrote %d snapshots, %s wrote %d", k.Name(), len(mine), kernels[0].Name(), len(files))
		}
		for i, f := range mine {
			img, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(images) == i {
				images = append(images, img)
			}
			if filepath.Base(f) != filepath.Base(files[i]) || !bytes.Equal(img, images[i]) {
				t.Errorf("%s: %s (%d bytes) differs from %s's %s (%d bytes)",
					k.Name(), filepath.Base(f), len(img), kernels[0].Name(), filepath.Base(files[i]), len(images[i]))
			}
		}
	}
	// Identical files restore identically: each once, the kernels in turn.
	for i, f := range files {
		k := kernels[i%len(kernels)]
		restored := ckptRunArtifacts(t, k, "", 0, 0, f)
		compareArtifacts(t, k.Name()+" restored from "+filepath.Base(f), restored, base)
	}
}

// TestSaveBuffersDieWithTheRun: the buffers a run's snapshots are encoded
// into belong to the run. With the model — and through its hook the target
// and every layer — still referenced after Run, the heap may hold no more
// than it does after the same run without checkpoints, give or take far
// less than one snapshot image.
func TestSaveBuffersDieWithTheRun(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// live is how much the heap grew over building and running the scenario,
	// measured with the simulation and its model still held.
	live := func(dir string) int64 {
		before := heap()
		s := ckptScenario(t)
		m := s.Model()
		if dir != "" {
			app.EnableCheckpoints(m, s.CkptTarget(), dir, 100, 0, nil)
		}
		if _, err := core.New(core.Config{Threads: 2}).Run(m); err != nil {
			t.Fatal(err)
		}
		after := heap()
		runtime.KeepAlive(s)
		runtime.KeepAlive(m)
		return int64(after) - int64(before)
	}
	live("") // what a first run leaves in pools and caches is in neither reading
	plain := live("")
	dir := t.TempDir()
	saved := live(dir)
	files := ckptFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no snapshot written")
	}
	fi, err := os.Stat(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	image := fi.Size()
	t.Logf("live heap grew %d B over a plain run and %d B over one that wrote %d snapshots; the last image is %d B", plain, saved, len(files), image)
	if saved-plain > image/4 {
		t.Fatalf("a checkpointing run left %d B more on the heap than a plain one: a quarter of a %d B image or more outlived it", saved-plain, image)
	}
}

// TestSnapshotHoldsOnlyEventsWithWork: what a snapshot has to sort, encode
// and write is mostly the pending events, and an event that will pop and do
// nothing is as large as one that will not. On this scenario the parent of
// PR 20 (a retransmission timer event per segment, a txDone per frame) held
// 371 pending events per snapshot on average, 488 at most, in files of
// 231 007 bytes on average (the trace and flow monitor sections are most of
// a file this small); today it is 92, 108 and 222 971. The counts are exact,
// so the bounds are today's plus a few percent.
func TestSnapshotHoldsOnlyEventsWithWork(t *testing.T) {
	s := ckptScenario(t)
	m := s.Model()
	dir := t.TempDir()
	app.EnableCheckpoints(m, s.CkptTarget(), dir, 100, 0, nil)
	var snaps, pending, peak, size int64
	var buf []sim.Event
	m.Ckpt.Saved = func(ks *sim.KernelState, _, bytes int64) {
		n := int64(0)
		for i := 0; i < ks.FELs; i++ {
			buf = ks.FEL(i, buf[:0])
			n += int64(len(buf))
		}
		snaps, pending, peak, size = snaps+1, pending+n, max(peak, n), size+bytes
	}
	if _, err := core.New(core.Config{Threads: 2}).Run(m); err != nil {
		t.Fatal(err)
	}
	if snaps < 5 {
		t.Fatalf("%d snapshots, want several", snaps)
	}
	t.Logf("%d snapshots: %d pending events on average, %d at most, %d bytes on average", snaps, pending/snaps, peak, size/snaps)
	if mean := pending / snaps; mean > 100 || peak > 115 {
		t.Errorf("pending events per snapshot: %d on average, %d at most; budget 100 and 115", mean, peak)
	}
	if mean := size / snaps; mean > 227_500 {
		t.Errorf("snapshot files are %d bytes on average, budget 227 500", mean)
	}
}
