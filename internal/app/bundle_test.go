package app

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/obs/live"
	"unison/internal/sim"
)

// bundleOpts is what a bundled run does besides running: probe observes
// beside the stream; every > 0 snapshots into ckpt every that many rounds,
// from > 0 resumes from ckpt's snapshot of that round.
type bundleOpts struct {
	probe       obs.Probe
	ckpt        string
	every, from uint64
}

// writeBundle runs sc as unisim does with artifacts.dir=dir: the record
// stream observes the run and the sampler's feed writes its rows into it
// at the kernel's pauses, ahead of the snapshots. Once the run is over the
// feed's last rows go in, every line reaches disk, the bundle is written
// from it, and the stats line comes last.
func writeBundle(t *testing.T, sc *Scenario, dir string, o bundleOpts) *sim.RunStats {
	t.Helper()
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, sampler := b.Sim.EnableNetObs(sc.Artifacts.Interval.T(), 0)
	stream, err := live.Create(filepath.Join(dir, netobs.RecordsFile), "test", sc.Stop.T(), sampler.Interval())
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	b.Observe = obs.Tee(stream, o.probe)
	m := b.Sim.Model()
	feed, finish := sampler.Feed(stream.Rows)
	m.Pauses = append(m.Pauses, feed)
	if o.every > 0 {
		EnableCheckpoints(m, b.Sim.CkptTarget(), o.ckpt, o.every, 0, b.Observe)
	}
	if o.from > 0 {
		if err := Restore(m, b.Sim.CkptTarget(), CheckpointPath(o.ckpt, o.from)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.RunKernel(m)
	if err != nil {
		t.Fatal(err)
	}
	finish()
	if err = stream.Flush(); err == nil {
		_, err = b.Bundle("test", st).Write(dir)
	}
	if err == nil {
		err = stream.Finish(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// kernelEvents returns the kernel-lane events of the Perfetto trace in
// dir, each as its JSON encoding.
func kernelEvents(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "trace.perfetto.json"))
	if err != nil {
		t.Fatal(err)
	}
	return kernelLanes(t, raw)
}

// kernelLanes picks the events on obs.KernelPid out of a trace file.
func kernelLanes(t *testing.T, raw []byte) []string {
	t.Helper()
	var trace struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range trace.TraceEvents {
		var head struct{ Pid int }
		if err := json.Unmarshal(ev, &head); err != nil {
			t.Fatal(err)
		}
		if head.Pid == obs.KernelPid {
			out = append(out, string(ev))
		}
	}
	return out
}

// TestBundleRenderedFromStream: a bundle's series.csv and Perfetto kernel
// lanes are rendered from its records.ndjson. A run longer than a
// Registry's ring keeps its first rounds; on a short run the lanes are the
// ones a Registry teed beside the stream renders; and a run restored in
// process writes the uninterrupted run's series.csv, its feed having
// resent the restored sampler's rows.
func TestBundleRenderedFromStream(t *testing.T) {
	sc := DefaultScenario()
	sc.Topology.Delay = Duration(500 * sim.Nanosecond) // short windows: many rounds
	sc.Kernel = KernelSpec{Kind: "unison", Threads: 2}

	t.Run("long", func(t *testing.T) {
		long := *sc
		long.Stop = Duration(6 * sim.Millisecond)
		dir := t.TempDir()
		if st := writeBundle(t, &long, dir, bundleOpts{}); st.Rounds <= obs.DefaultRingCapacity {
			t.Fatalf("%d rounds; the run must outlast a Registry's ring of %d", st.Rounds, obs.DefaultRingCapacity)
		}
		lanes := map[int]bool{}
		for _, ev := range kernelEvents(t, dir) {
			var e struct {
				Name string
				Tid  int
				Args struct{ Round *uint64 }
			}
			if err := json.Unmarshal([]byte(ev), &e); err != nil {
				t.Fatal(err)
			}
			if e.Name == "process" && e.Args.Round != nil && *e.Args.Round == 0 {
				lanes[e.Tid] = true
			}
		}
		if len(lanes) == 0 {
			t.Fatal("trace.perfetto.json has no lane of round 0: the trace lost the run's start")
		}
	})

	t.Run("registry", func(t *testing.T) {
		short := *sc
		short.Stop = Duration(500 * sim.Microsecond)
		dir := t.TempDir()
		reg := obs.NewRegistry(0)
		writeBundle(t, &short, dir, bundleOpts{probe: reg})
		var want bytes.Buffer
		if err := obs.WriteTraceJSON(&want, obs.Events(reg.Meta(), reg.Records())); err != nil {
			t.Fatal(err)
		}
		got, ref := kernelEvents(t, dir), kernelLanes(t, want.Bytes())
		if len(got) != len(ref) || len(ref) < 2 {
			t.Fatalf("%d kernel events from the stream, %d from the Registry", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("kernel event %d from the stream:\n %s\nfrom the Registry:\n %s", i, got[i], ref[i])
			}
		}
	})

	t.Run("restore", func(t *testing.T) {
		short := *sc
		short.Stop = Duration(500 * sim.Microsecond)
		ckpt, whole, restored := t.TempDir(), t.TempDir(), t.TempDir()
		st := writeBundle(t, &short, whole, bundleOpts{ckpt: ckpt, every: 100})
		from := st.Rounds / 200 * 100 // a snapshot near the middle
		if from == 0 {
			t.Fatalf("%d rounds: no snapshot to restore", st.Rounds)
		}
		writeBundle(t, &short, restored, bundleOpts{ckpt: ckpt, from: from})
		want, err := os.ReadFile(filepath.Join(whole, "series.csv"))
		if err != nil || len(want) == 0 {
			t.Fatalf("the uninterrupted run's series.csv: %d B (%v)", len(want), err)
		}
		if got, err := os.ReadFile(filepath.Join(restored, "series.csv")); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("restored from round %d: series.csv has %d B, the uninterrupted run's %d B (%v)", from, len(got), len(want), err)
		}
	})
}
