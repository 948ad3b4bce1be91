package unison_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unison"
	"unison/internal/obs/live"
	"unison/internal/sim"
)

// This file is the live-telemetry acceptance test: attaching a streaming
// monitor to a run must not perturb it. For every kernel kind, the
// deterministic artifact files produced with a live session attached are
// byte-identical to an unattached run, and the final snapshot a watcher
// fetches is field-for-field the run_stats.json on disk.

// liveDeterministicFiles is the bundle subset that is a pure function of
// the seeded scenario. run_stats.json and meta.json are excluded: they
// carry wall-clock times and (on probed runs) the imbalance/drops
// diagnostics, which is exactly the delta the bus is allowed to add.
var liveDeterministicFiles = []string{"series.csv", "trace.pcapng", "flow_report.json"}

func liveTestScenario(kernel unison.KernelSpec) *unison.Scenario {
	sc := unison.DefaultScenario()
	sc.Name = "live-equivalence-" + kernel.Kind
	sc.Kernel = kernel
	return sc
}

// liveRun executes the scenario once, optionally with a live session
// attached, writes the artifact bundle, and returns the bundle dir plus
// (for attached runs) the final snapshot fetched over HTTP.
func liveRun(t *testing.T, kernel unison.KernelSpec, attach bool) (string, *live.Snapshot) {
	t.Helper()
	sc := liveTestScenario(kernel)
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, sampler := b.Sim.EnableNetObs(0, 0)

	var sess *live.Session
	if attach {
		sess, err = live.StartSession("livetest", sc.Stop.T(), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Observe = sess.Probe()
		if kernel.Kind == "sequential" {
			b.Progress = 10_000
		}
	}

	st, err := b.RunKernel(b.Sim.Model())
	if err != nil {
		t.Fatalf("%s: %v", kernel.Kind, err)
	}
	if sess != nil {
		sampler.Flush()
		sess.State.SetQueueInterval(sampler.Interval())
		sess.State.IngestRows(sampler.LiveDelta())
		sess.Finish(st)
	}

	dir := t.TempDir()
	if _, err := b.Bundle("livetest", st, sampler, nil).Write(dir); err != nil {
		t.Fatal(err)
	}

	var snap *live.Snapshot
	if sess != nil {
		// Mirror Session.Close's ordering without tearing the server down:
		// Done is published only now that the bundle is on disk, then a
		// watcher fetches the final frame.
		sess.State.Finalize(st)
		snap, err = live.Fetch(context.Background(), sess.Server.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sess.SetLinger(0)
		sess.Close()
	}
	return dir, snap
}

func compareBundleFiles(t *testing.T, name, dirA, dirB string) {
	t.Helper()
	for _, f := range liveDeterministicFiles {
		a, errA := os.ReadFile(filepath.Join(dirA, f))
		bb, errB := os.ReadFile(filepath.Join(dirB, f))
		if errA != nil || errB != nil {
			t.Errorf("%s: reading %s: %v / %v", name, f, errA, errB)
			continue
		}
		if !bytes.Equal(a, bb) {
			t.Errorf("%s: %s differs between unattached (%dB) and live-attached (%dB) runs",
				name, f, len(a), len(bb))
		}
	}
}

// TestLiveAttachDoesNotPerturbArtifacts is the bit-identity criterion:
// the same scenario with and without a live telemetry session attached
// yields byte-identical deterministic artifacts under every kernel.
func TestLiveAttachDoesNotPerturbArtifacts(t *testing.T) {
	kernels := []unison.KernelSpec{
		{Kind: "sequential"},
		{Kind: "unison", Threads: 4},
		{Kind: "hybrid", Threads: 2},
		{Kind: "barrier"},
		{Kind: "nullmsg"},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.Kind, func(t *testing.T) {
			plain, _ := liveRun(t, k, false)
			attached, snap := liveRun(t, k, true)
			compareBundleFiles(t, k.Kind, plain, attached)

			// The watcher's final snapshot must agree field-for-field with
			// the run_stats.json written next to it.
			if snap == nil || !snap.Done || snap.Final == nil {
				t.Fatalf("no final snapshot: %+v", snap)
			}
			raw, err := os.ReadFile(filepath.Join(attached, "run_stats.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want sim.RunStats
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&want, snap.Final) {
				t.Errorf("%s: final snapshot != run_stats.json\n snap: %+v\n file: %+v",
					k.Kind, snap.Final, &want)
			}
			// A probed parallel run must actually carry the diagnostics the
			// tentpole adds (the sequential kernel has one worker, so the
			// imbalance summary degenerates but still exists).
			if snap.Final.Imbalance == nil {
				t.Errorf("%s: probed run has no imbalance diagnostics", k.Kind)
			}
		})
	}
}
