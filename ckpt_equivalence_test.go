package unison_test

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/netdev"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// This file is the checkpoint/restore acceptance test: a run killed at a
// round barrier and restored from its snapshot must produce artifacts
// byte-identical to the uninterrupted run — for every kernel, from every
// snapshot the run wrote.

const (
	ckptSeed = 42
	ckptStop = 2 * sim.Millisecond
)

// ckptScenario builds the deterministic k=4 fat-tree scenario with the
// full observability stack attached. Every call is bit-identical: that is
// what lets a restore rebuild the static state and overlay the snapshot.
func ckptScenario(t *testing.T) *app.Sim {
	t.Helper()
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	flows := traffic.Generate(traffic.Config{
		Seed: ckptSeed, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: ckptStop / 2,
	})
	s := app.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, ckptSeed), app.Config{
		Seed:   ckptSeed,
		NetCfg: netdev.DefaultConfig(ckptSeed),
		TCPCfg: tcp.DefaultConfig(),
		StopAt: ckptStop,
		Flows:  flows,
	})
	s.EnableNetObs(0, 0)
	return s
}

// ckptRunArtifacts executes the scenario under k (optionally writing
// checkpoints into dir) and renders the artifact bundle.
func ckptRunArtifacts(t *testing.T, k sim.Kernel, dir string, every uint64, everyTime sim.Time, restoreFrom string) obsArtifacts {
	t.Helper()
	s := ckptScenario(t)
	m := s.Model()
	tgt := s.CkptTarget()
	if dir != "" {
		app.EnableCheckpoints(m, tgt, dir, every, everyTime, nil)
	}
	if restoreFrom != "" {
		if err := app.Restore(m, tgt, restoreFrom); err != nil {
			t.Fatalf("%s: restore %s: %v", k.Name(), restoreFrom, err)
		}
	}
	if _, err := k.Run(m); err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	sampler := s.Net.Sampler()
	sampler.Flush()
	return renderArtifacts(t, sampler.Rows(), sampler.Interval(), s.Net.Tracer.Merged(), s.Mon)
}

func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".uckpt" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	return files
}

// TestCheckpointRestoreRoundTrip checkpoints a short run under every
// kernel, restores each snapshot into a freshly built scenario, and
// asserts the finished artifacts are byte-identical to the uninterrupted
// run. It also asserts checkpointing itself never perturbs the run.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	base := ckptRunArtifacts(t, des.New(), "", 0, 0, "")
	if base.fp == 0 {
		t.Fatal("degenerate baseline fingerprint")
	}

	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	lpOf := pdes.FatTreeManual(ft, 2)

	cases := []struct {
		kernel    sim.Kernel
		every     uint64   // round cadence (0 = use everyTime)
		everyTime sim.Time // epoch cadence for null-message
	}{
		{des.New(), 1_000, 0}, // sequential: every N executed events
		{core.New(core.Config{Threads: 2}), 100, 0},
		{core.New(core.Config{Threads: 4}), 100, 0},
		{core.NewHybrid(core.HybridConfig{HostOf: lpOf, ThreadsPerHost: 2}), 100, 0},
		{&pdes.BarrierKernel{LPOf: lpOf}, 100, 0},
		{&pdes.NullMessageKernel{LPOf: lpOf}, 0, 400 * sim.Microsecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kernel.Name(), func(t *testing.T) {
			dir := t.TempDir()
			got := ckptRunArtifacts(t, tc.kernel, dir, tc.every, tc.everyTime, "")
			compareArtifacts(t, tc.kernel.Name()+" (checkpointing run)", got, base)

			files := ckptFiles(t, dir)
			if len(files) == 0 {
				t.Fatalf("%s: run wrote no checkpoints", tc.kernel.Name())
			}
			t.Logf("%s: %d checkpoints", tc.kernel.Name(), len(files))
			for _, f := range files {
				restored := ckptRunArtifacts(t, tc.kernel, "", 0, 0, f)
				compareArtifacts(t, tc.kernel.Name()+" restored from "+filepath.Base(f), restored, base)
			}
		})
	}
}

// TestCheckpointRestoreRoundTripReservedIdentities: a restored run must
// redeem the identities the checkpointing run had reserved and not yet
// used. It restores from snapshots caught in the two states where those
// exist only as layer state, not as pending events — a transmitter
// mid-frame with no drain in the FEL (the first packet to arrive before the
// frame ends will put it, as (node, txSeq)), and a connection timer whose
// event pops short of its deadline (and will put itself again as (node,
// seq)) — and requires the uninterrupted run's artifacts. The states are
// read off the restored layers by field name: neither has an exported
// face, and should not grow one for a test.
func TestCheckpointRestoreRoundTripReservedIdentities(t *testing.T) {
	base := ckptRunArtifacts(t, des.New(), "", 0, 0, "")
	for _, tc := range []struct {
		kernel sim.Kernel
		every  uint64
	}{
		{des.New(), 1_000},
		{core.New(core.Config{Threads: 2}), 40},
	} {
		dir := t.TempDir()
		ckptRunArtifacts(t, tc.kernel, dir, tc.every, 0, "")
		caught := 0
		for _, f := range ckptFiles(t, dir) {
			s := ckptScenario(t)
			m := s.Model()
			if err := app.Restore(m, s.CkptTarget(), f); err != nil {
				t.Fatal(err)
			}
			now := int64(m.Ckpt.Restore.Now)
			owed, short := 0, 0
			s.Net.Devices(func(d *netdev.Device) {
				v := reflect.ValueOf(d).Elem()
				if v.FieldByName("freeAt").Int() > now && !v.FieldByName("busy").Bool() {
					owed++
				}
			})
			hosts := reflect.ValueOf(s.Stack).Elem().FieldByName("hosts")
			for h := 0; h < hosts.Len(); h++ {
				chunks := hosts.Index(h).FieldByName("arena").FieldByName("chunks")
				for c := 0; c < chunks.Len(); c++ {
					for i := 0; i < chunks.Index(c).Len(); i++ {
						tm := chunks.Index(c).Index(i).FieldByName("timer")
						if p := tm.FieldByName("pendAt").Int(); p != 0 && p < tm.FieldByName("deadline").Int() {
							short++
						}
					}
				}
			}
			if owed == 0 || short == 0 {
				continue
			}
			caught++
			restored := ckptRunArtifacts(t, tc.kernel, "", 0, 0, f)
			compareArtifacts(t, tc.kernel.Name()+" restored from "+filepath.Base(f)+" (drains owed, timers short of their deadline)", restored, base)
		}
		t.Logf("%s: %d snapshots caught both states", tc.kernel.Name(), caught)
		if caught < 2 {
			t.Errorf("%s: %d snapshots caught a drain owed and a timer short of its deadline, want several", tc.kernel.Name(), caught)
		}
	}
}

// TestCheckpointCrossKernelRestore pins snapshot portability: because
// every kernel executes the same deterministic total order, a snapshot
// written by one kernel must resume under any other and still converge to
// the uninterrupted artifacts.
func TestCheckpointCrossKernelRestore(t *testing.T) {
	base := ckptRunArtifacts(t, des.New(), "", 0, 0, "")

	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	lpOf := pdes.FatTreeManual(ft, 2)

	dir := t.TempDir()
	ckptRunArtifacts(t, &pdes.NullMessageKernel{LPOf: lpOf}, dir, 0, 400*sim.Microsecond, "")
	files := ckptFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("want >=2 checkpoints, got %d", len(files))
	}
	mid := files[len(files)/2]

	for _, k := range []sim.Kernel{
		des.New(),
		core.New(core.Config{Threads: 2}),
		core.NewHybrid(core.HybridConfig{HostOf: lpOf, ThreadsPerHost: 2}),
		&pdes.BarrierKernel{LPOf: lpOf},
	} {
		restored := ckptRunArtifacts(t, k, "", 0, 0, mid)
		compareArtifacts(t, k.Name()+" resuming a nullmsg snapshot", restored, base)
	}
}

// TestRestoreRejectsMismatchedConfig pins the config-hash guard: a
// snapshot from one scenario must not load into a differently built one.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	ckptRunArtifacts(t, des.New(), dir, 1_000, 0, "")
	files := ckptFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no checkpoints written")
	}

	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	other := app.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, ckptSeed), app.Config{
		Seed:   ckptSeed + 1, // different workload seed
		NetCfg: netdev.DefaultConfig(ckptSeed + 1),
		TCPCfg: tcp.DefaultConfig(),
		StopAt: ckptStop,
		Flows: traffic.Generate(traffic.Config{
			Seed: ckptSeed + 1, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
			BisectionBps: ft.BisectionBandwidth(), Start: 0, End: ckptStop / 2,
		}),
	})
	other.EnableNetObs(0, 0)
	m := other.Model()
	if err := app.Restore(m, other.CkptTarget(), files[0]); err == nil {
		t.Fatal("restore into a differently configured scenario succeeded; want config hash mismatch")
	}
}
