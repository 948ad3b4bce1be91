package unison_test

import (
	"reflect"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/vtime"
)

// bigRing is large enough that no round record is ever overwritten in
// these scenarios, so totals can be checked against RunStats exactly.
const bigRing = 1 << 16

// TestProbedRunsBitIdentical pins the observability layer's core
// guarantee: attaching a Registry changes nothing about the simulation.
// Every kernel must produce the same fingerprint and event count probed
// as unprobed, and the captured records must account for every event.
func TestProbedRunsBitIdentical(t *testing.T) {
	const seed = 42
	const stop = 2 * sim.Millisecond
	_, ft := buildFatTreeScenario(seed, 0.2, stop)
	manual := pdes.FatTreeManual(ft, 4)

	cases := []struct {
		name     string
		plain    func() sim.Kernel
		probed   func(reg *obs.Registry) sim.Kernel
		perRound bool // emits one record per round (vs one summary record)
	}{
		{
			name:  "sequential",
			plain: func() sim.Kernel { return des.New() },
			probed: func(reg *obs.Registry) sim.Kernel {
				k := des.New()
				k.Observe = reg
				return k
			},
		},
		{
			name:  "unison-4",
			plain: func() sim.Kernel { return core.New(core.Config{Threads: 4}) },
			probed: func(reg *obs.Registry) sim.Kernel {
				return core.New(core.Config{Threads: 4, Observe: reg})
			},
			perRound: true,
		},
		{
			name: "hybrid-2x2",
			plain: func() sim.Kernel {
				return core.NewHybrid(core.HybridConfig{HostOf: pdes.FatTreeManual(ft, 2), ThreadsPerHost: 2})
			},
			probed: func(reg *obs.Registry) sim.Kernel {
				return core.NewHybrid(core.HybridConfig{HostOf: pdes.FatTreeManual(ft, 2), ThreadsPerHost: 2, Observe: reg})
			},
			perRound: true,
		},
		{
			name:  "barrier",
			plain: func() sim.Kernel { return &pdes.BarrierKernel{LPOf: manual} },
			probed: func(reg *obs.Registry) sim.Kernel {
				return &pdes.BarrierKernel{LPOf: manual, Observe: reg}
			},
			perRound: true,
		},
		{
			name:  "nullmsg",
			plain: func() sim.Kernel { return &pdes.NullMessageKernel{LPOf: manual} },
			probed: func(reg *obs.Registry) sim.Kernel {
				return &pdes.NullMessageKernel{LPOf: manual, Observe: reg}
			},
			perRound: true,
		},
		{
			name:  "v-unison",
			plain: func() sim.Kernel { return vtimeKernel{vtime.Config{Algo: vtime.Unison, Cores: 4}} },
			probed: func(reg *obs.Registry) sim.Kernel {
				return vtimeKernel{vtime.Config{Algo: vtime.Unison, Cores: 4, Observe: reg}}
			},
			perRound: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := runKernel(t, tc.plain(), seed, 0.2, stop)
			reg := obs.NewRegistry(bigRing)
			probed := runKernel(t, tc.probed(reg), seed, 0.2, stop)

			if probed.fp != plain.fp {
				t.Errorf("probed fingerprint %x != unprobed %x", probed.fp, plain.fp)
			}
			if probed.events != plain.events {
				t.Errorf("probed events %d != unprobed %d", probed.events, plain.events)
			}

			recs := reg.Records()
			if len(recs) == 0 {
				t.Fatal("registry captured no records")
			}
			var sum uint64
			for i := range recs {
				sum += recs[i].Events
			}
			if sum != probed.events {
				t.Errorf("records account for %d events, run executed %d", sum, probed.events)
			}
			final := reg.Final()
			if final == nil {
				t.Fatal("EndRun never reached the registry")
			}
			if final.Events != probed.events {
				t.Errorf("final stats report %d events, run executed %d", final.Events, probed.events)
			}
			if tc.perRound && len(recs) < 2 {
				t.Errorf("per-round kernel emitted only %d records", len(recs))
			}
		})
	}
}

// roundAggregate is the deterministic slice of a round under live
// parallel execution: which worker ran which LP varies between runs
// (work stealing), but the window bound and the total work per round
// do not.
type roundAggregate struct {
	lbts   sim.Time
	events uint64
	n      int
}

func aggregateRounds(recs []obs.RoundRecord) map[uint64]roundAggregate {
	out := make(map[uint64]roundAggregate)
	for i := range recs {
		a := out[recs[i].Round]
		a.lbts = recs[i].LBTS
		a.events += recs[i].Events
		a.n++
		out[recs[i].Round] = a
	}
	return out
}

// TestProbedAggregatesDeterministic reruns a probed parallel Unison and
// requires the merged per-round aggregates — the LBTS sequence, the
// per-round summed event counts, and the round count — to be identical
// across runs. Per-worker splits are intentionally NOT compared: the
// load-adaptive scheduler may assign LPs differently run to run.
func TestProbedAggregatesDeterministic(t *testing.T) {
	const seed = 7
	const stop = 2 * sim.Millisecond

	run := func() map[uint64]roundAggregate {
		reg := obs.NewRegistry(bigRing)
		runKernel(t, core.New(core.Config{Threads: 4, Observe: reg}), seed, 1.0, stop)
		return aggregateRounds(reg.Records())
	}

	first := run()
	if len(first) == 0 {
		t.Fatal("no rounds captured")
	}
	for i := 0; i < 2; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d rounds, want %d", i, len(again), len(first))
		}
		for round, a := range first {
			b, ok := again[round]
			if !ok {
				t.Fatalf("run %d: round %d missing", i, round)
			}
			if a != b {
				t.Fatalf("run %d round %d: aggregate %+v != %+v", i, round, b, a)
			}
		}
	}
}

// TestVtimeRecordsDeterministic requires the virtual testbed's records to
// be byte-for-byte identical across runs: every field, including the
// per-worker timing split, is computed from modeled clocks.
func TestVtimeRecordsDeterministic(t *testing.T) {
	const seed = 42
	const stop = 2 * sim.Millisecond

	run := func() []obs.RoundRecord {
		reg := obs.NewRegistry(bigRing)
		runKernel(t, vtimeKernel{vtime.Config{Algo: vtime.Unison, Cores: 4, Observe: reg}}, seed, 0.2, stop)
		return reg.Records()
	}

	first := run()
	if len(first) == 0 {
		t.Fatal("no records captured")
	}
	again := run()
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("virtual-testbed records differ between runs (%d vs %d records)", len(first), len(again))
	}
}
