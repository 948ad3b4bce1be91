// Package vtime is the virtual testbed: a second driver of the live
// kernels' own state machines. The round-based kernels run on core.Engine
// and the null-message kernel on pdes.Ranks — the partition, window,
// mailbox, scheduling and channel-clock code that executes is the live
// kernels', not a model of it — but from a single real thread, with every
// virtual worker/rank owning a virtual clock advanced by a hand-set cost
// model charged from what each step reports (events run, cache misses,
// messages moved, LPs re-sorted). What this package owns is only what is
// virtual: which core a step is placed on (greedy list scheduling, core
// speeds), the CMB meta-simulation of arrival times, and the P/S/M,
// makespan and RoundRecord accounting. Round makespans, the P/S/M
// decomposition, and speedups are therefore computed exactly and
// deterministically for any requested core count — the substitution for
// the paper's 16–144-core testbeds (DESIGN.md §1, §5.1).
//
// The simulation itself is executed for real (every event callback runs),
// so the virtual run produces the same simulation results as the live
// kernels; only the time accounting is modeled.
package vtime

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/sim"
)

// Algorithm selects which kernel the virtual testbed models.
type Algorithm uint8

const (
	// Sequential models the sequential DES kernel.
	Sequential Algorithm = iota
	// Barrier models the barrier-synchronization PDES baseline: one rank
	// per virtual core, static partition, global LBTS rounds.
	Barrier
	// NullMessage models the Chandy–Misra–Bryant baseline: one rank per
	// virtual core, pairwise channel synchronization.
	NullMessage
	// Unison models the Unison kernel: fine-grained partition and
	// load-adaptive scheduling over `Cores` virtual worker threads.
	Unison
	// Hybrid models the §5.2 multi-host kernel: HostOf assigns nodes to
	// simulation hosts, each with CoresPerHost cores, synchronized by a
	// per-round inter-host all-reduce.
	Hybrid
)

func (a Algorithm) String() string {
	switch a {
	case Sequential:
		return "v-sequential"
	case Barrier:
		return "v-barrier"
	case NullMessage:
		return "v-nullmsg"
	case Unison:
		return "v-unison"
	default:
		return "v-hybrid"
	}
}

// Config parameterizes a virtual-testbed run.
type Config struct {
	Algo Algorithm
	// Cores is the virtual worker count for Unison. The rank-per-core
	// baselines derive their core count from the partition instead.
	Cores int
	// LPOf is the static manual partition (mandatory for Barrier and
	// NullMessage; optional manual override for Unison).
	LPOf []int32
	// Metric and Period configure Unison's load-adaptive scheduler.
	Metric core.Metric
	Period int
	// HostOf and CoresPerHost configure the Hybrid algorithm.
	HostOf       []int32
	CoresPerHost int
	// CoreSpeeds gives each Unison virtual core a relative speed (1.0 =
	// nominal). Defaults to identical cores — the assumption the paper's
	// scheduler makes (§7).
	CoreSpeeds []float64
	// SpeedAware makes the scheduler account for core speeds when
	// choosing where the next LP runs (the §7 "more general scheduling
	// strategy"); when false, heterogeneous cores are scheduled naively.
	SpeedAware bool
	// Cost converts events into virtual nanoseconds.
	Cost CostModel
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives one obs.RoundRecord per virtual
	// worker per round. Because the testbed is single-threaded and its
	// clocks are modeled, every record field — including the NS timings —
	// is deterministic.
	Observe obs.Probe
}

// Run executes m under the virtual testbed.
func Run(m *sim.Model, cfg Config) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("vtime: %w", err)
	}
	// The testbed models wall clocks, not real ones, and replays whole runs
	// cheaply — snapshotting it would pin modeled clock state the format
	// deliberately excludes. It runs the pause clients without a cadence
	// of their own (telemetry).
	if m.Restore != nil || slices.ContainsFunc(m.Pauses, func(p sim.Pause) bool { return p.Every > 0 || p.EveryTime > 0 }) {
		return nil, errors.New("vtime: the virtual testbed does not support checkpoint/restore")
	}
	cfg.Cost.fillDefaults()
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	var st *sim.RunStats
	var err error
	if cfg.Algo == NullMessage {
		st, err = runNullMessage(m, cfg, start)
	} else {
		var sh shape
		if sh, err = shapeOf(m, cfg); err != nil {
			return nil, err
		}
		st, err = runRounds(m, cfg, sh, start)
		if st != nil && cfg.Algo == Sequential {
			// The kernel being modelled has no rounds (RunStats.Rounds is
			// documented as 0 for it); the engine's windows here are only
			// the gaps between global events.
			st.Rounds = 0
		}
	}
	// Both drivers return stats exactly when they began the run, failed or
	// not, so a probe never sees a run left open.
	if st != nil {
		obs.End(cfg.Observe, st)
	}
	return st, err
}

// Speedup returns base's virtual time divided by st's — the figure-of-
// merit of every speedup plot.
func Speedup(base, st *sim.RunStats) float64 {
	if st.VirtualT == 0 {
		return 0
	}
	return float64(base.VirtualT) / float64(st.VirtualT)
}
