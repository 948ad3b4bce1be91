// Package pdes implements the two classic conservative PDES algorithms
// the paper profiles and compares against (§2.3): the barrier
// synchronization algorithm (ns-3's default PDES) and the Chandy–Misra–
// Bryant null message algorithm. Both require a static manual partition
// of the topology into ranks — exactly the complex configuration step
// Unison eliminates — and this package also ships the per-topology manual
// partition recipes that step entails (partition.go).
package pdes

import (
	"errors"
	"fmt"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/sim"
)

// BarrierKernel is the barrier synchronization algorithm: every rank is a
// logical process bound to its own worker; rounds are separated by global
// barriers; the window is LBTS = min{N_i} + lookahead (Equation 1).
//
// The rank assignment is static: there is no load balancing, which is the
// root cause of the synchronization time the paper measures in §3.2.
type BarrierKernel struct {
	// Part is the typed partition (rank assignment + lookahead). When set
	// it takes precedence over LPOf.
	Part *core.Partition
	// LPOf is the bare manual node→rank assignment, for callers that build
	// the kernel before the model's links exist: Run derives the partition
	// and its lookahead from it.
	LPOf []int32
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives one obs.RoundRecord per rank per
	// round plus run begin/end notifications. Rank index == worker index.
	Observe obs.Probe
}

// Name implements sim.Kernel.
func (k *BarrierKernel) Name() string { return "barrier" }

// Run implements sim.Kernel. The barrier algorithm is the round engine of
// internal/core in its static shape: one LP and one worker per rank.
func (k *BarrierKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	part := k.Part
	if part == nil {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("pdes: %w", err)
		}
		if len(k.LPOf) != m.Nodes {
			return nil, errors.New("pdes: BarrierKernel requires a manual partition covering every node")
		}
		part = core.Manual(k.LPOf, m.Links())
	}
	return core.RunStatic(m, k.Name(), part, core.Config{MaxRounds: k.MaxRounds, Observe: k.Observe})
}
