package core

import (
	"fmt"

	"unison/internal/obs"
	"unison/internal/sim"
)

// This file holds the two other shapes of the round engine (kernel.go):
// the hybrid multi-host kernel and the static rank binding the barrier
// baseline needs. Like Kernel.Run, each only chooses a partition and says
// which workers may run which LPs.

// HybridConfig parameterizes the scalable hybrid kernel of §5.2: the
// topology is first divided statically across simulation hosts (the
// outer, barrier-style partition), and each host runs Unison's
// fine-grained partition and load-adaptive scheduling over its own nodes.
// Hosts synchronize each round through an all-reduce of their minimum
// next-event times. In this reproduction the hosts live in one process
// and the all-reduce is over shared memory; the synchronization algorithm
// is unchanged (DESIGN.md §1).
type HybridConfig struct {
	// HostOf assigns every node to a simulation host (0..Hosts-1).
	HostOf []int32
	// ThreadsPerHost is each host's Unison worker count.
	ThreadsPerHost int
	// Metric and Period configure each host's scheduler.
	Metric Metric
	Period int
	// MaxRounds aborts runaway simulations when positive.
	MaxRounds uint64
	// Observe, when non-nil, receives per-round per-worker telemetry
	// (internal/obs); workers are numbered host*ThreadsPerHost+thread.
	Observe obs.Probe
}

// HybridKernel is the multi-host Unison kernel.
type HybridKernel struct {
	cfg HybridConfig
}

// NewHybrid returns a hybrid kernel with cfg.
func NewHybrid(cfg HybridConfig) *HybridKernel {
	if cfg.ThreadsPerHost <= 0 {
		cfg.ThreadsPerHost = 1
	}
	return &HybridKernel{cfg: cfg}
}

// Name implements sim.Kernel.
func (k *HybridKernel) Name() string {
	return fmt.Sprintf("hybrid(t=%d/host)", k.cfg.ThreadsPerHost)
}

// Run implements sim.Kernel: one group per host holding the LPs Algorithm
// 1 finds inside that host, pulled by the host's ThreadsPerHost workers.
func (k *HybridKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return run(m, func(links []sim.LinkInfo) (Shape, error) {
		lpOf, hostOfLP, lookahead, err := HybridPartition(m.Nodes, k.cfg.HostOf, links)
		if err != nil {
			return Shape{}, err
		}
		return Shape{
			Name:     k.Name(),
			Part:     &Partition{LPOf: lpOf, Count: len(hostOfLP), Lookahead: lookahead},
			GroupOf:  hostOfLP,
			PerGroup: k.cfg.ThreadsPerHost,
			Cfg:      Config{Metric: k.cfg.Metric, Period: k.cfg.Period, MaxRounds: k.cfg.MaxRounds, Observe: k.cfg.Observe},
		}, nil
	})
}

// RunStatic runs m with every LP of part bound to its own worker for the
// whole run: one group per LP, one worker per group, no scheduling. This
// is the classic barrier-synchronization algorithm (pdes.BarrierKernel);
// binding by cursor instead would let a rank's LP hop between workers
// from round to round. Of cfg, only CacheWays, RecordRounds, MaxRounds and
// Observe apply. With a wire it is one rank of a distributed run
// (internal/dist): the same shape, the other ranks' workers elsewhere.
func RunStatic(m *sim.Model, name string, part *Partition, cfg Config, wire Wire) (*sim.RunStats, error) {
	return run(m, func([]sim.LinkInfo) (Shape, error) {
		groupOf := make([]int32, part.Count)
		for i := range groupOf {
			groupOf[i] = int32(i)
		}
		cfg.Metric = MetricNone
		return Shape{Name: name, Part: part, GroupOf: groupOf, PerGroup: 1, Cfg: cfg, Wire: wire}, nil
	})
}
