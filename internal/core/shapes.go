package core

import (
	"fmt"

	"unison/internal/obs"
	"unison/internal/sim"
)

// This file holds the two other shapes of the round engine (kernel.go),
// each built in one place for the live kernels and the virtual testbed: the
// hybrid multi-host kernel (HybridShape), in one process or as one host of a
// distributed run, and the static rank binding of the barrier baseline
// (StaticShape). Like Kernel.Run, each only chooses a partition and says
// which workers may run which LPs.

// HybridConfig parameterizes the scalable hybrid kernel of §5.2: the
// topology is first divided statically across simulation hosts (the
// outer, barrier-style partition), and each host runs Unison's
// fine-grained partition and load-adaptive scheduling over its own nodes.
// Hosts synchronize each round through an all-reduce of their minimum
// next-event times: over shared memory when every host lives in this
// process, over Wire when only one does (DESIGN.md §1).
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
	// Wire, when non-nil, makes the kernel one host of a distributed run:
	// only host Wire.Resident runs here, numbering its workers from 0.
	Wire Wire
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
func (k *HybridKernel) Name() string { return fmt.Sprintf("hybrid(t=%d/host)", k.cfg.ThreadsPerHost) }

// Run implements sim.Kernel: HybridShape, pulled by each host's
// ThreadsPerHost workers.
func (k *HybridKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	return run(m, func(links []sim.LinkInfo) (Shape, error) {
		sh, err := HybridShape(m.Nodes, k.cfg.HostOf, links, k.cfg.ThreadsPerHost,
			Config{Metric: k.cfg.Metric, Period: k.cfg.Period, MaxRounds: k.cfg.MaxRounds, Observe: k.cfg.Observe})
		sh.Name, sh.Wire = k.Name(), k.cfg.Wire
		return sh, err
	})
}

// HybridShape is the shape of §5.2: one group per host holding the LPs
// Algorithm 1 finds inside it (HybridPartition), perHost workers each.
func HybridShape(nodes int, hostOf []int32, links []sim.LinkInfo, perHost int, cfg Config) (Shape, error) {
	part, hostOfLP, err := HybridPartition(nodes, hostOf, links)
	if err != nil {
		return Shape{}, err
	}
	return Shape{Part: part, GroupOf: hostOfLP, PerGroup: perHost, Cfg: cfg}, nil
}

// StaticShape binds every LP of part to its own worker for the whole run:
// one group per LP, one worker per group, no scheduling. This is the
// classic barrier-synchronization algorithm (pdes.BarrierKernel); binding
// by cursor instead would let a rank's LP hop between workers from round
// to round.
func StaticShape(name string, part *Partition, cfg Config) Shape {
	groupOf := make([]int32, part.Count)
	for i := range groupOf {
		groupOf[i] = int32(i)
	}
	cfg.Metric = MetricNone
	return Shape{Name: name, Part: part, GroupOf: groupOf, PerGroup: 1, Cfg: cfg}
}

// RunStatic runs m in StaticShape on real threads. Of cfg, only CacheWays,
// MaxRounds and Observe apply.
func RunStatic(m *sim.Model, name string, part *Partition, cfg Config) (*sim.RunStats, error) {
	return run(m, func([]sim.LinkInfo) (Shape, error) { return StaticShape(name, part, cfg), nil })
}
