package main

import (
	"fmt"
	"math"
	"time"

	"unison/internal/core"
	"unison/internal/sim"
	"unison/internal/stats"
)

// emptyRound is the fixed cost of one synchronization round at one LP
// count: Unison with 2 threads on a chain of LPs nodes (every node its own
// LP) where a single event bounces over one link, so a round is two barrier
// episodes around almost no work — internal/core's BenchmarkEmptyRound, and
// what bench's core.empty_round_ns driver times on the workload's own
// topology. The figure that matters is how it grows with LPs.
type emptyRound struct {
	LPs      int     `json:"lps"`
	Rounds   uint64  `json:"rounds_per_sample"`
	Samples  int     `json:"samples"`
	MedianNS float64 `json:"ns_per_round_median"`
	MADNS    float64 `json:"ns_per_round_mad"`
}

// emptyRoundReport sets the fresh figures beside the ones docs/bench_seed.json
// records for the commit before the round engine stopped visiting idle LPs.
type emptyRoundReport struct {
	Current    []emptyRound `json:"current"`
	Parent     []emptyRound `json:"parent,omitempty"`
	ParentNote string       `json:"parent_note,omitempty"`
}

// measureEmptyRound takes `samples` timings of a run of `rounds` rounds.
func measureEmptyRound(lps, samples int) (emptyRound, error) {
	const delay, rounds = 500, 20000
	links := make([]sim.LinkInfo, lps-1)
	for i := range links {
		links[i] = sim.LinkInfo{A: sim.NodeID(i), B: sim.NodeID(i + 1), Delay: delay, Stateless: true, Up: true}
	}
	until := sim.Time(rounds) * delay
	var bounce sim.Proc
	bounce = func(ctx *sim.Ctx) {
		if ctx.Now() < until {
			ctx.Schedule(delay, 1-ctx.Node(), bounce)
		}
	}
	perRound := make([]float64, samples)
	for i := range perRound {
		setup := sim.NewSetup()
		setup.At(0, 0, bounce)
		m := &sim.Model{Nodes: lps, Links: func() []sim.LinkInfo { return links }, Init: setup.Events()}
		start := time.Now()
		st, err := core.New(core.Config{Threads: 2}).Run(m)
		if err != nil {
			return emptyRound{}, err
		}
		perRound[i] = float64(time.Since(start).Nanoseconds()) / float64(st.Rounds)
	}
	med := stats.Quantile(perRound, 0.5)
	dev := make([]float64, samples)
	for i, v := range perRound {
		dev[i] = math.Abs(v - med)
	}
	return emptyRound{LPs: lps, Rounds: rounds, Samples: samples,
		MedianNS: math.Round(med), MADNS: math.Round(stats.Quantile(dev, 0.5))}, nil
}

// runEmptyRound measures at the LP counts of a k=8 and a k=16 fat-tree and
// at 8192, and prints the table.
func runEmptyRound(samples int, parent []emptyRound) ([]emptyRound, error) {
	var out []emptyRound
	for i, lps := range []int{208, 1344, 8192} {
		er, err := measureEmptyRound(lps, samples)
		if err != nil {
			return nil, err
		}
		out = append(out, er)
		fmt.Printf("empty round  %5d LPs  %8.0f ns/round  (MAD %.0f, %d x %d rounds)", lps, er.MedianNS, er.MADNS, samples, er.Rounds)
		if i < len(parent) && parent[i].LPs == lps {
			fmt.Printf("  parent %.0f", parent[i].MedianNS)
		}
		fmt.Println()
	}
	return out, nil
}
