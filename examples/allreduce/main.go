// All-reduce: the traffic shape of distributed ML training, expressed as
// a declarative scenario. A collective is a dependency DAG over TCP
// flows — each ring or tree step releases the moment its predecessor
// completes — and the DAG is driven by the transport's OnFlowDone hook,
// so it runs bit-identically under every kernel with zero partitioning
// configuration.
//
// The example builds the same 16-host ring and tree all-reduce the
// sibling scenario files describe, runs each under the sequential and
// Unison kernels, checks the fingerprints agree, and prints the
// per-step straggler breakdown that lands in coll_report.json.
//
//	go run ./examples/allreduce
//
// The file-driven equivalents:
//
//	unisim -scenario examples/allreduce/ring.scenario.json
//	unisim -scenario examples/allreduce/tree.scenario.json -set kernel.kind=sequential
package main

import (
	"fmt"
	"log"

	"unison"
)

// scenario assembles the declarative description: a k=4 fat-tree and a
// 1 MiB-per-host all-reduce in 64 KiB chunks. No partitioning, no rank
// maps — the kernel section is the only execution knob.
func scenario(pattern string) *unison.Scenario {
	sc := unison.DefaultScenario()
	sc.Name = pattern
	// The tree funnels into its root, so it needs far more headroom than
	// the ring (which finishes in under 4 ms).
	sc.Stop = unison.ScenarioDuration(30 * unison.Millisecond)
	sc.Traffic = nil // collective-only run
	sc.Collective = &unison.CollectiveSpec{
		Pattern:      pattern,
		MessageBytes: 1 << 20,
		ChunkBytes:   64 << 10,
	}
	return sc
}

func main() {
	for _, pattern := range []string{"ring-allreduce", "tree-allreduce"} {
		var fps []uint64
		var report *unison.CollReport
		for _, kernel := range []unison.KernelSpec{
			{Kind: "sequential"},
			{Kind: "unison", Threads: 4},
		} {
			sc := scenario(pattern)
			sc.Kernel = kernel
			b, err := sc.Build()
			if err != nil {
				log.Fatal(err)
			}
			st, err := b.RunKernel(b.Sim.Model())
			if err != nil {
				log.Fatal(err)
			}
			cr := b.Sim.CollReport(b.Sim.Mon)
			fmt.Printf("%-15s %-12s %8d events, wall %6.1f ms, completion %.3f ms\n",
				pattern, st.Kernel, st.Events, float64(st.WallNS)/1e6,
				float64(cr.CompletionNS)/1e6)
			fps = append(fps, b.Sim.Mon.Fingerprint())
			report = cr
		}
		if fps[0] != fps[1] {
			log.Fatalf("%s: kernels disagree: %016x vs %016x", pattern, fps[0], fps[1])
		}
		fmt.Printf("  fingerprints match (%016x); per-step straggler breakdown:\n", fps[0])
		fmt.Printf("  %-5s %-6s %-12s %-12s %-14s\n", "step", "flows", "meanFCT(us)", "maxFCT(us)", "straggler span")
		for _, s := range report.Steps {
			fmt.Printf("  %-5d %-6d %-12.1f %-12.1f %8.1f us (flow %d: %d->%d)\n",
				s.Step, s.Flows, float64(s.MeanFCTNS)/1e3, float64(s.MaxFCTNS)/1e3,
				float64(s.StragglerSpanNS)/1e3, s.StragglerFlow, s.StragglerSrc, s.StragglerDst)
		}
		fmt.Println()
	}
	fmt.Println("the ring spreads load evenly (flat straggler spans); the tree funnels")
	fmt.Println("into its root, so the reduce steps carry the straggler penalty.")
}
