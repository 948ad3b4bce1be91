// Command unitrace inspects packet traces written by unisim -trace:
// it prints per-kind and per-flow summaries, the full ascii dump, or
// converts the trace to pcapng for Wireshark. The diff subcommand
// compares two run-artifact bundles metric by metric.
//
//	unisim -topo fattree -k 4 -trace /tmp/run.utr
//	unitrace /tmp/run.utr
//	unitrace -dump /tmp/run.utr | head
//	unitrace -pcap /tmp/run.pcapng /tmp/run.utr
//	unitrace diff -threshold 5 out/baseline out/candidate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"unison/internal/netobs"
	"unison/internal/packet"
	"unison/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		runDiff(os.Args[2:])
		return
	}
	dump := flag.Bool("dump", false, "print every record (ascii tracing)")
	top := flag.Int("top", 5, "number of flows in the per-flow summary")
	pcap := flag.String("pcap", "", "convert the trace to pcapng at this path (open in Wireshark)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: unitrace [-dump] [-top N] [-pcap out.pcapng] <file.utr>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadAll(f)
	if err != nil {
		fatal(err)
	}
	if *pcap != "" {
		// A standalone .utr carries no flow table, so endpoint addresses
		// synthesize as zeros; the flow id is still recoverable from the
		// TCP source port and each frame's comment names the event kind.
		out, err := os.Create(*pcap)
		if err != nil {
			fatal(err)
		}
		if err := netobs.WritePcapng(out, recs, nil); err != nil {
			out.Close()
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d frames)\n", *pcap, len(recs))
		return
	}
	if *dump {
		if err := trace.Dump(os.Stdout, recs); err != nil {
			fatal(err)
		}
		return
	}
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return
	}
	fmt.Printf("%d records over %v .. %v\n", len(recs), recs[0].Time, recs[len(recs)-1].Time)
	kinds := map[trace.Kind]int{}
	type flowAgg struct {
		delivers int
		bytes    int64
		drops    int
	}
	flows := map[packet.FlowID]*flowAgg{}
	for _, r := range recs {
		kinds[r.Kind]++
		fa := flows[r.Flow]
		if fa == nil {
			fa = &flowAgg{}
			flows[r.Flow] = fa
		}
		switch r.Kind {
		case trace.Deliver:
			fa.delivers++
			fa.bytes += int64(r.Size)
		case trace.Drop:
			fa.drops++
		}
	}
	fmt.Println("\nby kind:")
	for k := trace.Kind(0); k <= trace.Deliver; k++ {
		if kinds[k] > 0 {
			fmt.Printf("  %-5s %d\n", k, kinds[k])
		}
	}
	type fr struct {
		id packet.FlowID
		a  *flowAgg
	}
	var ranked []fr
	for id, a := range flows {
		ranked = append(ranked, fr{id, a})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].a.bytes != ranked[j].a.bytes {
			return ranked[i].a.bytes > ranked[j].a.bytes
		}
		return ranked[i].id < ranked[j].id
	})
	fmt.Printf("\ntop %d flows by delivered bytes:\n", *top)
	for i, r := range ranked {
		if i >= *top {
			break
		}
		fmt.Printf("  flow %-6d %8d B delivered in %d packets, %d drops\n",
			r.id, r.a.bytes, r.a.delivers, r.a.drops)
	}
}

// runDiff is the `unitrace diff A_DIR B_DIR` subcommand: it compares two
// run-artifact bundles (run_stats.json, flow_report.json, series.csv) and
// exits nonzero when a gated metric moved more than -threshold percent —
// the regression check CI and bisection scripts build on.
func runDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 5, "max allowed |relative delta| in percent on gated metrics")
	asJSON := fs.Bool("json", false, "emit the comparison as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: unitrace diff [-threshold PCT] [-json] A_DIR B_DIR")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	d, err := netobs.DiffBundles(fs.Arg(0), fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fatal(err)
		}
	} else {
		d.Render(os.Stdout)
	}
	if breaches := d.Breaches(*threshold); len(breaches) > 0 {
		for _, m := range breaches {
			fmt.Fprintf(os.Stderr, "unitrace: diff: %s moved %+.2f%% (threshold %.2f%%)\n",
				m.Name, m.RelPct, *threshold)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unitrace: %v\n", err)
	os.Exit(1)
}
