// Command unitrace reads run-artifact bundles (the directory unisim and
// unidist write under -set artifacts.dir=D). Its diff subcommand compares
// two bundles (run_stats.json, flow_report.json, series.csv) metric by
// metric and exits nonzero when a gated metric moved more than -threshold
// percent — the regression check CI and bisection scripts build on. The
// bundle's trace.pcapng opens in Wireshark as is.
//
//	unitrace diff -threshold 5 out/baseline out/candidate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"unison/internal/netobs"
)

func main() {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 5, "max allowed |relative delta| in percent on gated metrics")
	asJSON := fs.Bool("json", false, "emit the comparison as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: unitrace diff [-threshold PCT] [-json] A_DIR B_DIR")
		fs.PrintDefaults()
	}
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		_ = fs.Parse(os.Args[2:])
	}
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
