// Command unimon attaches to a running unisim or unidist coordinator
// started with -live ADDR and renders its telemetry: a terminal dashboard
// (default), a single JSON snapshot (-once), or an NDJSON stream (-json)
// for scripts and CI.
//
//	unisim -set stop=50ms -live :9900 &
//	unimon -live 127.0.0.1:9900
//
// The dashboard shows per-worker P/S/M bars, LBTS/virtual-time progress
// with a wall-clock ETA, events/s, FEL depth, the queue-depth heatmap,
// checkpoint age, rank liveness (distributed runs), and the live
// load-imbalance diagnostics. unimon exits when the run finishes; with
// -expect-stats FILE it then verifies the final live snapshot matches the
// run's run_stats.json field for field (the CI smoke check).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"unison/internal/obs/live"
	"unison/internal/sim"
)

func main() {
	var (
		addr    = flag.String("live", "", "address of the run's -live endpoint (host:port)")
		once    = flag.Bool("once", false, "fetch one snapshot, print it as JSON, exit")
		ndjson  = flag.Bool("json", false, "stream snapshots as NDJSON instead of the dashboard")
		wait    = flag.Duration("attach-timeout", 10*time.Second, "how long to wait for the live endpoint to come up")
		total   = flag.Duration("timeout", 0, "give up after this long overall (0 = until the run ends)")
		expect  = flag.String("expect-stats", "", "after the run, verify the final snapshot matches this run_stats.json file")
		noClear = flag.Bool("no-clear", false, "dashboard: append frames instead of redrawing in place")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "unimon: -live ADDR is required")
		flag.Usage()
		os.Exit(2)
	}

	if _, err := live.WaitUp(*addr, *wait); err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *total > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *total)
		defer cancel()
	}

	if *once {
		snap, err := live.Fetch(ctx, *addr)
		if err != nil {
			fatal(err)
		}
		snap.Scrub()
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		verify(*expect, snap)
		return
	}

	var last *live.Snapshot
	enc := json.NewEncoder(os.Stdout)
	err := live.Watch(ctx, *addr, func(snap *live.Snapshot) bool {
		last = snap
		if *ndjson {
			snap.Scrub()
			if err := enc.Encode(snap); err != nil {
				return false
			}
		} else {
			render(os.Stdout, snap, *addr, !*noClear)
		}
		return !snap.Done
	})
	if err != nil {
		fatal(err)
	}
	if last == nil {
		fatal(fmt.Errorf("stream from %s ended before any snapshot arrived", *addr))
	}
	if !last.Done {
		// The stream can end on server shutdown or -timeout before the
		// final frame; one direct fetch usually still reaches it.
		if snap, err := live.Fetch(context.Background(), *addr); err == nil {
			last = snap
		}
	}
	if !*ndjson {
		fmt.Println()
	}
	verify(*expect, last)
}

// verify compares the final live snapshot against the run's serialized
// run_stats.json — the acceptance check that the live view and the
// artifact agree field for field. No-op without -expect-stats.
func verify(path string, snap *live.Snapshot) {
	if path == "" {
		return
	}
	if snap == nil || !snap.Done || snap.Final == nil {
		fatal(fmt.Errorf("expect-stats: no final snapshot received (run still going?)"))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("expect-stats: %w", err))
	}
	var want sim.RunStats
	if err := json.Unmarshal(raw, &want); err != nil {
		fatal(fmt.Errorf("expect-stats: parsing %s: %w", path, err))
	}
	if !reflect.DeepEqual(&want, snap.Final) {
		a, _ := json.Marshal(&want)
		b, _ := json.Marshal(snap.Final)
		fmt.Fprintf(os.Stderr, "unimon: final snapshot disagrees with %s\n  file:     %s\n  snapshot: %s\n", path, a, b)
		os.Exit(1)
	}
	fmt.Printf("final snapshot matches %s\n", path)
}

// render draws one dashboard frame.
func render(w *os.File, s *live.Snapshot, addr string, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\033[H\033[2J")
	}
	state := "running"
	if s.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "unimon — %s @ %s   kernel %s   workers %d   LPs %d   [%s]\n",
		s.Tool, addr, s.Kernel, s.Workers, s.LPs, state)

	if s.StopAtNS > 0 {
		fmt.Fprintf(&b, "progress  %s %5.1f%%  vtime %s / %s  elapsed %s  eta %s\n",
			bar(s.Progress, 24), 100*s.Progress,
			simMS(s.LBTSNS), simMS(s.StopAtNS),
			secs(s.ElapsedSeconds), eta(s.ETASeconds))
	} else {
		fmt.Fprintf(&b, "progress  vtime %s  elapsed %s\n", simMS(s.LBTSNS), secs(s.ElapsedSeconds))
	}
	fmt.Fprintf(&b, "events    %s (%s/s)   rounds %d   FEL %d   ckpt %s\n",
		count(float64(s.Events)), count(s.EventsPerSec), s.Rounds, s.FELDepth, ckpt(s.CkptAgeSeconds))

	if len(s.WorkerViews) > 0 {
		b.WriteString("workers   P/S/M\n")
		for _, v := range s.WorkerViews {
			fmt.Fprintf(&b, "  w%-3d %s P %4.1f%% S %4.1f%% M %4.1f%%  ev %-8s fel %-6d lbts %s",
				v.Worker, psmBar(v.PShare, v.SShare, v.MShare, 20),
				100*v.PShare, 100*v.SShare, 100*v.MShare,
				count(float64(v.Events)), v.FELDepth, simMS(v.LBTSNS))
			if v.Migrations > 0 {
				fmt.Fprintf(&b, " migr %d", v.Migrations)
			}
			if v.StragglerRounds > 0 {
				fmt.Fprintf(&b, " strag %d", v.StragglerRounds)
			}
			b.WriteByte('\n')
		}
	}
	if im := s.Imbalance; im != nil {
		fmt.Fprintf(&b, "%s\n", im)
	}
	if len(s.Ranks) > 0 {
		b.WriteString("ranks    ")
		for _, r := range s.Ranks {
			mark := "up"
			if !r.Alive {
				mark = "STALE"
			}
			fmt.Fprintf(&b, " r%d %s %.1fs (%d rounds, %s ev)",
				r.Rank, mark, r.LastSeenSeconds, r.Rounds, count(float64(r.Events)))
		}
		b.WriteByte('\n')
	}
	if len(s.Queues) > 0 {
		b.WriteString("queues    hottest:")
		n := len(s.Queues)
		if n > 6 {
			n = 6
		}
		for _, q := range s.Queues[:n] {
			fmt.Fprintf(&b, "  n%d/l%d d%d(max %d)", q.Node, q.Link, q.Depth, q.MaxDepth)
			if q.Drops > 0 {
				fmt.Fprintf(&b, " drop %d", q.Drops)
			}
			if q.Util > 0 {
				fmt.Fprintf(&b, " %2.0f%%", 100*q.Util)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprint(w, b.String())
}

func bar(p float64, width int) string {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	full := int(p * float64(width))
	return "[" + strings.Repeat("#", full) + strings.Repeat(".", width-full) + "]"
}

// psmBar renders the worker's time split as one segmented bar.
func psmBar(p, s, m float64, width int) string {
	pw := int(p * float64(width))
	sw := int(s * float64(width))
	mw := width - pw - sw
	if mw < 0 {
		mw = 0
	}
	return "[" + strings.Repeat("P", pw) + strings.Repeat("S", sw) + strings.Repeat("M", mw) + "]"
}

func simMS(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }
func secs(s float64) string { return fmt.Sprintf("%.1fs", s) }
func eta(s float64) string {
	if s < 0 {
		return "?"
	}
	return secs(s)
}

func ckpt(age float64) string {
	if age < 0 {
		return "none"
	}
	return fmt.Sprintf("%.0fs ago", age)
}

func count(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unimon: %v\n", err)
	os.Exit(1)
}
