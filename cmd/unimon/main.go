// Command unimon attaches to a running unisim or unidist coordinator
// started with -live ADDR and reads its record stream: GET /live answers
// with the run's records.ndjson from its first line and follows it as it
// is written. unimon renders a terminal dashboard (default), one frame of
// the stream so far (-once), or echoes the stream's lines (-json) for
// scripts and CI.
//
//	unisim -set stop=50ms -live :9900 &
//	unimon -live 127.0.0.1:9900
//
// unimon decodes the stream with netobs.DecodeRecord and folds its round
// records with obs.Registry and obs.ImbalanceTracker, as the run does. The
// rest it works out from the meta line and from when each record arrives:
// per-worker P/S/M bars, LBTS progress with a wall-clock ETA, events/s,
// FEL depth, the queue-depth heatmap, checkpoint age, rank liveness
// (distributed runs) and the load-imbalance diagnostics. The stream's last
// line is the run's final stats; with -expect-stats FILE unimon then
// verifies they equal the run's run_stats.json field for field (the CI
// smoke check).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

const (
	frameEvery     = 500 * time.Millisecond // dashboard redraw cadence
	onceFor        = time.Second            // how long -once reads the stream
	evWindow       = 5 * time.Second        // how far back events/s looks
	rankStaleAfter = 10 * time.Second       // a rank silent this long is STALE
)

func main() {
	var (
		addr    = flag.String("live", "", "address of the run's -live endpoint (host:port)")
		once    = flag.Bool("once", false, "print one dashboard frame of the stream so far (what arrives within a second), exit")
		ndjson  = flag.Bool("json", false, "echo the stream's NDJSON lines instead of the dashboard")
		wait    = flag.Duration("attach-timeout", 10*time.Second, "how long to wait for the live endpoint to come up")
		total   = flag.Duration("timeout", 0, "give up after this long overall (0 = until the run ends)")
		expect  = flag.String("expect-stats", "", "after the run, verify the stream's final stats match this run_stats.json file")
		noClear = flag.Bool("no-clear", false, "dashboard: append frames instead of redrawing in place")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "unimon: -live ADDR is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *total > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *total)
		defer cancel()
	}
	body, err := attach(ctx, *addr, *wait)
	if err != nil {
		fatal(err)
	}
	defer body.Close()

	type line struct {
		raw []byte
		rec netobs.Record
	}
	in := make(chan line, 256)
	readErr := make(chan error, 1)
	go func() {
		readErr <- netobs.ReadRecords(body, func(raw []byte, r *netobs.Record) error {
			in <- line{raw, *r}
			return nil
		})
		close(in)
	}()

	v := &view{addr: *addr}
	frames := time.NewTicker(frameEvery)
	defer frames.Stop()
	var stop <-chan time.Time
	if *once {
		stop = time.After(onceFor)
	}
read:
	for {
		select {
		case l, ok := <-in:
			if !ok {
				if err := <-readErr; err != nil && v.final == nil {
					fatal(fmt.Errorf("reading the stream from %s: %w", *addr, err))
				}
				break read
			}
			if err := v.fold(&l.rec, time.Now()); err != nil {
				fatal(err)
			}
			if *ndjson {
				if _, err := os.Stdout.Write(l.raw); err != nil {
					fatal(err)
				}
			}
		case <-frames.C:
			if !*ndjson && !*once {
				v.render(os.Stdout, time.Now(), !*noClear)
			}
		case <-stop:
			break read
		case <-ctx.Done():
			break read
		}
	}
	if !*ndjson {
		v.render(os.Stdout, time.Now(), !*noClear && !*once)
	}
	verify(*expect, v.final)
}

// attach opens the stream at addr, retrying until the endpoint answers or
// wait elapses: the handshake for a watcher started alongside a run.
func attach(ctx context.Context, addr string, wait time.Duration) (io.ReadCloser, error) {
	url := addr
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/live"
	deadline := time.Now().Add(wait)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp.Body, nil
		}
		if err == nil {
			resp.Body.Close()
			err = errors.New(resp.Status)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not up after %s: %w", addr, wait, err)
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// verify compares the stream's final stats with the run's serialized
// run_stats.json. No-op without -expect-stats.
func verify(path string, final *sim.RunStats) {
	if path == "" {
		return
	}
	if final == nil {
		fatal(fmt.Errorf("expect-stats: the stream ended before its stats line (run still going?)"))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("expect-stats: %w", err))
	}
	var want sim.RunStats
	if err := json.Unmarshal(raw, &want); err != nil {
		fatal(fmt.Errorf("expect-stats: parsing %s: %w", path, err))
	}
	if !reflect.DeepEqual(&want, final) {
		a, _ := json.Marshal(&want)
		b, _ := json.Marshal(final)
		fmt.Fprintf(os.Stderr, "unimon: the stream's final stats disagree with %s\n  file:   %s\n  stream: %s\n", path, a, b)
		os.Exit(1)
	}
	fmt.Printf("final stats match %s\n", path)
}

type qkey struct {
	node sim.NodeID
	link int32
}

// qcell is one device's latest queue sample: a heatmap cell.
type qcell struct {
	qkey
	depth, maxDepth int32
	drops           uint64
	util            float64
	tick            sim.Time
}

type sample struct {
	at     time.Time
	events uint64
}

// view is the stream folded so far.
type view struct {
	addr   string
	meta   netobs.StreamMeta
	reg    *obs.Registry
	imb    *obs.ImbalanceTracker
	seen   []time.Time // per lane, when its latest record arrived
	ckpt   time.Time   // when the latest record of a checkpoint arrived
	queues map[qkey]*qcell
	rate   []sample // frames' event totals, for events/s
	final  *sim.RunStats
	end    time.Time // when the stats line arrived
}

// fold adds one record, arrived at now. A meta line starts the view over.
func (v *view) fold(r *netobs.Record, now time.Time) error {
	if r.Meta == nil && v.reg == nil {
		return errors.New("the stream does not start with its meta line")
	}
	switch {
	case r.Meta != nil:
		*v = view{addr: v.addr, meta: *r.Meta, reg: obs.NewRegistry(1), imb: obs.NewImbalanceTracker(),
			seen: make([]time.Time, max(r.Meta.Workers, 1)), queues: map[qkey]*qcell{}}
		m := obs.RunMeta{Kernel: r.Meta.Kernel, Workers: r.Meta.Workers, LPs: r.Meta.LPs}
		v.reg.BeginRun(m)
		v.imb.BeginRun(m)
	case r.Round != nil:
		v.reg.OnRound(r.Round)
		v.imb.OnRound(r.Round)
		if w := int(r.Round.Worker); w >= 0 && w < len(v.seen) {
			v.seen[w] = now
		}
		if r.Round.CkptNS > 0 {
			v.ckpt = now
		}
	case r.Row != nil:
		k := qkey{r.Row.Node, r.Row.Link}
		c := v.queues[k]
		if c == nil {
			c = &qcell{qkey: k}
			v.queues[k] = c
		}
		if r.Row.Tick >= c.tick {
			c.tick, c.depth, c.util = r.Row.Tick, r.Row.Depth, r.Row.Utilization(sim.Time(v.meta.IntervalNS))
		}
		c.maxDepth = max(c.maxDepth, r.Row.MaxDepth)
		c.drops += uint64(r.Row.Drops)
	case r.Stats != nil:
		v.final, v.end = r.Stats, now
	}
	return nil
}

// render draws one dashboard frame.
func (v *view) render(w io.Writer, now time.Time, clear bool) {
	if v.reg == nil {
		return
	}
	var b strings.Builder
	if clear {
		b.WriteString("\033[H\033[2J")
	}
	m := &v.meta
	state := "running"
	if v.final != nil {
		state, now = "done", v.end
	}
	fmt.Fprintf(&b, "unimon — %s @ %s   kernel %s   workers %d   LPs %d   [%s]\n",
		m.Tool, v.addr, m.Kernel, m.Workers, m.LPs, state)

	lanes, _ := v.reg.Totals()
	var events, depth, rounds uint64
	var lbts sim.Time
	for i := range lanes {
		l := &lanes[i]
		events, depth, lbts = events+l.Events, depth+l.FELDepth, max(lbts, l.LBTS)
		if l.Records > 0 {
			rounds = max(rounds, l.Round+1)
		}
	}
	elapsed := now.Sub(time.Unix(0, m.StartUnixNS)).Seconds()
	if m.StopNS > 0 {
		p, eta := min(float64(lbts)/float64(m.StopNS), 1), "?"
		if v.final != nil {
			p, eta = 1, secs(0)
		} else if p > 0 && p < 1 {
			eta = secs(elapsed * (1 - p) / p)
		}
		fmt.Fprintf(&b, "progress  %s %5.1f%%  vtime %s / %s  elapsed %s  eta %s\n",
			bar(p, 24), 100*p, simMS(int64(lbts)), simMS(m.StopNS), secs(elapsed), eta)
	} else {
		fmt.Fprintf(&b, "progress  vtime %s  elapsed %s\n", simMS(int64(lbts)), secs(elapsed))
	}
	ckpt := "none"
	if !v.ckpt.IsZero() {
		ckpt = fmt.Sprintf("%.0fs ago", now.Sub(v.ckpt).Seconds())
	}
	fmt.Fprintf(&b, "events    %s (%s/s)   rounds %d   FEL %d   ckpt %s\n",
		count(float64(events)), count(v.eventRate(now, events)), rounds, depth, ckpt)

	straggler := v.imb.StragglerRounds(len(lanes))
	b.WriteString("workers   P/S/M\n")
	for i := range lanes {
		l := &lanes[i]
		var ps, ss, ms float64
		if tot := float64(l.ProcNS + l.SyncNS + l.MsgNS); tot > 0 {
			ps, ss, ms = float64(l.ProcNS)/tot, float64(l.SyncNS)/tot, float64(l.MsgNS)/tot
		}
		fmt.Fprintf(&b, "  w%-3d %s P %4.1f%% S %4.1f%% M %4.1f%%  ev %-8s fel %-6d lbts %s",
			i, psmBar(ps, ss, 20), 100*ps, 100*ss, 100*ms, count(float64(l.Events)), l.FELDepth, simMS(int64(l.LBTS)))
		if l.Migrations > 0 {
			fmt.Fprintf(&b, " migr %d", l.Migrations)
		}
		if straggler[i] > 0 {
			fmt.Fprintf(&b, " strag %d", straggler[i])
		}
		b.WriteByte('\n')
	}
	if im := v.imb.Summary(); im != nil {
		fmt.Fprintf(&b, "%s\n", im)
	}
	if m.Tool == "unidist" {
		b.WriteString("ranks    ")
		for i, at := range v.seen {
			if at.IsZero() {
				fmt.Fprintf(&b, " r%d waiting", i)
				continue
			}
			mark, age := "up", now.Sub(at)
			if age >= rankStaleAfter {
				mark = "STALE"
			}
			fmt.Fprintf(&b, " r%d %s %.1fs (%d rounds, %s ev)", i, mark, age.Seconds(), lanes[i].Records, count(float64(lanes[i].Events)))
		}
		b.WriteByte('\n')
	}
	if len(v.queues) > 0 {
		b.WriteString("queues    hottest:")
		for _, q := range v.hottest(6) {
			fmt.Fprintf(&b, "  n%d/l%d d%d(max %d)", q.node, q.link, q.depth, q.maxDepth)
			if q.drops > 0 {
				fmt.Fprintf(&b, " drop %d", q.drops)
			}
			if q.util > 0 {
				fmt.Fprintf(&b, " %2.0f%%", 100*q.util)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprint(w, b.String())
}

// eventRate returns events/s over the frames of the last evWindow (the
// whole run while the window is thin), recording this frame's total.
func (v *view) eventRate(now time.Time, events uint64) float64 {
	v.rate = append(v.rate, sample{now, events})
	for len(v.rate) > 1 && now.Sub(v.rate[1].at) > evWindow {
		v.rate = v.rate[1:]
	}
	base := v.rate[0]
	if now.Sub(base.at) < evWindow {
		base = sample{at: time.Unix(0, v.meta.StartUnixNS)}
	}
	if dt := now.Sub(base.at).Seconds(); dt > 0 {
		return float64(events-base.events) / dt
	}
	return 0
}

// hottest returns up to n heatmap cells, busiest first: depth, then drops,
// then (node, link) for a stable tail.
func (v *view) hottest(n int) []*qcell {
	cells := make([]*qcell, 0, len(v.queues))
	for _, c := range v.queues { //unison:ordered cells sorted below
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.depth != b.depth {
			return a.depth > b.depth
		}
		if a.drops != b.drops {
			return a.drops > b.drops
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.link < b.link
	})
	return cells[:min(n, len(cells))]
}

func bar(p float64, width int) string {
	full := int(max(0, min(p, 1)) * float64(width))
	return "[" + strings.Repeat("#", full) + strings.Repeat(".", width-full) + "]"
}

// psmBar renders a worker's time split as one segmented bar.
func psmBar(p, s float64, width int) string {
	pw, sw := int(p*float64(width)), int(s*float64(width))
	return "[" + strings.Repeat("P", pw) + strings.Repeat("S", sw) + strings.Repeat("M", max(width-pw-sw, 0)) + "]"
}

func simMS(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }
func secs(s float64) string { return fmt.Sprintf("%.1fs", s) }

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
