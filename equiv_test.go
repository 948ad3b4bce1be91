package unison_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unison"
	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/dist"
	"unison/internal/faults"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/obs/live"
	"unison/internal/rng"
	"unison/internal/sim"
	"unison/internal/vtime"
)

// The user-transparency contract (DESIGN.md §2) as one table: every
// scenario — fixed, generated, or checked in under testdata/equiv — runs
// under the kernel rows on the observation axes, each run compared with the
// sequential run of the same scenario by one render/compare. The tests named
// after a property are slices of the table; the checks that are not
// equivalences close the file, on the same helpers.

// A kernel is one row of the kernel table: a KernelSpec run through
// Built.RunKernel, the CLIs' own path; a constructor, for what a spec
// cannot name; or, with hosts set, a loopback dist ensemble whose hosts run
// spec.Threads workers each (one when unset).
type kernel struct {
	name  string
	spec  unison.KernelSpec
	run   func(b *unison.BuiltScenario, m *sim.Model) (*sim.RunStats, error)
	hosts int
}

var kernels = []kernel{
	{name: "sequential", spec: unison.KernelSpec{Kind: "sequential"}},
	{name: "unison-1", spec: unison.KernelSpec{Kind: "unison", Threads: 1}},
	{name: "unison-2", spec: unison.KernelSpec{Kind: "unison", Threads: 2}},
	{name: "unison-4", spec: unison.KernelSpec{Kind: "unison", Threads: 4}},
	{name: "unison-5", spec: unison.KernelSpec{Kind: "unison", Threads: 5}},
	{name: "unison-4-pending", spec: unison.KernelSpec{Kind: "unison", Threads: 4}, run: unisonUnder(core.MetricPendingEvents)},
	{name: "unison-4-none", spec: unison.KernelSpec{Kind: "unison", Threads: 4}, run: unisonUnder(core.MetricNone)},
	// hosts × threads per host; hybrid-2 takes the host count of the topology's recipe
	{name: "hybrid-2x2", spec: unison.KernelSpec{Kind: "hybrid", Threads: 2, Ranks: 2}},
	{name: "hybrid-2", spec: unison.KernelSpec{Kind: "hybrid", Threads: 2}},
	{name: "barrier", spec: unison.KernelSpec{Kind: "barrier"}},
	{name: "nullmsg", spec: unison.KernelSpec{Kind: "nullmsg"}},
	{name: "v-seq", spec: unison.KernelSpec{Kind: "vseq"}},
	{name: "v-barrier", spec: unison.KernelSpec{Kind: "vbarrier"}},
	{name: "v-nullmsg", spec: unison.KernelSpec{Kind: "vnullmsg"}},
	{name: "v-unison", spec: unison.KernelSpec{Kind: "vunison", Threads: 4}},
	{name: "v-unison-16-pending", spec: unison.KernelSpec{Kind: "vunison", Threads: 16}, run: func(b *unison.BuiltScenario, m *sim.Model) (*sim.RunStats, error) {
		return vtime.Run(m, vtime.Config{Algo: vtime.Unison, Cores: 16, Metric: core.MetricPendingEvents, Observe: b.Observe})
	}},
	{name: "dist(2)", hosts: 2},
	{name: "dist(2)x2", spec: unison.KernelSpec{Threads: 2}, hosts: 2},
}

// unisonUnder runs Unison(4) under a load metric a KernelSpec cannot name.
func unisonUnder(metric core.Metric) func(*unison.BuiltScenario, *sim.Model) (*sim.RunStats, error) {
	return func(b *unison.BuiltScenario, m *sim.Model) (*sim.RunStats, error) {
		return core.New(core.Config{Threads: 4, Metric: metric, Observe: b.Observe}).Run(m)
	}
}

// pick returns the named rows of the kernel table, in the order given.
func pick(names ...string) (out []kernel) {
	for _, n := range names {
		out = append(out, kernels[slices.IndexFunc(kernels, func(k kernel) bool { return k.name == n })])
	}
	return out
}

// An axis is one way of observing or interrupting a run; it runs k over
// the scenario and compares what that left against the reference.
type axis struct {
	name     string
	run      func(t *testing.T, r *ref, k kernel)
	inproc   bool // observes or snapshots an in-process kernel
	ckpt     bool // snapshots: not on the virtual testbed
	distOnly bool
}

var (
	plainAxis   = axis{name: "plain", run: once(opts{})}
	probeAxis   = axis{name: "probe", run: probedRun, inproc: true}
	netobsAxis  = axis{name: "netobs", run: once(opts{netobs: true})}
	liveAxis    = axis{name: "live", run: liveRun, inproc: true}
	ckptAxis    = axis{name: "ckpt", run: restoreEverySnapshot(spacing{}), inproc: true, ckpt: true}
	crossAxis   = axis{name: "cross-restore", run: crossRestore(spacing{}), inproc: true, ckpt: true}
	killAxis    = axis{name: "kill-restore", run: killRestore, distOnly: true}
	repeatAxis  = axis{name: "repeat", run: func(t *testing.T, r *ref, k kernel) { once(opts{})(t, r, k); once(opts{})(t, r, k) }}
	axes        = []axis{plainAxis, probeAxis, netobsAxis, liveAxis, ckptAxis, crossAxis, killAxis, repeatAxis}
	artifactSet = [...]string{"series.csv", "trace.pcapng", "flow_report.json", "coll_report.json"}
)

// skip is the one place a (scenario, kernel, axis) combination is
// filtered out, by the rules the kernels themselves enforce.
func skip(b *unison.BuiltScenario, k kernel, a axis) bool {
	kind, dist, ranks := k.spec.Kind, k.hosts > 0, max(k.spec.Ranks, k.hosts)
	manual := dist || kind == "hybrid" || kind == "barrier" || kind == "nullmsg" || kind == "vbarrier" || kind == "vnullmsg"
	splits := func(r int) bool { _, err := b.ManualFor(r); return err == nil }
	switch {
	case manual && b.ManualFor == nil:
		return true // no manual recipe (WANs): no barrier, hybrid, null-message or dist
	case manual && ranks > 0 && !splits(ranks):
		return true // nor at a rank count the recipe cannot divide
	case b.Streaming && (dist || kind == "nullmsg" || kind == "vnullmsg"):
		return true // streaming needs global events, which null-message and dist lack
	case a.distOnly && !dist:
		return true // only an ensemble is killed
	case dist && a.inproc:
		return true // probes, the in-process record stream and in-process snapshots are not dist's
	case a.ckpt && strings.HasPrefix(kind, "v"):
		return true // the virtual testbed takes no checkpoints
	}
	return a.name == "cross-restore" && kind == "sequential" // it is the other side of every cross-kernel pair
}

// artifacts is what a run is compared on: its fingerprint, its event
// count and the bundle files it wrote, rendered as the CLIs write them.
type artifacts struct {
	fp, events uint64
	netobs     bool // sampled and traced: series.csv and trace.pcapng count
	files      [len(artifactSet)][]byte
}

// ref is a scenario's sequential reference — the run every other run of
// the scenario is compared against — and its build, which the filter reads.
// fused is, per kernel row, the fused-round count its first run reported.
type ref struct {
	artifacts
	sc    *unison.Scenario
	b     *unison.BuiltScenario
	mu    sync.Mutex
	fused map[string]uint64
}

// refs caches references by canonical scenario: slices of one scenario share one.
var refs = map[string]*ref{}

func reference(t *testing.T, sc *unison.Scenario) *ref {
	t.Helper()
	key, _ := sc.Marshal() // a scenario struct always marshals
	if r := refs[string(key)]; r != nil {
		return r
	}
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := run(t, sc, kernels[0], opts{netobs: true})
	if a.fp == 0 || len(a.files[0]) == 0 || len(a.files[1]) == 0 || unfinished(sc, a) {
		t.Fatalf("%s: a reference that did nothing makes every comparison vacuous: fingerprint %016x, %d B of series.csv, %d B of trace.pcapng, unfinished %t",
			sc.Name, a.fp, len(a.files[0]), len(a.files[1]), unfinished(sc, a))
	}
	refs[string(key)] = &ref{artifacts: a, sc: sc, b: b, fused: map[string]uint64{}}
	return refs[string(key)]
}

// sameFused fails t unless st fused as many rounds as every other run of k
// on r's scenario from its start: which windows are fused depends on the
// windows alone, which observing, snapshotting or repeating a run changes
// no more than it changes the run's events.
func (r *ref) sameFused(t *testing.T, what string, k kernel, st *sim.RunStats) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.fused[k.name]; !ok {
		r.fused[k.name] = st.FusedRounds
	} else if st.FusedRounds != first {
		t.Errorf("%s: %d rounds fused, another run %d", what, st.FusedRounds, first)
	}
}

// unfinished reports whether a run completed no flow or, in a collective
// scenario, stopped before the collective finished.
func unfinished(sc *unison.Scenario, a artifacts) bool {
	var fr, cr struct {
		Completed    int
		CompletionNS int64 `json:"completion_ns"`
	}
	_ = json.Unmarshal(a.files[2], &fr)
	return fr.Completed == 0 || sc.Collective != nil && (json.Unmarshal(a.files[3], &cr) != nil || cr.CompletionNS < 0)
}

// compare fails t unless got has the reference's fingerprint, event count and,
// byte for byte, files — the sampler's and tracer's if the run had them on.
func compare(t *testing.T, what string, got artifacts, r *ref) {
	t.Helper()
	if got.fp != r.fp {
		t.Errorf("%s: fingerprint %016x, sequential %016x", what, got.fp, r.fp)
	}
	if got.events != r.events {
		t.Errorf("%s: %d events, sequential %d", what, got.events, r.events)
	}
	for i, f := range got.files {
		if (i >= 2 || got.netobs) && !bytes.Equal(f, r.files[i]) {
			t.Errorf("%s: %s differs (%d bytes, sequential %d)", what, artifactSet[i], len(f), len(r.files[i]))
		}
	}
}

// render serializes a finished run's bundle as the bundle writer does;
// files the run did not observe stay nil.
func render(t *testing.T, rows []netobs.Row, bu *netobs.Bundle) artifacts {
	t.Helper()
	var out [len(artifactSet)]bytes.Buffer
	var err error
	if len(rows) > 0 {
		err = netobs.WriteCSV(&out[0], rows, netobs.DefaultInterval)
	}
	if len(bu.Trace) > 0 {
		err = errors.Join(err, netobs.WritePcapng(&out[1], bu.Trace, netobs.FlowTable(bu.Mon)))
	}
	err = errors.Join(err, bu.Mon.Report(flowmon.ReportConfig{RefBandwidthBps: 1_000_000_000}).WriteJSON(&out[2]))
	if bu.Coll != nil {
		err = errors.Join(err, json.NewEncoder(&out[3]).Encode(bu.Coll))
	}
	if err != nil {
		t.Fatal(err)
	}
	a := artifacts{fp: bu.Mon.Fingerprint()}
	for i := range out {
		a.files[i] = out[i].Bytes()
	}
	return a
}

// opts is what a run attaches or does besides running.
type opts struct {
	netobs bool
	probe  obs.Probe
	live   *[]byte // non-nil: write the bundle and its record stream into dir, and what a watcher read from /live here
	dir    string  // snapshots: written sp apart, or resumed from round from; the live run's bundle
	sp     spacing
	from   uint64
	kill   int // dist: the first host's connection dies after this many writes
}

func build(sc *unison.Scenario, spec unison.KernelSpec) (*unison.BuiltScenario, error) {
	c := *sc
	c.Kernel = spec
	return c.Build()
}

// run executes sc once under k with o attached and renders what it left.
func run(t *testing.T, sc *unison.Scenario, k kernel, o opts) (artifacts, *sim.RunStats) {
	t.Helper()
	exec := local
	if k.hosts > 0 {
		exec = ensemble
	}
	a, st, errs := exec(t, sc, k, o)
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	a.events, a.netobs = st.Events, o.netobs
	if k.hosts > 0 || k.spec.Kind == "nullmsg" || k.spec.Kind == "vnullmsg" {
		a.events++ // null-message and dist never execute the stop event: the one rule on event counts
	}
	return a, st
}

// local is run's in-process half; its one endpoint's error is returned.
func local(t *testing.T, sc *unison.Scenario, k kernel, o opts) (artifacts, *sim.RunStats, []error) {
	b, err := build(sc, k.spec)
	if err != nil {
		return artifacts{}, nil, []error{err}
	}
	if o.netobs {
		b.Sim.EnableNetObs(0, 0)
	}
	m := b.Sim.Model()
	if every := o.sp.rounds; o.sp != (spacing{}) {
		if k.spec.Kind == "sequential" {
			every = o.sp.events
		}
		app.EnableCheckpoints(m, b.Sim.CkptTarget(), o.dir, every, o.sp.time, nil)
	}
	if o.from > 0 {
		if err := app.Restore(m, b.Sim.CkptTarget(), app.CheckpointPath(o.dir, o.from)); err != nil {
			return artifacts{}, nil, []error{err}
		}
	}
	b.Observe = o.probe
	var stream *live.Stream
	finish := func() {}
	var imb *obs.ImbalanceTracker
	var watched chan []byte
	if o.live != nil {
		// The CLIs' wiring: a tracker and the stream, a watcher attached
		// before the run starts.
		sam := b.Sim.Net.Sampler()
		if stream, err = live.Create(filepath.Join(o.dir, netobs.RecordsFile), "equiv", sc.Stop.T(), sam.Interval()); err != nil {
			return artifacts{}, nil, []error{err}
		}
		defer stream.Close()
		if watched, err = watch(stream); err != nil {
			return artifacts{}, nil, []error{err}
		}
		imb = obs.NewImbalanceTracker()
		b.Observe = obs.Tee(imb, stream)
		var feed sim.Pause
		feed, finish = sam.Feed(stream.Rows)
		m.Pauses = append([]sim.Pause{feed}, m.Pauses...)
	}
	exec := b.RunKernel
	if k.run != nil {
		exec = func(m *sim.Model) (*sim.RunStats, error) { return k.run(b, m) }
	}
	st, err := exec(m)
	if err != nil {
		return artifacts{}, nil, []error{err}
	}
	imb.Apply(st)
	// The CLIs' ending: the feed's last rows, every line on disk, the
	// bundle rendered from the stream, the stats line last.
	finish()
	var rows []netobs.Row
	if sam := b.Sim.Net.Sampler(); sam != nil {
		sam.Flush()
		rows = sam.Rows()
	}
	bu := b.Bundle("equiv", st)
	a := render(t, rows, bu)
	if o.live != nil {
		err := stream.Flush()
		if err == nil {
			_, err = bu.Write(o.dir)
		}
		if err == nil {
			err = stream.Finish(st)
		}
		if err != nil {
			return artifacts{}, nil, []error{err}
		}
		*o.live = <-watched
	}
	return a, st, nil
}

// watch attaches a watcher to the stream's /live endpoint and returns the
// channel its whole body arrives on.
func watch(stream *live.Stream) (chan []byte, error) {
	addr, err := stream.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	resp, err := http.Get("http://" + addr + "/live")
	if err != nil {
		return nil, err
	}
	body := make(chan []byte, 1)
	go func() {
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body) // a short read compares unequal
		body <- b
	}()
	return body, nil
}

// ensemble runs sc on a loopback cluster, each host building its own copy and
// checkpointing through Sim.CkptTarget as unidist does, and renders the
// coordinator's merge. It returns the coordinator's error, then each host's.
func ensemble(t *testing.T, sc *unison.Scenario, k kernel, o opts) (artifacts, *sim.RunStats, []error) {
	t.Helper()
	b, err := build(sc, unison.KernelSpec{})
	var hostOf []int32
	if err == nil {
		hostOf, err = b.ManualFor(k.hosts)
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return artifacts{}, nil, []error{err}
	}
	defer ln.Close()
	var l net.Listener = ln
	if o.kill > 0 {
		l = faults.WrapListener(ln, 0, faults.Plan{Action: faults.Close, After: o.kill})
	}
	// The rows reach the coordinator in the hosts' sidebands, as unidist
	// takes them into its stream.
	var rows []netobs.Row
	cfg := dist.CoordConfig{
		Hosts: k.hosts, StopAt: sc.Stop.T(), Flows: b.Sim.Mon.Flows(), MaxRounds: 10_000_000,
		Timeout: 10 * time.Second, Net: &dist.NetData{}, Stats: &sim.RunStats{},
		OnSideband: func(_ int, side *dist.Sideband) { rows = append(rows, side.Rows...) },
	}
	var mon *flowmon.Monitor
	errs := make([]error, k.hosts+1)
	var wg sync.WaitGroup
	wg.Add(k.hosts + 1)
	go func() {
		defer wg.Done()
		mon, _, errs[0] = dist.RunCoordinator(l, cfg)
	}()
	for h := range int32(k.hosts) {
		go func() {
			defer wg.Done()
			hb, err := build(sc, unison.KernelSpec{})
			if err != nil {
				errs[h+1] = err
				return
			}
			if o.netobs {
				hb.Sim.EnableNetObs(0, 0)
			}
			hc := dist.HostConfig{
				ID: h, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: sc.Stop.T(), Threads: k.spec.Threads,
				Timeout: 10 * time.Second, DialAttempts: 3, DialBackoff: 20 * time.Millisecond,
			}
			if o.sp.rounds > 0 || o.from > 0 {
				hc.Ckpt, hc.CheckpointDir, hc.CheckpointEvery = hb.Sim.CkptTarget(), o.dir, o.sp.rounds
			}
			if o.from > 0 {
				hc.RestoreFrom = dist.CheckpointFile(o.dir, o.from, h)
			}
			_, errs[h+1] = dist.RunHost(hc, hb.Sim.Model(), hb.Sim.Net, hb.Sim.Mon)
		}()
	}
	if wg.Wait(); errors.Join(errs...) != nil {
		return artifacts{}, nil, errs
	}
	netobs.SortRows(rows)
	bu := &netobs.Bundle{Mon: mon, Trace: cfg.Net.Trace}
	if cr := b.Sim.CollReport(mon); cr != nil {
		bu.Coll = cr
	}
	return render(t, rows, bu), cfg.Stats, nil
}

// snapshotRounds lists, oldest first, the rounds in dir that each of the
// run's writers — one in process, one per dist host — saved a snapshot of.
func snapshotRounds(dir string, writers int) (out []uint64) {
	ents, _ := os.ReadDir(dir) // sorted by name, and so by round; none if dir is missing
	saved := map[uint64]int{}
	for _, e := range ents {
		var r uint64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-r%d", &r); err == nil {
			if saved[r]++; saved[r] == writers {
				out = append(out, r)
			}
		}
	}
	return out
}

// spacing is how often a run snapshots: executed events for the sequential
// kernel, simulated time for null-message (it has no global rounds), rounds
// for the rest. The zero spacing takes about three, paced by a plain run.
type spacing struct {
	events, rounds uint64
	time           sim.Time
}

// snapshots runs k writing snapshots sp apart into a fresh directory and
// returns the directory, the rounds, and the rounds the run fused. Every
// run must match the reference.
func snapshots(t *testing.T, r *ref, k kernel, sp spacing) (string, []uint64, []uint64) {
	t.Helper()
	if sp == (spacing{}) {
		got, st := run(t, r.sc, k, opts{})
		compare(t, "run", got, r)
		r.sameFused(t, "run", k, st)
		sp = spacing{max(1, st.Events/4), max(1, st.Rounds/4), r.sc.Stop.T() / 4}
	}
	dir, reg := t.TempDir(), obs.NewRegistry(1<<20)
	got, st := run(t, r.sc, k, opts{netobs: true, dir: dir, sp: sp, probe: reg})
	compare(t, "checkpointing run", got, r)
	r.sameFused(t, "checkpointing run", k, st)
	rounds := snapshotRounds(dir, 1)
	if len(rounds) == 0 {
		t.Fatal("the run wrote no snapshot")
	}
	var fused []uint64
	for _, rec := range reg.Records() {
		if rec.Fused && rec.Worker == 0 {
			fused = append(fused, rec.Round)
		}
	}
	return dir, rounds, fused
}

// once runs k once with o attached: nothing, or the sampler and tracer.
func once(o opts) func(*testing.T, *ref, kernel) {
	return func(t *testing.T, r *ref, k kernel) {
		got, st := run(t, r.sc, k, o)
		compare(t, "run", got, r)
		r.sameFused(t, "run", k, st)
	}
}

// probedRun attaches a Registry, which may change nothing, and requires
// its records to account for every event and its final stats to arrive.
func probedRun(t *testing.T, r *ref, k kernel) {
	reg := obs.NewRegistry(1)
	got, st := run(t, r.sc, k, opts{probe: reg})
	compare(t, "probed run", got, r)
	r.sameFused(t, "probed run", k, st)
	workers, dropped := reg.Totals()
	var events, records uint64
	for _, w := range workers {
		events, records = events+w.Events, records+w.Records
	}
	if final := reg.Final(); final == nil || final.Events != st.Events || events != st.Events || dropped > 0 {
		t.Errorf("the registry saw %d of %d events (done %t, %d records dropped)", events, st.Events, final != nil, dropped)
	}
	if st.Rounds > 1 && records < 2 {
		t.Errorf("%d rounds reported in %d records", st.Rounds, records)
	}
}

// liveRun writes the record stream while a watcher follows it over /live,
// which may change nothing. The watcher reads the bundle's records.ndjson
// byte for byte; its last line is the run_stats.json; its round lines,
// folded as unimon folds them, count every event and give the run's
// imbalance diagnostics exactly; and the series.csv the bundle rendered
// from its row lines is the one the sampler's own rows render.
func liveRun(t *testing.T, r *ref, k kernel) {
	dir := t.TempDir()
	var watched []byte
	got, st := run(t, r.sc, k, opts{netobs: true, live: &watched, dir: dir})
	compare(t, "live-attached run", got, r)
	r.sameFused(t, "live-attached run", k, st)
	file, err := os.ReadFile(filepath.Join(dir, netobs.RecordsFile))
	if err != nil || !bytes.Equal(watched, file) {
		t.Fatalf("a watcher read %d B from /live; the bundle's %s has %d B (%v)", len(watched), netobs.RecordsFile, len(file), err)
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "series.csv")); err != nil || !bytes.Equal(csv, got.files[0]) {
		t.Errorf("the bundle's series.csv, rendered from the stream, has %d B; the sampler's rows render %d B (%v)", len(csv), len(got.files[0]), err)
	}
	reg, imb := obs.NewRegistry(1), obs.NewImbalanceTracker()
	var last *sim.RunStats
	err = netobs.ReadRecords(bytes.NewReader(file), func(_ []byte, rec *netobs.Record) error {
		if m := rec.Meta; m != nil {
			meta := obs.RunMeta{Kernel: m.Kernel, Workers: m.Workers, LPs: m.LPs}
			reg.BeginRun(meta)
			imb.BeginRun(meta)
		} else if rec.Round != nil {
			reg.OnRound(rec.Round)
			imb.OnRound(rec.Round)
		}
		last = rec.Stats
		return nil
	})
	raw, _ := os.ReadFile(filepath.Join(dir, "run_stats.json"))
	var want sim.RunStats
	_ = json.Unmarshal(raw, &want) // a missing or broken file compares unequal
	if err != nil || last == nil || want.Imbalance == nil || !reflect.DeepEqual(&want, last) {
		t.Errorf("the stream's last line != run_stats.json (%v)\n line: %+v\n file: %+v", err, last, &want)
	}
	lanes, dropped := reg.Totals()
	var events uint64
	for _, l := range lanes {
		events += l.Events
	}
	if events != st.Events || dropped > 0 {
		t.Errorf("the stream's round lines count %d events (%d dropped); the run executed %d", events, dropped, st.Events)
	}
	if im := imb.Summary(); !reflect.DeepEqual(im, st.Imbalance) {
		t.Errorf("the stream's round lines fold to %v; the run's stats say %v", im, st.Imbalance)
	}
}

// restoreEverySnapshot resumes k from each of its snapshots. A resumed run
// fuses the rounds after its first that the uninterrupted run fused.
func restoreEverySnapshot(sp spacing) func(*testing.T, *ref, kernel) {
	return func(t *testing.T, r *ref, k kernel) {
		dir, rounds, fused := snapshots(t, r, k, sp)
		for _, from := range rounds {
			what := fmt.Sprintf("restored from round %d", from)
			got, st := run(t, r.sc, k, opts{netobs: true, dir: dir, from: from})
			compare(t, what, got, r)
			var after uint64
			for _, f := range fused {
				if f > from {
					after++
				}
			}
			if st.FusedRounds != after {
				t.Errorf("%s: %d rounds fused, the uninterrupted run fused %d after it", what, st.FusedRounds, after)
			}
		}
	}
}

// crossRestore: all kernels execute one total order, so the sequential kernel
// resumes k's middle snapshot, and k the sequential kernel's and, where the
// scenario has it, null-message's (which has no global rounds).
func crossRestore(sp spacing) func(*testing.T, *ref, kernel) {
	return func(t *testing.T, r *ref, k kernel) {
		pairs := [][2]kernel{{k, kernels[0]}, {kernels[0], k}}
		if nm := pick("nullmsg")[0]; k.name != nm.name && !skip(r.b, nm, plainAxis) {
			pairs = append(pairs, [2]kernel{nm, k})
		}
		for _, p := range pairs {
			dir, rounds, _ := snapshots(t, r, p[0], sp)
			mid := rounds[len(rounds)/2]
			got, _ := run(t, r.sc, p[1], opts{netobs: true, dir: dir, from: mid})
			compare(t, fmt.Sprintf("%s resuming %s's round %d", p[1].name, p[0].name, mid), got, r)
		}
	}
}

// killRestore kills a host's connection mid-run and restarts the ensemble from
// the last round every host snapshotted. The coordinator writes a host one
// frame a round, so killing the connection at write Rounds/2 of a plain run
// lands halfway through.
func killRestore(t *testing.T, r *ref, k kernel) {
	_, st := run(t, r.sc, k, opts{})
	o := opts{netobs: true, dir: t.TempDir(), sp: spacing{rounds: max(1, st.Rounds/8)}, kill: max(1, int(st.Rounds)/2)}
	if _, _, errs := ensemble(t, r.sc, k, o); errs[0] == nil || errors.Join(errs[1:]...) == nil {
		t.Fatalf("the injected kill reached the coordinator as %v and the hosts as %v; want both to fail", errs[0], errs[1:])
	}
	rounds := snapshotRounds(o.dir, k.hosts)
	if len(rounds) == 0 {
		t.Fatal("the killed run left no round every host snapshotted")
	}
	from := rounds[len(rounds)-1]
	if from == 0 || from >= st.Rounds {
		t.Fatalf("the last round every host snapshotted is %d; a kill inside the run of %d rounds leaves one between", from, st.Rounds)
	}
	got, rst := run(t, r.sc, k, opts{netobs: true, dir: o.dir, from: from})
	compare(t, fmt.Sprintf("killed and restored from round %d", from), got, r)
	if rst.Rounds != st.Rounds {
		t.Errorf("restored from round %d, the merged stats count %d rounds; the run has %d", from, rst.Rounds, st.Rounds)
	}
}

// equiv runs every (axis, kernel) pair skip lets through as a subtest named
// axis/kernel, or kernel for one axis. A failing pair saves its scenario,
// ready to be checked in under testdata/equiv as a regression row.
func equiv(t *testing.T, r *ref, as []axis, ks []kernel) {
	t.Helper()
	for _, a := range as {
		for _, k := range ks {
			if skip(r.b, k, a) {
				continue
			}
			name := k.name
			if len(as) > 1 {
				name = a.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				defer func() {
					if path := filepath.Join(os.TempDir(), r.sc.Name+".scenario.json"); t.Failed() && r.sc.Save(path) == nil {
						t.Logf("kernel %s, axis %s: scenario saved to %s", k.name, a.name, path)
					}
				}()
				a.run(t, r, k)
			})
		}
	}
}

// --- Scenarios ---

// fatTree is the k=4, 1 Gbps fat-tree the hand-built cases all ran: gRPC
// flows arriving over the first half of the run.
func fatTree(name string, seed uint64, load, incast float64, stop sim.Time) *unison.Scenario {
	sc := unison.DefaultScenario()
	sc.Name, sc.Seed, sc.Stop = name, seed, unison.ScenarioDuration(stop)
	sc.Topology.BwGbps = 1
	sc.Traffic = &unison.TrafficSpec{Load: load, Sizes: "grpc", Incast: incast, End: unison.ScenarioDuration(stop / 2)}
	return sc
}

// ckptScenario is the checkpoint and artifact tests' case, snapshotted
// ckptSpacing apart: six or so snapshots per kernel.
func ckptScenario() *unison.Scenario { return fatTree("ckpt", 42, 0.4, 0, 2*sim.Millisecond) }

var ckptSpacing = spacing{events: 1_000, rounds: 100, time: 400 * sim.Microsecond}

// streamScenario is the k=8 streamed workload, materialized when stream is false.
func streamScenario(stream bool) *unison.Scenario {
	sc := fatTree("stream", 42, 0.4, 0, 2*sim.Millisecond)
	sc.Topology.K, sc.Traffic.Stream = 8, stream
	return sc
}

// collScenario is a collective workload on the default fat-tree; the
// parameter server adds incast at rank 0 and two chained iterations.
func collScenario(pattern string) *unison.Scenario {
	sc := unison.DefaultScenario()
	sc.Name, sc.Stop, sc.Traffic = "coll-"+pattern, unison.ScenarioDuration(4*sim.Millisecond), nil
	sc.Collective = &unison.CollectiveSpec{Pattern: pattern, MessageBytes: 256 << 10, ChunkBytes: 64 << 10}
	if pattern == "paramserver" {
		sc.Stop = unison.ScenarioDuration(12 * sim.Millisecond)
		sc.Collective.Participants, sc.Collective.MessageBytes, sc.Collective.Iters = 9, 128<<10, 2
	}
	return sc
}

// generated is the fixed list of generated scenarios: scenario i draws every
// knob below with internal/rng, cycling through the seven topology kinds.
// The load doubles until there are a few flows (web-search flows are large
// and rare), then the stop until a flow and the collective finish.
func generated(t *testing.T) []*unison.Scenario {
	kinds := []string{"fattree", "torus", "bcube", "spineleaf", "dumbbell", "geant", "chinanet"}
	var out []*unison.Scenario
	for i := 0; i < 16; i++ {
		r := rng.New(0xe9, uint64(i))
		in := func(lo, hi int) int { return lo + r.Intn(hi-lo+1) }
		one := func(xs ...string) string { return xs[r.Intn(len(xs))] }
		sc := unison.DefaultScenario()
		topo := unison.TopologySpec{Kind: kinds[i%len(kinds)], BwGbps: float64(in(1, 10)), Delay: unison.ScenarioDuration(in(100, 20_000))}
		switch topo.Kind {
		case "torus":
			topo.Rows, topo.Cols = in(3, 4), in(3, 4)
		case "bcube", "dumbbell":
			topo.N = in(2, 4)
		case "spineleaf":
			topo.Spines, topo.Leaves, topo.N = in(1, 3), in(2, 4), in(1, 3)
		}
		sc.Name, sc.Seed, sc.Topology = fmt.Sprintf("gen-%02d-%s", i, topo.Kind), r.Uint64(), topo
		sc.Stop = unison.ScenarioDuration(sim.Time(in(200, 500)) * sim.Microsecond)
		sc.Protocol.Queue = app.QueueSpec{Kind: one("droptail", "red", "dctcp", "pfifo", "codel"), MaxPkts: in(8, 100)}
		sc.Protocol.TCP.Variant, sc.Protocol.TCP.DelayedAck = one("newreno", "dctcp"), &[]bool{true, false}[r.Intn(2)]
		sc.Traffic = &unison.TrafficSpec{Load: 0.1 + 0.5*r.Float64(), Sizes: one("grpc", "websearch"), Stream: r.Intn(2) == 0}
		sc.Traffic.Incast = 0.5 * float64(r.Intn(2))
		if topo.Kind == "geant" || topo.Kind == "chinanet" {
			// Millisecond links: a web-search flow would not see its first ACK.
			sc.Stop, sc.Traffic.Sizes = sc.Stop*10, "grpc"
		}
		sc.Traffic.End = sc.Stop * 3 / 4 // a longer run only drains
		if r.Intn(3) == 0 {
			sc.Collective = &unison.CollectiveSpec{
				Pattern:      one("ring-allreduce", "tree-allreduce", "alltoall", "paramserver"),
				Participants: in(2, 4), MessageBytes: int64(in(8, 64)) << 10, ChunkBytes: 8 << 10,
			}
		}
		for b, err := sc.Build(); err != nil || b.Flows < 3; b, err = sc.Build() {
			if err != nil {
				t.Fatal(err)
			}
			sc.Traffic.Load *= 2
		}
		for a, _ := run(t, sc, kernels[0], opts{}); unfinished(sc, a); a, _ = run(t, sc, kernels[0], opts{}) {
			if sc.Stop *= 2; sc.Stop > unison.ScenarioDuration(sim.Second) {
				t.Fatalf("%s: nothing finishes", sc.Name)
			}
		}
		out = append(out, sc)
	}
	return out
}

// --- The table ---

// TestEquivalenceQuick: a checked-in regression under every kernel on every
// axis; a generated scenario under every kernel on the plain axis, and under
// the sequential kernel and two rotating ones on every axis.
func TestEquivalenceQuick(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "equiv", "*.scenario.json"))
	for _, f := range files {
		sc, err := unison.LoadScenario(f)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) { equiv(t, reference(t, sc), axes, kernels) })
	}
	for i, sc := range generated(t) {
		t.Run(sc.Name, func(t *testing.T) {
			r := reference(t, sc)
			equiv(t, r, axes[:1], kernels)
			// The last row, dist(2)x2, runs the other axes in the slices
			// below, so that every scenario keeps the pairs it has run.
			rest := kernels[1 : len(kernels)-1]
			equiv(t, r, axes[1:], []kernel{kernels[0], rest[2*i%len(rest)], rest[(2*i+1)%len(rest)]})
		})
	}
}

// slice runs one axis of the table over one scenario under the named kernels.
func slice(t *testing.T, sc *unison.Scenario, a axis, names ...string) {
	equiv(t, reference(t, sc), []axis{a}, pick(names...))
}

// TestCrossKernelEquivalence: every kernel row, one fat-tree with incast.
func TestCrossKernelEquivalence(t *testing.T) {
	equiv(t, reference(t, fatTree("cross", 42, 0.5, 0.2, 4*sim.Millisecond)), []axis{plainAxis}, kernels)
}

// TestRepeatedRunsDeterministic: Fig 11's property, all-incast load.
func TestRepeatedRunsDeterministic(t *testing.T) {
	slice(t, fatTree("repeat", 7, 0.5, 1.0, 2*sim.Millisecond), repeatAxis, "unison-4", "dist(2)x2")
}

// TestProbedRunsBitIdentical: a Registry changes nothing and sees every event.
func TestProbedRunsBitIdentical(t *testing.T) {
	slice(t, fatTree("probe", 42, 0.5, 0.2, 2*sim.Millisecond), probeAxis, "sequential", "unison-4", "hybrid-2x2", "barrier", "nullmsg", "v-unison")
}

// TestArtifactsIdenticalAcrossKernels: the bundle is a function of the scenario.
func TestArtifactsIdenticalAcrossKernels(t *testing.T) {
	slice(t, ckptScenario(), netobsAxis, "unison-2", "unison-4", "hybrid-2", "barrier", "nullmsg")
}

// TestArtifactsIdenticalDistributed: the coordinator's merge is the same bundle.
func TestArtifactsIdenticalDistributed(t *testing.T) {
	slice(t, ckptScenario(), netobsAxis, "dist(2)", "dist(2)x2")
}

// TestCheckpointRestoreRoundTrip: a run resumed from any of its snapshots.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	a := ckptAxis
	a.run = restoreEverySnapshot(ckptSpacing)
	slice(t, ckptScenario(), a, "sequential", "unison-2", "unison-4", "hybrid-2x2", "barrier", "nullmsg")
}

// TestFusionTakesBothPaths: the ring all-reduce, which the harness also
// snapshots and restores under Unison (TestCollectiveCheckpointRestore), has
// windows small enough to run on one worker and windows big enough to share,
// so the table exercises both round paths and the hand-offs between them.
func TestFusionTakesBothPaths(t *testing.T) {
	r := reference(t, collScenario("ring-allreduce"))
	for _, k := range pick("unison-2", "unison-4") {
		if _, st := run(t, r.sc, k, opts{}); st.FusedRounds == 0 || st.FusedRounds >= st.Rounds {
			t.Errorf("%s fused %d of %d rounds, want some but not all", k.name, st.FusedRounds, st.Rounds)
		}
	}
}

// TestCheckpointCrossKernelRestore: snapshots are portable between kernels.
func TestCheckpointCrossKernelRestore(t *testing.T) {
	a := crossAxis
	a.run = crossRestore(ckptSpacing)
	slice(t, ckptScenario(), a, "unison-2", "hybrid-2x2", "barrier", "nullmsg")
}

// TestDistKillAndRestore: an ensemble killed mid-run and resumed.
func TestDistKillAndRestore(t *testing.T) {
	slice(t, fatTree("kill", 99, 0.4, 0, sim.Millisecond), killAxis, "dist(2)", "dist(2)x2")
}

// TestStreamingProbesInvisible: the k=8 streamed run, nothing attached.
func TestStreamingProbesInvisible(t *testing.T) {
	slice(t, streamScenario(true), plainAxis, "sequential")
}

// TestStreamingArtifactsIdenticalAcrossKernels: the k=8 streamed run, observed.
func TestStreamingArtifactsIdenticalAcrossKernels(t *testing.T) {
	slice(t, streamScenario(true), netobsAxis, "unison-2", "unison-4", "hybrid-2", "barrier", "nullmsg")
}

// collectives runs one axis over both collective scenarios.
func collectives(t *testing.T, a axis, names ...string) {
	for _, p := range []string{"ring-allreduce", "paramserver"} {
		t.Run(p, func(t *testing.T) { slice(t, collScenario(p), a, names...) })
	}
}

// TestCollectiveIdenticalAcrossKernels: the DAG releases in one order.
func TestCollectiveIdenticalAcrossKernels(t *testing.T) {
	collectives(t, plainAxis, "unison-2", "unison-4", "hybrid-2", "barrier", "nullmsg")
}

// TestCollectiveIdenticalDistributed: two ranks own halves of the DAG.
func TestCollectiveIdenticalDistributed(t *testing.T) {
	collectives(t, plainAxis, "dist(2)", "dist(2)x2")
}

// TestCollectiveCheckpointRestore: the DAG's wait counters are snapshotted.
func TestCollectiveCheckpointRestore(t *testing.T) { collectives(t, ckptAxis, "unison-4") }

// TestLiveAttachDoesNotPerturbArtifacts: the CLIs' default scenario, by kind.
func TestLiveAttachDoesNotPerturbArtifacts(t *testing.T) {
	r := reference(t, unison.DefaultScenario())
	for _, k := range pick("sequential", "unison-4", "hybrid-2", "barrier", "nullmsg") {
		t.Run(k.spec.Kind, func(t *testing.T) { liveRun(t, r, k) })
	}
}

// --- Checks that are not equivalences ---

// observed builds sc sampled and traced and returns it with its model.
func observed(t *testing.T, sc *unison.Scenario) (*unison.BuiltScenario, *sim.Model) {
	t.Helper()
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Sim.EnableNetObs(0, 0)
	return b, b.Sim.Model()
}

// TestStreamingMatchesMaterializedArtifacts: pumping the workload on
// demand is invisible in every exported byte.
func TestStreamingMatchesMaterializedArtifacts(t *testing.T) {
	r := reference(t, streamScenario(false))
	got, _ := run(t, streamScenario(true), kernels[0], opts{netobs: true})
	got.events = r.events // the pump's own global events are all streaming adds
	compare(t, "streamed", got, r)
}

// TestCheckpointRestoreRoundTripReservedIdentities: a restored run redeems
// the identities reserved and unused at the snapshot. It resumes snapshots
// where those are only layer state — a transmitter mid-frame with no drain
// pending (the next arrival puts it, as (node, txSeq)), a timer popping
// short of its deadline (it puts itself again, as (node, seq)) — read off
// the layers by field name: neither should grow an exported face for this.
func TestCheckpointRestoreRoundTripReservedIdentities(t *testing.T) {
	r := reference(t, ckptScenario())
	for _, k := range pick("sequential", "unison-2") {
		dir := t.TempDir()
		run(t, r.sc, k, opts{netobs: true, dir: dir, sp: spacing{events: 1_000, rounds: 40}})
		caught := 0
		for _, from := range snapshotRounds(dir, 1) {
			b, m := observed(t, r.sc)
			if err := app.Restore(m, b.Sim.CkptTarget(), app.CheckpointPath(dir, from)); err != nil {
				t.Fatal(err)
			}
			now := int64(m.Restore.Now)
			owed, short := 0, 0
			b.Sim.Net.Devices(func(d *netdev.Device) {
				v := reflect.ValueOf(d).Elem()
				if v.FieldByName("freeAt").Int() > now && !v.FieldByName("busy").Bool() {
					owed++
				}
			})
			hosts := reflect.ValueOf(b.Sim.Stack).Elem().FieldByName("hosts")
			for h := 0; h < hosts.Len(); h++ {
				chunks := hosts.Index(h).FieldByName("arena").FieldByName("chunks")
				for c := 0; c < chunks.Len(); c++ {
					for i := 0; i < chunks.Index(c).Len(); i++ {
						tm := chunks.Index(c).Index(i).FieldByName("timer")
						if p := tm.FieldByName("pendAt").Int(); p != 0 && p < tm.FieldByName("deadline").Int() {
							short++
						}
					}
				}
			}
			if owed == 0 || short == 0 {
				continue
			}
			caught++
			got, _ := run(t, r.sc, k, opts{netobs: true, dir: dir, from: from})
			compare(t, fmt.Sprintf("%s restored from round %d (drains owed, timers short of their deadline)", k.name, from), got, r)
		}
		t.Logf("%s: %d snapshots caught both states", k.name, caught)
		if caught < 2 {
			t.Errorf("%s: %d snapshots caught a drain owed and a timer short of its deadline, want several", k.name, caught)
		}
	}
}

// TestRestoreRejectsMismatchedConfig pins the config-hash guard: a
// snapshot from one scenario must not load into a differently built one.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	run(t, ckptScenario(), kernels[0], opts{netobs: true, dir: dir, sp: ckptSpacing})
	other := ckptScenario()
	other.Seed++
	b, m := observed(t, other)
	if err := app.Restore(m, b.Sim.CkptTarget(), app.CheckpointPath(dir, snapshotRounds(dir, 1)[0])); err == nil {
		t.Fatal("restore into a differently configured scenario succeeded; want config hash mismatch")
	}
}

// TestSnapshotBytesIndependentOfWorkers: Unison with 1, 2, 4 threads and
// hybrid 2×1 (the same rounds) write the same rounds' snapshots, byte for
// byte, each restoring to the plain run. Under -race it also checks that no
// two layers' CkptSave share state: nothing else runs them at once.
func TestSnapshotBytesIndependentOfWorkers(t *testing.T) {
	r := reference(t, ckptScenario())
	ks := append(pick("unison-1", "unison-2", "unison-4"), kernel{name: "hybrid-2x1", spec: unison.KernelSpec{Kind: "hybrid", Threads: 1, Ranks: 2}})
	var dirs []string
	var rounds []uint64
	for i, k := range ks {
		dirs = append(dirs, t.TempDir())
		got, _ := run(t, r.sc, k, opts{netobs: true, dir: dirs[i], sp: spacing{rounds: 150}})
		compare(t, k.name+" (checkpointing run)", got, r)
		if mine := snapshotRounds(dirs[i], 1); i == 0 {
			rounds = mine
		} else if !slices.Equal(mine, rounds) {
			t.Fatalf("%s snapshotted rounds %v, %s %v", k.name, mine, ks[0].name, rounds)
		}
	}
	if len(rounds) < 2 {
		t.Fatalf("%d snapshots, want several", len(rounds))
	}
	for i, from := range rounds { // identical files restore identically: each once, the kernels in turn
		first, err := os.ReadFile(app.CheckpointPath(dirs[0], from))
		for j, dir := range dirs[1:] {
			if img, err2 := os.ReadFile(app.CheckpointPath(dir, from)); err != nil || err2 != nil || !bytes.Equal(img, first) {
				t.Errorf("%s: round %d snapshot (%d bytes) differs from %s's (%d bytes): %v", ks[j+1].name, from, len(img), ks[0].name, len(first), errors.Join(err, err2))
			}
		}
		k := ks[i%len(ks)]
		got, _ := run(t, r.sc, k, opts{netobs: true, dir: dirs[0], from: from})
		compare(t, fmt.Sprintf("%s restored from round %d", k.name, from), got, r)
	}
}

// TestSaveBuffersDieWithTheRun: snapshot encode buffers belong to the run.
// With the model — through its hook the target and every layer — still held
// after Run, the heap may hold no more than after the same run without
// checkpoints, give or take far less than one snapshot image.
func TestSaveBuffersDieWithTheRun(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// live is the heap's growth over building and running, the run still held.
	live := func(dir string) int64 {
		before := heap()
		b, m := observed(t, ckptScenario())
		if dir != "" {
			app.EnableCheckpoints(m, b.Sim.CkptTarget(), dir, 100, 0, nil)
		}
		if _, err := core.New(core.Config{Threads: 2}).Run(m); err != nil {
			t.Fatal(err)
		}
		after := heap()
		runtime.KeepAlive(b)
		runtime.KeepAlive(m)
		return int64(after) - int64(before)
	}
	live("") // what a first run leaves in pools and caches is in neither reading
	plain := live("")
	dir := t.TempDir()
	saved := live(dir)
	rounds := snapshotRounds(dir, 1)
	if len(rounds) == 0 {
		t.Fatal("no snapshot written")
	}
	fi, err := os.Stat(app.CheckpointPath(dir, rounds[len(rounds)-1]))
	if err != nil {
		t.Fatal(err)
	}
	image := fi.Size()
	t.Logf("live heap grew %d B over a plain run and %d B over one that wrote %d snapshots; the last image is %d B", plain, saved, len(rounds), image)
	if saved-plain > image/4 {
		t.Fatalf("a checkpointing run left %d B more on the heap than a plain one: a quarter of a %d B image or more outlived it", saved-plain, image)
	}
}

// TestSnapshotHoldsOnlyEventsWithWork: a snapshot is mostly its pending
// events, and one that will pop and do nothing costs as much as any. With a
// timer event per segment and a txDone per frame, this scenario's snapshots
// held 371 pending events on average, 488 at most, in 231 007-byte files;
// today 88, 108 and 222 635, exact: the bounds are those plus a few percent.
func TestSnapshotHoldsOnlyEventsWithWork(t *testing.T) {
	b, m := observed(t, ckptScenario())
	files := &snapshotFiles{}
	app.EnableCheckpoints(m, b.Sim.CkptTarget(), t.TempDir(), 100, 0, files)
	var snaps, pending, peak int64
	m.Pauses = append(m.Pauses, sim.Pause{Every: 100, New: func() sim.Pauser {
		return sim.PauseFunc(func(ks *sim.KernelState) {
			var buf []sim.Event
			for i := 0; i < ks.FELs; i++ {
				buf = ks.FEL(i, buf)
			}
			n := int64(len(buf))
			snaps, pending, peak = snaps+1, pending+n, max(peak, n)
		})
	}})
	if _, err := core.New(core.Config{Threads: 2}).Run(m); err != nil {
		t.Fatal(err)
	}
	if snaps < 5 || files.n != snaps {
		t.Fatalf("%d snapshots, %d files written; want several, one per snapshot", snaps, files.n)
	}
	size := files.bytes
	t.Logf("%d snapshots: %d pending events on average, %d at most, %d bytes on average", snaps, pending/snaps, peak, size/snaps)
	if mean := pending / snaps; mean > 100 || peak > 115 {
		t.Errorf("pending events per snapshot: %d on average, %d at most; budget 100 and 115", mean, peak)
	}
	if mean := size / snaps; mean > 227_500 {
		t.Errorf("snapshot files are %d bytes on average, budget 227 500", mean)
	}
}

// snapshotFiles counts the snapshot records a checkpoint saver files.
type snapshotFiles struct{ n, bytes int64 }

func (*snapshotFiles) BeginRun(obs.RunMeta) {}
func (*snapshotFiles) EndRun(*sim.RunStats) {}
func (f *snapshotFiles) OnRound(r *obs.RoundRecord) {
	f.n, f.bytes = f.n+1, f.bytes+int64(r.CkptBytes)
}

// TestFlowReportMergeAcrossRanks: a monitor split in two, as the dist gather
// does, merges back to the same fingerprint and flow report bytes.
func TestFlowReportMergeAcrossRanks(t *testing.T) {
	b, m := observed(t, ckptScenario())
	if _, err := b.RunKernel(m); err != nil {
		t.Fatal(err)
	}
	mon, n := b.Sim.Mon, b.Sim.Mon.Flows()
	senders, recvs := mon.Export()
	merged := flowmon.NewMonitor(n)
	for parity := 0; parity < 2; parity++ {
		ps, pr := make([]flowmon.SenderRec, n), make([]flowmon.RecvRec, n)
		for i := parity; i < n; i += 2 {
			ps[i], pr[i] = senders[i], recvs[i]
		}
		part := flowmon.NewMonitor(n)
		part.Import(ps, pr)
		merged.MergeFrom(part)
	}
	want, got := render(t, nil, &netobs.Bundle{Mon: mon}), render(t, nil, &netobs.Bundle{Mon: merged})
	if got.fp != want.fp || !bytes.Equal(got.files[2], want.files[2]) {
		t.Fatalf("merged monitor: fingerprint %016x, report %d bytes; original %016x, %d bytes", got.fp, len(got.files[2]), want.fp, len(want.files[2]))
	}
}

// TestProbedAggregatesDeterministic: a probed Unison(4)'s per-round LBTS,
// event sums and record counts repeat across runs. Which worker ran which LP
// does not: the load-adaptive scheduler may assign LPs differently.
func TestProbedAggregatesDeterministic(t *testing.T) {
	aggregates := func() (out [][3]uint64) { // per round: LBTS, events, records
		reg := obs.NewRegistry(1 << 16)
		run(t, fatTree("repeat", 7, 0.5, 1.0, 2*sim.Millisecond), pick("unison-4")[0], opts{probe: reg})
		for _, rec := range reg.Records() {
			out = append(out, make([][3]uint64, max(0, int(rec.Round)+1-len(out)))...)
			a := &out[rec.Round]
			a[0], a[1], a[2] = uint64(rec.LBTS), a[1]+rec.Events, a[2]+1
		}
		return out
	}
	first := aggregates()
	for i := 0; i < 2; i++ {
		if again := aggregates(); len(first) == 0 || !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: %d round aggregates, the first run %d, or they differ", i, len(again), len(first))
		}
	}
}

// TestVtimeRecordsDeterministic: the virtual testbed's records repeat in
// every field; its per-worker timing split too comes from modeled clocks.
func TestVtimeRecordsDeterministic(t *testing.T) {
	records := func() []obs.RoundRecord {
		reg := obs.NewRegistry(1 << 16)
		run(t, fatTree("probe", 42, 0.5, 0.2, 2*sim.Millisecond), pick("v-unison")[0], opts{probe: reg})
		return reg.Records()
	}
	if first := records(); len(first) == 0 || !reflect.DeepEqual(first, records()) {
		t.Fatalf("virtual-testbed records differ between runs (%d records)", len(first))
	}
}
