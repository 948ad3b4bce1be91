// Command bench is the repository's benchmark: seven named workloads,
// three end-to-end metrics (wall_s, setup_s, live_heap_mb), and a
// per-layer ledger measured from outside the layers. See README.md here
// and BENCHMARK.json at the repository root; start it with bench/run.sh.
//
//	bench [-workload NAME] [-seed 42] [-seconds 10] [-trace 0|1] [-out bench/results]
//	bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"unison/internal/flowmon"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/traffic"
)

// minReps is the fewest measured repetitions a workload gets, however
// short the run.
const minReps = 5

// gcCPUSeconds is the runtime's cumulative estimate of CPU spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// calibrate times a fixed pure-CPU loop: the median of five equal chunks,
// so that one preemption does not mark a quiet host as noisy. It runs
// before every repetition: when the shared host slows down, the loop slows
// with it, which tells a noisy repetition from a real change in the program.
func calibrate() int64 {
	state := uint64(1)
	var acc uint64
	var chunks [5]float64
	for c := range chunks {
		start := time.Now()
		for i := 0; i < 4_000_000; i++ {
			acc += mix(&state)
		}
		chunks[c] = float64(time.Since(start).Nanoseconds())
	}
	runtime.KeepAlive(acc)
	return int64(median(chunks[:]))
}

// rep is one measured repetition of a workload: one operation per kernel.
type rep struct {
	calibNS  int64
	outcomes []*outcome
}

func (r *rep) setup() (t time.Duration) {
	for _, o := range r.outcomes {
		t += o.setup()
	}
	return t
}

func (r *rep) wall() (t time.Duration) {
	for _, o := range r.outcomes {
		t += o.Wall
	}
	return t
}

func (r *rep) heap() (h int64) {
	for _, o := range r.outcomes {
		if o.HeapB > h {
			h = o.HeapB
		}
	}
	return h
}

// runner measures one workload.
type runner struct {
	spec *spec
	seed uint64
	tmp  string

	ref      *outcome            // sequential reference run on the same model
	warm     map[string]*outcome // the discarded warm-up, per kernel
	reps     []rep
	elapsed  time.Duration
	failures []string
	attempt  int
	failed   int
}

// check counts one operation and records why it failed, if it did. Every
// run of one (workload, kernel) must reproduce the warm-up's event count
// and flow fingerprint, and every kernel must reproduce the sequential
// reference's fingerprint and completed flows: that is the repository's
// determinism contract, and it is what "the output is correct" means for
// a simulator whose absolute results no oracle knows.
func (r *runner) check(o *outcome, err error, kernel string) bool {
	r.attempt++
	fail := func(format string, a ...any) bool {
		r.failed++
		r.failures = append(r.failures, kernel+": "+fmt.Sprintf(format, a...))
		return false
	}
	switch {
	case err != nil:
		return fail("%v", err)
	case o.Sim.Events == 0:
		return fail("executed 0 events")
	case r.ref != nil && (o.Sim.Fingerprint != r.ref.Sim.Fingerprint || o.Sim.Completed != r.ref.Sim.Completed):
		return fail("fingerprint %s flows %d differ from the sequential reference's %s flows %d",
			o.Sim.Fingerprint, o.Sim.Completed, r.ref.Sim.Fingerprint, r.ref.Sim.Completed)
	}
	if w := r.warm[kernel]; w != nil {
		if o.Sim.Events != w.Sim.Events || o.Sim.Fingerprint != w.Sim.Fingerprint {
			return fail("events %d fingerprint %s differ from the warm-up's %d %s",
				o.Sim.Events, o.Sim.Fingerprint, w.Sim.Events, w.Sim.Fingerprint)
		}
		if o.Wall > 20*w.Wall {
			return fail("wall %v is over 20x the warm-up's %v", o.Wall, w.Wall)
		}
	}
	return true
}

// warmup runs the sequential reference and one discarded operation per
// kernel, so that lazy initialisation and the first page faults are paid
// before anything is timed.
func (r *runner) warmup() {
	o, err := r.spec.run("seq", r.seed, nil, r.tmp)
	if r.check(o, err, "seq") {
		r.ref = o
	}
	r.warm = map[string]*outcome{}
	for _, k := range r.spec.Kernels {
		if k == "seq" {
			r.warm[k] = r.ref
			continue
		}
		o, err := r.spec.run(k, r.seed, nil, r.tmp)
		if r.check(o, err, k) {
			r.warm[k] = o
		}
	}
}

func (r *runner) done(seconds float64) bool {
	return len(r.reps) >= minReps && r.elapsed.Seconds() >= seconds
}

func (r *runner) measure() {
	start := time.Now()
	rp := rep{calibNS: calibrate()}
	ok := true
	for _, k := range r.spec.Kernels {
		o, err := r.spec.run(k, r.seed, nil, r.tmp)
		if !r.check(o, err, k) {
			ok = false
			continue
		}
		rp.outcomes = append(rp.outcomes, o)
	}
	if ok {
		r.reps = append(r.reps, rp)
	}
	r.elapsed += time.Since(start)
}

// result summarizes the untraced repetitions.
func (r *runner) result() workloadResult {
	w := workloadResult{Name: r.spec.Name, Attempted: r.attempt, Failed: r.failed, Failures: r.failures}
	if r.ref != nil {
		w.Sim = r.ref.Sim
	}
	var setup, wall, heap, calib []float64
	for i := range r.reps {
		rp := &r.reps[i]
		w.HostCalibNS = append(w.HostCalibNS, rp.calibNS)
		calib = append(calib, float64(rp.calibNS))
		setup = append(setup, rp.setup().Seconds())
		wall = append(wall, rp.wall().Seconds())
		heap = append(heap, float64(rp.heap())/(1<<20))
	}
	med := median(calib)
	for i, c := range calib {
		if c > 1.1*med || c < 0.9*med {
			w.CalibFlagged = append(w.CalibFlagged, i)
		}
	}
	w.EndToEnd = []sampleSet{summarize(endToEnd[0], wall), summarize(endToEnd[1], setup), summarize(endToEnd[2], heap)}
	return w
}

// kernelValue is the steady value over repetitions of f on the named
// kernel's outcome (0 when the workload does not run that kernel).
func (r *runner) kernelValue(kernel string, f func(*outcome) float64) float64 {
	var xs []float64
	for i := range r.reps {
		for _, o := range r.reps[i].outcomes {
			if o.Kernel == kernel {
				xs = append(xs, f(o))
			}
		}
	}
	return steady(xs)
}

// layers runs the traced pass — one more repetition with spans and a round
// probe, the observed workload's control, a warm sequential reference, the
// report span, then the layer drivers — and returns every per-layer metric.
func (r *runner) layers(tr *tracer) []layerValue {
	if len(r.reps) == 0 {
		return nil
	}
	s, name := r.spec, r.spec.Name
	v := map[string]float64{}
	root := tr.begin(name, "workload", -1)
	defer func() { tr.end(root) }()

	tracedWall, imbalance, ok := r.tracedRepetition(tr, root)
	if !ok {
		return nil
	}
	e2e := r.result()
	wall := e2e.metric("wall_s").Value
	v["trace_overhead_pct"] = 100 * (tracedWall.Seconds()/wall - 1)

	// Counters and phases, from the untraced repetitions. The simulated
	// counts repeat exactly, so the last repetition stands for all.
	last := &r.reps[len(r.reps)-1]
	first := last.outcomes[0]
	var events, tx, rxBytes, mallocs, allocB, gcCPU float64
	for _, o := range last.outcomes {
		events += float64(o.Sim.Events)
		tx += float64(o.Sim.TxPackets)
		rxBytes += float64(o.Sim.RxBytes)
		mallocs += float64(o.Mallocs)
		allocB += float64(o.AllocB)
		gcCPU += o.GCCPU
	}
	v["sim.events"] = events
	v["sim.ns_per_event"] = wall * 1e9 / events
	v["sim.allocs_per_event"] = mallocs / events
	v["sim.alloc_bytes_per_event"] = allocB / events
	v["sim.gc_cpu_share"] = gcCPU / (last.wall().Seconds() * float64(runtime.GOMAXPROCS(0)))
	v["netdev.tx_packets"] = float64(first.Sim.TxPackets)
	v["netdev.drops"] = float64(first.Sim.Drops)
	v["tcp.retransmits"] = float64(first.Sim.Retransmits)
	v["tcp.flows_completed"] = float64(first.Sim.Completed)
	for i, phase := range setupPhases {
		var xs []float64
		for j := range r.reps {
			var t time.Duration
			for _, o := range r.reps[j].outcomes {
				t += o.Phase[i]
			}
			xs = append(xs, t.Seconds())
		}
		v[phase.metric] = steady(xs)
	}

	// The kernel's own split, for a workload whose first kernel runs in rounds.
	workers, rounds := 1.0, 0.0
	if st := first.Stats; st.Rounds > 0 && len(st.Workers) > 0 {
		workers, rounds = float64(len(st.Workers)), float64(st.Rounds)
		p, sy, m := float64(st.TotalP()), float64(st.TotalS()), float64(st.TotalM())
		v["core.rounds"] = rounds
		v["core.events_per_round"] = float64(st.Events) / rounds
		v["core.p_share"], v["core.s_share"], v["core.m_share"] = p/(p+sy+m), sy/(p+sy+m), m/(p+sy+m)
		v["core.imbalance"] = imbalance
		if imbalance == 0 { // a kernel whose probe reports no per-round split
			var maxP int64
			for _, w := range st.Workers {
				if w.P > maxP {
					maxP = w.P
				}
			}
			v["core.imbalance"] = float64(maxP) / (p / workers)
		}
	}
	seconds := func(o *outcome) float64 { return o.Wall.Seconds() }
	v["pdes.barrier_wall_s"] = r.kernelValue("barrier", seconds)
	v["pdes.nullmsg_wall_s"] = r.kernelValue("nullmsg", seconds)
	v["core.hybrid_wall_s"] = r.kernelValue("hybrid", seconds)
	v["dist.wall_s"] = r.kernelValue("dist", seconds)
	v["dist.round_us"] = r.kernelValue("dist", func(o *outcome) float64 {
		return o.Wall.Seconds() * 1e6 / float64(o.Stats.Rounds)
	})

	// Telemetry cost: the observed workload against its own control, the
	// same model with nothing attached, alternated so drift hits both.
	if s.Observed {
		control := *s
		control.Observed = false
		var on, off []float64
		span := tr.begin(name, "control", root)
		for i := 0; i < 3; i++ {
			if o, err := control.run(first.Kernel, r.seed, nil, r.tmp); r.check(o, err, first.Kernel) {
				off = append(off, o.Wall.Seconds())
			}
			if o, err := s.run(first.Kernel, r.seed, nil, r.tmp); r.check(o, err, first.Kernel) {
				on = append(on, o.Wall.Seconds())
			}
		}
		tr.end(span)
		v["obs.overhead_pct"] = 100 * (steady(on)/steady(off) - 1)
		v["ckpt.save_ms"] = float64(first.CkptNS) / 1e6 / float64(first.CkptN)
		v["ckpt.bytes"] = float64(first.CkptByte) / float64(first.CkptN)
	}

	// A warm sequential run of the same model: the base of
	// core.speedup_vs_seq, and the monitor the report span reads.
	span := tr.begin(name, "run/seq-reference", root)
	seqRef, err := s.run("seq", r.seed, nil, r.tmp)
	tr.end(span)
	if !r.check(seqRef, err, "seq") {
		return nil
	}
	v["core.speedup_vs_seq"] = seqRef.Wall.Seconds() / r.kernelValue(first.Kernel, seconds)

	// The report span: what a user runs once Run has returned.
	span = tr.begin(name, "report", root)
	rep, fp := seqRef.mon.Report(flowmon.ReportConfig{RefBandwidthBps: 10e9}), seqRef.mon.Fingerprint()
	tr.end(span)
	v["flowmon.report_s"] = float64(tr.spans[span].EndNS-tr.spans[span].StartNS) / 1e9
	runtime.KeepAlive(rep)
	runtime.KeepAlive(fp)

	// The layer drivers.
	b := s.build(r.seed)
	flows := b.sim.Flows
	if s.Stream {
		flows = traffic.Generate(s.trafficConfig(b.ft, r.seed))
	}
	drivers := tr.begin(name, "drivers", root)
	drive := func(metric string, f func() float64) float64 {
		span := tr.begin(name, "driver/"+metric, drivers)
		v[metric] = steady([]float64{f(), f(), f()})
		tr.end(span)
		return v[metric]
	}
	desNS := drive("des.event_ns", func() float64 { return driveDesEvent(1_000_000) })
	d16 := drive("eventq.push_pop_ns.d16", func() float64 { return driveEventqHold(16, 1_000_000) })
	d1k := drive("eventq.push_pop_ns.d1k", func() float64 { return driveEventqHold(1<<10, 1_000_000) })
	drive("eventq.push_pop_ns.d64k", func() float64 { return driveEventqHold(1<<16, 500_000) })
	drive("eventq.pushbatch_ns_per_ev", func() float64 { return driveEventqPushBatch(100) })
	hop := hopCost{
		minNS: drive("netdev.hop_ns.min", func() float64 { return driveNetdevHop(s, 0, 150_000, desNS) }),
		mssNS: drive("netdev.hop_ns", func() float64 { return driveNetdevHop(s, packet.MSS, 150_000, desNS) }),
	}
	segNS := drive("tcp.segment_ns", func() float64 { return driveTCPSegment(s, 100<<20, desNS, hop) })
	linkNS := drive("routing.nextlink_ns", func() float64 { return driveNextLink(b, flows, 1_000_000) })
	recNS := drive("flowmon.record_ns", func() float64 { return driveFlowmonRecord(2_000_000) })
	roundNS := drive("core.empty_round_ns", func() float64 { return driveEmptyRound(b, s.Delay, 1_000_000/b.ft.N()) })
	drive("syncx.barrier_ns", func() float64 { return driveBarrier(100_000) })
	drive("obs.round_record_ns", func() float64 { return driveRoundRecord(1_000_000) })
	tr.end(drivers)

	// The ledger: driver cost per operation times the run's operation
	// count, as a share of the CPU time the run had (wall x workers).
	var netdevNS float64
	for _, o := range last.outcomes {
		netdevNS += hop.of(o.Sim.TxPackets, o.Sim.TxBytes)
	}
	segments := rxBytes / packet.MSS
	residual := 1.0
	for _, l := range []struct {
		layer string
		ns    float64
	}{
		{"dispatch", events * (desNS - d16)},
		{"eventq", events * d1k},
		{"netdev", netdevNS},
		{"tcp", segments * segNS},
		{"routing", tx * linkNS},
		{"flowmon", segments * recNS},
		{"sync", rounds * roundNS * workers},
	} {
		share := math.Max(0, l.ns/(wall*1e9*workers))
		v["ledger.est_share."+l.layer] = share
		residual -= share
	}
	v["ledger.residual_pct"] = 100 * residual

	out := make([]layerValue, 0, len(perLayer))
	for _, d := range perLayer {
		out = append(out, layerValue{Name: d.Name, Unit: d.Unit, Value: finite(v[d.Name])})
	}
	return out
}

// tracedRepetition runs the workload's kernels once more, each under a
// span with its set-up phases and kernel run as children and an
// imbalance tracker as the kernel's round probe. It returns the summed run
// wall and the first kernel's mean per-round max/mean worker time.
func (r *runner) tracedRepetition(tr *tracer, root int) (wall time.Duration, imbalance float64, ok bool) {
	name := r.spec.Name
	runSpan := tr.begin(name, "run", root)
	defer func() { tr.end(runSpan) }()
	for i, k := range r.spec.Kernels {
		tracker := obs.NewImbalanceTracker()
		ks := tr.begin(name, "run/"+k, runSpan)
		o, err := r.spec.run(k, r.seed, tracker, r.tmp)
		tr.end(ks)
		if !r.check(o, err, k) {
			return 0, 0, false
		}
		setup := tr.add(name, "setup", ks, o.BuildStart, o.setup())
		at := o.BuildStart
		for p, d := range o.Phase {
			tr.add(name, "setup/"+setupPhases[p].name, setup, at, d)
			at = at.Add(d)
		}
		tr.add(name, "kernel", ks, o.RunStart, o.Wall)
		wall += o.Wall
		if im := tracker.Summary(); i == 0 && im != nil {
			imbalance = im.MeanMaxOverMean
		}
	}
	return wall, imbalance, true
}

// contractLine is the single JSON object the benchmark contract reads
// from the last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"` //unison:json-ok keyed by the fixed metric names; encoding/json sorts string keys
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (w *workloadResult) contract(traced bool) contractLine {
	c := contractLine{Correct: w.Failed == 0, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]contractValue{}}
	if traced {
		for _, l := range w.PerLayer {
			c.Metrics[l.Name] = contractValue{l.Value, l.Unit}
		}
	} else {
		for _, s := range w.EndToEnd {
			c.Metrics[s.Name] = contractValue{s.Value, s.Unit}
		}
	}
	return c
}

func fatal(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(code)
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all seven, repetitions interleaved round-robin)")
		seed     = flag.Uint64("seed", 42, "seed of the traffic, ECMP and queue random streams")
		seconds  = flag.Float64("seconds", 10, "measure each workload for this long (at least 5 repetitions)")
		trace    = flag.Int("trace", 0, "1 adds the traced pass: spans, layer drivers, every per-layer metric")
		out      = flag.String("out", "bench/results", "directory for latest.json, trace.json and scratch files")
		cmp      = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(2, "-compare needs two result files")
		}
		a, err := readResult(flag.Arg(0))
		if err != nil {
			fatal(2, "%v", err)
		}
		b, err := readResult(flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if compare(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}

	// One process, at most two cores: the parallel kernels run two workers,
	// and more Ps than that only adds scheduler noise on a shared host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), threads))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(1, "%v", err)
	}

	var runners []*runner
	for i := range workloads {
		if *workload == "" || *workload == workloads[i].Name {
			runners = append(runners, &runner{spec: &workloads[i], seed: *seed, tmp: *out})
		}
	}
	if len(runners) == 0 {
		fatal(2, "unknown workload %q", *workload)
	}

	for _, r := range runners {
		r.warmup()
	}
	// Repetitions are interleaved across workloads, so that a slow minute
	// on a shared host lands on all of them alike.
	for busy := true; busy; {
		busy = false
		for _, r := range runners {
			if r.ref != nil && !r.done(*seconds) && r.failed == 0 {
				r.measure()
				busy = true
			}
		}
	}

	res := result{
		Schema: schema, Generated: time.Now().UTC().Format(time.RFC3339), Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
		Host: hostInfo{
			Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Threads: threads,
		},
	}
	tr := newTracer()
	for _, r := range runners {
		var layers []layerValue
		if *trace == 1 && r.ref != nil {
			layers = r.layers(tr)
		}
		w := r.result() // after the traced pass, whose operations count too
		w.PerLayer = layers
		res.Workloads = append(res.Workloads, w)
	}
	if err := res.write(filepath.Join(*out, "latest.json")); err != nil {
		fatal(1, "%v", err)
	}
	if *trace == 1 {
		if err := tr.write(filepath.Join(*out, "trace.json")); err != nil {
			fatal(1, "%v", err)
		}
	}
	res.print(os.Stdout)

	failed := 0
	for i := range res.Workloads {
		failed += res.Workloads[i].Failed
	}
	if len(res.Workloads) == 1 {
		line, err := json.Marshal(res.Workloads[0].contract(*trace == 1)) //unison:json-ok every value comes from res, which res.write scrubbed above
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
