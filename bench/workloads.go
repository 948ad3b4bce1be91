package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/dist"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// threads is the worker count of every parallel kernel: the benchmark
// host has two cores, and a result is only comparable between commits
// when both used the same parallelism.
const threads = 2

// spec is one named workload: a k-ary fat-tree (10 Gbps links, ECMP over
// hop counts) carrying a seeded statistical workload, and the kernels it
// runs under. Every workload is a closed-loop batch: one simulation at a
// time, run to its stop time.
type spec struct {
	Name string
	Why  string

	K     int
	Delay sim.Time
	Sizes func() *stats.CDF
	// MaxFlow cuts the size distribution at this tabulated point and
	// renormalises it. The published tails are heavy enough that a handful
	// of flows would decide how much work a seed generates; cut, the work
	// varies by a few percent between seeds and a run of one second is a
	// usable sample.
	MaxFlow float64
	Load    float64
	Incast  float64 // share of flows redirected onto host 0
	DCTCP   bool    // DCTCP transport + ECN step-marking queue, else NewReno + DropTail
	Stream  bool    // flows pulled on demand instead of materialized
	Stop    sim.Time

	// Kernels run back to back in one repetition, each on a fresh model.
	Kernels []string
	// Observed attaches an obs.Registry probe, the netobs tracer+sampler
	// and a checkpoint every ckptEvery rounds.
	Observed bool
}

// An Observed workload snapshots every ckptEvery rounds and keeps the
// first tracePerNode packet-trace records of every node: enough for the
// tracer and the snapshot encoder to do real work, small enough that the
// run stays CPU-bound instead of timing the disk.
const (
	ckptEvery    = 200
	tracePerNode = 512
)

// workloads is the benchmark's fixed, ordered workload list. The stop
// times are sized for about one second of kernel run per repetition on
// the two-core reference host, so that a run of BENCHMARK.json's
// run_seconds holds at least five repetitions of every workload.
var workloads = []spec{
	{
		Name: "dc-k8.seq",
		Why:  "k=8 fat-tree under the sequential kernel: all host time is per-event model work, so it is the control for every kernel or sync change",
		K:    8, Delay: 3 * sim.Microsecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.3,
		Stop: 8 * sim.Millisecond, Kernels: []string{"seq"},
	},
	{
		Name: "dc-k8.unison",
		Why:  "the same model under Unison with 2 threads, the paper's headline case: wall_s(dc-k8.seq)/wall_s here is the real-hardware speedup",
		K:    8, Delay: 3 * sim.Microsecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.3,
		Stop: 8 * sim.Millisecond, Kernels: []string{"unison"},
	},
	{
		Name: "sparse-lowdelay.unison",
		Why:  "500 ns links and 3% load give a few events per round, so barrier, LBTS and mailbox cost dominate and model-layer gains are invisible",
		K:    8, Delay: 500 * sim.Nanosecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.03,
		Stop: 16 * sim.Millisecond, Kernels: []string{"unison"},
	},
	{
		Name: "incast-dctcp.unison",
		Why:  "web-search flows, half of them onto host 0, DCTCP with ECN marking: the drop, mark, retransmit and timer paths and a hot LP that skews worker load",
		K:    8, Delay: 3 * sim.Microsecond, Sizes: traffic.WebSearchCDF, MaxFlow: 2e5, Load: 0.4, Incast: 0.5, DCTCP: true,
		Stop: 20 * sim.Millisecond, Kernels: []string{"unison"},
	},
	{
		Name: "scale-k16.setup",
		Why:  "k=16 (1344 nodes) with streamed traffic and a short run: routing-table build and live memory dominate, so setup_s and live_heap_mb are the metrics to read",
		K:    16, Delay: 3 * sim.Microsecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.3, Stream: true,
		Stop: 500 * sim.Microsecond, Kernels: []string{"unison"},
	},
	{
		Name: "dc-k4.other-kernels",
		Why:  "k=4 run back to back under barrier, null-message, hybrid and 2-rank dist over loopback: the guard that a shared round engine slows none of them",
		K:    4, Delay: 3 * sim.Microsecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.3,
		Stop: 20 * sim.Millisecond, Kernels: []string{"barrier", "nullmsg", "hybrid", "dist"},
	},
	{
		Name: "dc-k8.observed",
		Why:  "dc-k8.unison with a round probe, the netobs tracer and sampler and periodic checkpoints: telemetry cost is its wall_s minus dc-k8.unison's",
		K:    8, Delay: 3 * sim.Microsecond, Sizes: traffic.GRPCCDF, MaxFlow: 65536, Load: 0.3,
		Stop: 8 * sim.Millisecond, Kernels: []string{"unison"}, Observed: true,
	},
}

// setupPhases are the spans that make up setup_s, in build order, and the
// layer metric each is reported as.
var setupPhases = [4]struct{ name, metric string }{
	{"topology", "topology.build_s"},
	{"routing", "routing.build_s"},
	{"traffic", "traffic.gen_s"},
	{"wire", "app.wire_s"},
}

// built is a runnable model and the wall-clock of each set-up phase.
type built struct {
	ft     *topology.FatTree
	router *routing.ECMP
	sim    *app.Sim
	model  *sim.Model
	phase  [4]time.Duration
}

func (s *spec) netConfig(seed uint64) netdev.Config {
	cfg := netdev.DefaultConfig(seed)
	if s.DCTCP {
		cfg.Queue = netdev.DCTCPConfig(250, 65)
	}
	return cfg
}

func (s *spec) tcpConfig() tcp.Config {
	if s.DCTCP {
		return tcp.DCTCPConfig()
	}
	return tcp.DefaultConfig()
}

// sizes is the workload's flow-size distribution, cut at MaxFlow.
func (s *spec) sizes() *stats.CDF {
	c := s.Sizes()
	for i, v := range c.V {
		if v == s.MaxFlow {
			cut := &stats.CDF{V: c.V[:i+1], P: make([]float64, i+1)}
			for j := range cut.P {
				cut.P[j] = c.P[j] / c.P[i]
			}
			return cut
		}
	}
	panic(fmt.Sprintf("%s: MaxFlow %v is not a point of the size distribution", s.Name, s.MaxFlow))
}

func (s *spec) trafficConfig(ft *topology.FatTree, seed uint64) traffic.Config {
	hosts := ft.Hosts()
	return traffic.Config{
		Seed: seed, Hosts: hosts, Sizes: s.sizes(), Load: s.Load,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: s.Stop / 2,
		IncastRatio: s.Incast, Victim: hosts[0], HasVictim: true,
	}
}

// build goes from nothing to a runnable model, timing the four phases.
func (s *spec) build(seed uint64) *built {
	b := &built{}
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		b.phase[i] = now.Sub(t)
		t = now
	}
	b.ft = topology.BuildFatTree(topology.FatTreeK(s.K, 10e9, s.Delay))
	lap(0)
	b.router = routing.NewECMP(b.ft.Graph, routing.Hops, seed)
	lap(1)
	cfg := app.Config{Seed: seed, NetCfg: s.netConfig(seed), TCPCfg: s.tcpConfig(), StopAt: s.Stop}
	tc := s.trafficConfig(b.ft, seed)
	if s.Stream {
		cfg.FlowSrc, cfg.FlowCount = traffic.NewStream(tc), traffic.Count(tc)
	} else {
		cfg.Flows = traffic.Generate(tc)
	}
	lap(2)
	b.sim = app.New(b.ft.Graph, b.router, cfg)
	b.model = b.sim.Model()
	lap(3)
	return b
}

// outcome is one operation: one kernel run on a freshly built model.
type outcome struct {
	Kernel     string
	BuildStart time.Time
	RunStart   time.Time
	Phase      [4]time.Duration // set-up, by phase
	Wall       time.Duration
	HeapB      int64 // live heap after the run minus live heap before set-up
	AllocB     uint64
	Mallocs    uint64
	GCCPU      float64 // seconds of GC CPU during the run
	Stats      *sim.RunStats
	Sim        simStats
	CkptN      int
	CkptNS     int64
	CkptByte   uint64
	mon        *flowmon.Monitor
}

// setup is the operation's whole set-up time.
func (o *outcome) setup() time.Duration {
	var t time.Duration
	for _, p := range o.Phase {
		t += p
	}
	return t
}

// timeRun runs f as the operation's kernel run: wall-clock around f alone,
// allocation and GC counters read just outside it.
func (o *outcome) timeRun(f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	o.RunStart = time.Now()
	err := f()
	o.Wall = time.Since(o.RunStart)
	o.GCCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	o.AllocB, o.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return err
}

// simStats is what the simulation itself produced. For a fixed (workload,
// seed) it is identical on every kernel and every commit that does not
// change the model, so two commits' statistics compare exactly.
type simStats struct {
	Events      uint64  `json:"events"`
	Fingerprint string  `json:"fingerprint"`
	Flows       int     `json:"flows"`
	Completed   int     `json:"flows_completed"`
	Drops       uint64  `json:"drops"`
	Retransmits uint64  `json:"retransmits"`
	TxPackets   uint64  `json:"tx_packets"`
	TxBytes     uint64  `json:"tx_bytes"`
	RxBytes     int64   `json:"rx_bytes"`
	MeanFCTms   float64 `json:"mean_fct_ms"`
}

func liveHeap() int64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them — the same quiesced reading BENCH_scale.json uses.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func monStats(mon *flowmon.Monitor, events uint64, nets ...*netdev.Network) simStats {
	st := simStats{
		Events:      events,
		Fingerprint: fmt.Sprintf("%016x", mon.Fingerprint()),
		Flows:       mon.Flows(),
		Completed:   mon.Completed(),
		Retransmits: mon.TotalRetransmits(),
		MeanFCTms:   finite(mon.MeanFCTms()),
	}
	// A receiver record can overshoot its flow's size by 2^32 under heavy
	// loss (seen on incast-dctcp.unison), so each is clamped to the size.
	senders, recvs := mon.Export()
	for i := range recvs {
		if got := recvs[i].BytesRcvd; got >= 0 && got < senders[i].Bytes {
			st.RxBytes += got
		} else {
			st.RxBytes += senders[i].Bytes
		}
	}
	for _, n := range nets {
		st.Drops += n.Drops()
		n.Devices(func(d *netdev.Device) {
			st.TxPackets += d.TxPackets
			st.TxBytes += d.TxBytes
		})
	}
	return st
}

// ckptProbe sums the per-snapshot telemetry EnableCheckpoints emits.
type ckptProbe struct {
	n     int
	ns    int64
	bytes uint64
}

func (p *ckptProbe) BeginRun(obs.RunMeta) {}
func (p *ckptProbe) OnRound(r *obs.RoundRecord) {
	p.n++
	p.ns += r.CkptNS
	p.bytes += r.CkptBytes
}
func (p *ckptProbe) EndRun(*sim.RunStats) {}

// run executes one operation of s under the named kernel. probe, when
// non-nil, observes the kernel's rounds (the traced pass attaches one to
// every workload; an Observed workload always has its own). tmp is where
// an Observed workload writes its checkpoints.
func (s *spec) run(kernel string, seed uint64, probe obs.Probe, tmp string) (*outcome, error) {
	if kernel == "dist" {
		return s.runDist(seed)
	}
	o := &outcome{Kernel: kernel}
	h0 := liveHeap()
	o.BuildStart = time.Now()
	b := s.build(seed)
	o.Phase = b.phase

	var cp ckptProbe
	if s.Observed && kernel != "seq" {
		// This wiring is part of what an observed run costs its user, but
		// not of the model build, so it is timed with neither.
		probe = obs.Tee(obs.NewRegistry(0), probe)
		b.sim.EnableNetObs(0, tracePerNode)
		dir, err := os.MkdirTemp(tmp, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		app.EnableCheckpoints(b.model, b.sim.CkptTarget(), dir, ckptEvery, 0, &cp)
	}

	var k sim.Kernel
	manual := pdes.FatTreeManual(b.ft, threads)
	switch kernel {
	case "seq":
		k = &des.Kernel{Observe: probe}
	case "unison":
		k = core.New(core.Config{Threads: threads, Observe: probe})
	case "barrier":
		k = &pdes.BarrierKernel{Part: core.Manual(manual, b.ft.LinkInfos()), Observe: probe}
	case "nullmsg":
		k = &pdes.NullMessageKernel{Part: core.Manual(manual, b.ft.LinkInfos()), Observe: probe}
	case "hybrid":
		k = core.NewHybrid(core.HybridConfig{HostOf: manual, ThreadsPerHost: 1, Observe: probe})
	default:
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}

	err := o.timeRun(func() (err error) {
		o.Stats, err = k.Run(b.model)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", s.Name, kernel, err)
	}
	o.HeapB = liveHeap() - h0
	o.mon = b.sim.Mon
	o.Sim = monStats(o.mon, o.Stats.Events, b.sim.Net)
	o.CkptN, o.CkptNS, o.CkptByte = cp.n, cp.ns, cp.bytes
	// What the user still holds when the run is over counts as live: the
	// simulation and, on an observed run, the registry's round records.
	runtime.KeepAlive(b)
	runtime.KeepAlive(probe)
	return o, nil
}

// runDist runs s as a 2-rank distributed simulation inside this process:
// a coordinator and two hosts, one worker each, over loopback TCP. Every
// rank builds the whole model, as separate processes would.
func (s *spec) runDist(seed uint64) (*outcome, error) {
	o := &outcome{Kernel: "dist"}
	h0 := liveHeap()
	o.BuildStart = time.Now()
	var ranks [threads]*built
	for i := range ranks {
		ranks[i] = s.build(seed)
		for p, d := range ranks[i].phase {
			o.Phase[p] += d
		}
	}
	hostOf := pdes.FatTreeManual(ranks[0].ft, threads)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	o.Stats = &sim.RunStats{}
	err = o.timeRun(func() (err error) {
		hostErr := make(chan error, threads)
		for i, b := range ranks {
			go func(id int32, b *built) {
				_, err := dist.RunHost(dist.HostConfig{
					ID: id, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: s.Stop,
					Timeout: time.Minute, DialAttempts: 3,
				}, b.model, b.sim.Net, b.sim.Mon)
				hostErr <- err
			}(int32(i), b)
		}
		o.mon, _, err = dist.RunCoordinator(ln, dist.CoordConfig{
			Hosts: threads, StopAt: s.Stop, Flows: ranks[0].sim.Mon.Flows(),
			Timeout: time.Minute, Stats: o.Stats,
		})
		for range ranks {
			if herr := <-hostErr; herr != nil && err == nil {
				err = herr
			}
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s/dist: %w", s.Name, err)
	}
	o.HeapB = liveHeap() - h0
	o.Sim = monStats(o.mon, o.Stats.Events, ranks[0].sim.Net, ranks[1].sim.Net)
	runtime.KeepAlive(ranks)
	return o, nil
}
