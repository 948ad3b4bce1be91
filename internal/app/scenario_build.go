package app

import (
	"fmt"

	"unison/internal/coll"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
	"unison/internal/vtime"
)

// Built is a resolved scenario: the assembled Sim plus the topology
// context (hosts, manual-partition recipe) the CLIs need around it. Each
// Build call constructs a fresh Sim, so benchmark harnesses can Build the
// same Scenario once per kernel.
type Built struct {
	Scenario *Scenario
	Sim      *Sim
	G        *topology.Graph
	Hosts    []sim.NodeID
	// Manual is the node→rank recipe at Ranks granularity (nil for WANs,
	// which have no manual-partition recipe).
	Manual []int32
	// ManualFor re-derives the recipe at another rank count (the
	// distributed runtime sizes it by world size); a count the topology
	// cannot be split into is an error.
	ManualFor func(ranks int) ([]int32, error)
	// Ranks is the resolved manual-partition rank count.
	Ranks int
	// Flows is the background-traffic flow count (collective flows are
	// tracked by Sim.Coll).
	Flows int
	// Streaming reports whether the workload is generated lazily.
	Streaming bool
	// Observe, when non-nil, is wired into whichever kernel RunKernel
	// constructs. Set it between Build and the run (the CLIs hand it a
	// registry, an imbalance tracker and the record stream).
	Observe obs.Probe
	// Progress, for the sequential kernel only, emits a progress
	// RoundRecord every Progress executed events so live watchers see
	// movement; other kernels report per round regardless. Zero keeps
	// the kernel's single-summary behavior.
	Progress uint64

	rip *routing.RIP
}

// Build resolves the scenario into a runnable simulation. It validates,
// applies schema defaults, constructs topology, routing, protocol stack
// and workloads, and wires the collective engine when one is configured.
func (sc *Scenario) Build() (*Built, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	b := &Built{Scenario: sc}
	if err := b.buildTopology(&sc.Topology); err != nil {
		return nil, err
	}
	b.Ranks = b.defaultRanks(sc.Kernel.Ranks)
	if b.ManualFor != nil {
		var err error
		if b.Manual, err = b.ManualFor(b.Ranks); err != nil {
			return nil, err
		}
	}

	cfg := Config{
		Seed:   sc.Seed,
		NetCfg: buildNetConfig(sc),
		TCPCfg: buildTCPConfig(&sc.Protocol.TCP),
		StopAt: sc.Stop.T(),
	}
	if t := sc.Traffic; t != nil {
		tc, err := b.buildTraffic(t, sc)
		if err != nil {
			return nil, err
		}
		if t.Stream {
			b.Streaming = true
			cfg.FlowSrc = traffic.NewStream(tc)
			cfg.FlowCount = traffic.Count(tc)
			cfg.StreamWindow = t.StreamWindow.T()
			b.Flows = cfg.FlowCount
		} else {
			cfg.Flows = traffic.Generate(tc)
			b.Flows = len(cfg.Flows)
		}
	}
	if c := sc.Collective; c != nil {
		cc, err := b.buildCollective(c)
		if err != nil {
			return nil, err
		}
		cfg.Coll = cc
	}

	router, rip, err := buildRouter(sc, b.G)
	if err != nil {
		return nil, err
	}
	b.Sim = New(b.G, router, cfg)
	if rip != nil {
		rip.Attach(b.Sim.Setup, sc.Stop.T())
		b.rip = rip
	}
	return b, nil
}

func (b *Built) buildTopology(t *TopologySpec) error {
	bw := int64(10e9)
	if t.BwGbps > 0 {
		bw = int64(t.BwGbps * 1e9)
	}
	delay := 3 * sim.Microsecond
	if t.Delay > 0 {
		delay = t.Delay.T()
	}
	or := func(v, def int) int {
		if v > 0 {
			return v
		}
		return def
	}
	switch t.Kind {
	case "fattree":
		ft := topology.BuildFatTree(topology.FatTreeK(or(t.K, 4), bw, delay))
		b.G, b.Hosts = ft.Graph, ft.Hosts()
		b.ManualFor = func(r int) ([]int32, error) { return pdes.FatTreeRecipe(ft, r) }
	case "torus":
		tr := topology.BuildTorus2D(or(t.Rows, 6), or(t.Cols, 6), bw, delay)
		b.G, b.Hosts = tr.Graph, tr.Hosts()
		b.ManualFor = func(r int) ([]int32, error) { return pdes.TorusRecipe(tr, r) }
	case "bcube":
		bc := topology.BuildBCube(or(t.N, 4), 1, bw, delay)
		b.G, b.Hosts = bc.Graph, bc.Hosts()
		b.ManualFor = func(r int) ([]int32, error) { return pdes.BCubeRecipe(bc, r) }
	case "spineleaf":
		s := topology.BuildSpineLeaf(or(t.Spines, 2), or(t.Leaves, 4), or(t.N, 4), bw, delay)
		b.G, b.Hosts = s.Graph, s.Hosts()
		b.ManualFor = func(r int) ([]int32, error) { return pdes.SpineLeafRecipe(s, r) }
	case "dumbbell":
		d := topology.BuildDumbbell(or(t.N, 4), bw, bw, delay, 5*delay)
		b.G, b.Hosts = d.Graph, d.Hosts()
		b.ManualFor = func(int) ([]int32, error) { return pdes.DumbbellManual(d), nil }
	case "geant":
		w := topology.Geant()
		b.G, b.Hosts = w.Graph, w.Hosts()
	case "chinanet":
		w := topology.ChinaNet()
		b.G, b.Hosts = w.Graph, w.Hosts()
	default:
		return fmt.Errorf("scenario: unknown topology.kind %q", t.Kind)
	}
	return nil
}

// defaultRanks resolves the manual-partition rank count: the explicit
// kernel.ranks, or the topology recipe's natural granularity.
func (b *Built) defaultRanks(explicit int) int {
	if explicit > 0 {
		return explicit
	}
	t := &b.Scenario.Topology
	switch t.Kind {
	case "fattree":
		if t.K > 0 {
			return t.K
		}
		return 4
	case "bcube":
		if t.N > 0 {
			return t.N
		}
		return 4
	case "spineleaf":
		if t.Leaves > 0 {
			return t.Leaves
		}
		return 4
	case "dumbbell":
		return 2
	default:
		return 4
	}
}

func buildNetConfig(sc *Scenario) netdev.Config {
	cfg := netdev.DefaultConfig(sc.Seed)
	q := &sc.Protocol.Queue
	max := q.MaxPkts
	if max <= 0 {
		max = 100
	}
	switch q.Kind {
	case "", "droptail":
		cfg.Queue = netdev.DropTailConfig(max)
	case "red":
		cfg.Queue = netdev.REDConfig(max)
	case "dctcp":
		k := q.EcnK
		if k <= 0 {
			k = 20
		}
		cfg.Queue = netdev.DCTCPConfig(max, k)
	case "pfifo":
		cfg.Queue = netdev.PfifoFastConfig(max)
	case "codel":
		cfg.Queue = netdev.CoDelConfig(max)
	}
	if q.ECN != nil {
		cfg.Queue.ECN = *q.ECN
	}
	if sc.Protocol.ChecksumWork != nil {
		cfg.ChecksumWork = *sc.Protocol.ChecksumWork
	}
	return cfg
}

func buildTCPConfig(t *TCPSpec) tcp.Config {
	cfg := tcp.DefaultConfig()
	if t.WAN {
		cfg = tcp.WANConfig()
	}
	if t.Variant == "dctcp" {
		cfg.Variant = tcp.DCTCPConfig().Variant
	}
	if t.MinRTO > 0 {
		cfg.MinRTO = t.MinRTO.T()
	}
	if t.InitCwnd > 0 {
		cfg.InitCwnd = t.InitCwnd
	}
	if t.DelayedAck != nil {
		cfg.DelayedAck = *t.DelayedAck
	}
	if t.AckDelay > 0 {
		cfg.AckDelay = t.AckDelay.T()
	}
	if t.RcvBuf > 0 {
		cfg.RcvBuf = t.RcvBuf
	}
	return cfg
}

func (b *Built) buildTraffic(t *TrafficSpec, sc *Scenario) (traffic.Config, error) {
	tc := traffic.Config{
		Seed:         sc.Seed,
		Hosts:        b.Hosts,
		Load:         t.Load,
		BisectionBps: b.G.BisectionBandwidth(),
		Start:        t.Start.T(),
		End:          t.End.T(),
		IncastRatio:  t.Incast,
	}
	switch t.Sizes {
	case "", "grpc":
		tc.Sizes = traffic.GRPCCDF()
	case "websearch":
		tc.Sizes = traffic.WebSearchCDF()
	}
	if t.Pattern == "permutation" {
		tc.Pattern = traffic.Permutation
	}
	if t.Victim != nil {
		if *t.Victim >= len(b.Hosts) {
			return tc, fmt.Errorf("scenario: traffic.victim %d out of range (topology has %d hosts)", *t.Victim, len(b.Hosts))
		}
		tc.Victim = b.Hosts[*t.Victim]
		tc.HasVictim = true
	}
	if tc.End == 0 {
		tc.End = sc.Stop.T() * 3 / 4
	}
	if tc.End <= tc.Start {
		return tc, fmt.Errorf("scenario: traffic window is empty (start %v >= end %v)", tc.Start, tc.End)
	}
	return tc, nil
}

func (b *Built) buildCollective(c *CollectiveSpec) (*coll.Config, error) {
	p := c.Participants
	if p == 0 {
		p = len(b.Hosts)
	}
	if p > len(b.Hosts) {
		return nil, fmt.Errorf("scenario: collective.participants %d exceeds the topology's %d hosts", p, len(b.Hosts))
	}
	cc := &coll.Config{
		Pattern:      c.Pattern,
		Nodes:        b.Hosts[:p],
		MessageBytes: c.MessageBytes,
		ChunkBytes:   c.ChunkBytes,
		Start:        c.Start.T(),
		StepDelay:    c.StepDelay.T(),
		Iters:        c.Iters,
	}
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return cc, nil
}

func buildRouter(sc *Scenario, g *topology.Graph) (routing.Router, *routing.RIP, error) {
	metric := routing.Hops
	if sc.Routing.Metric == "delay" {
		metric = routing.Delay
	}
	switch sc.Routing.Kind {
	case "", "ecmp":
		return routing.NewECMP(g, metric, sc.Seed), nil, nil
	case "rip":
		period := sc.Routing.Period.T()
		if period <= 0 {
			period = 20 * sim.Microsecond
		}
		r := routing.NewRIP(g, period)
		return r, r, nil
	default:
		return nil, nil, fmt.Errorf("scenario: unknown routing.kind %q", sc.Routing.Kind)
	}
}

// RunKernel executes the finalized model under the scenario's kernel
// selection (kernel.kind / kernel.threads, plus the manual partition for
// the PDES baselines). The caller owns Model() so it can wire
// checkpoints or observability between Build and the run.
func (b *Built) RunKernel(m *sim.Model) (*sim.RunStats, error) {
	kind := b.Scenario.Kernel.Kind
	if kind == "" {
		kind = "unison"
	}
	threads := b.Scenario.Kernel.Threads
	if threads <= 0 {
		threads = 4
	}
	needManual := func() (*core.Partition, error) {
		if b.Manual == nil {
			return nil, fmt.Errorf("the %s kernel needs a manual partition; topology %q has no recipe (use unison)", kind, b.Scenario.Topology.Kind)
		}
		return core.Manual(b.Manual, b.G.LinkInfos()), nil
	}
	switch kind {
	case "sequential", "seq":
		return (&des.Kernel{Observe: b.Observe, ProgressEvery: b.Progress}).Run(m)
	case "unison":
		return core.New(core.Config{Threads: threads, Observe: b.Observe}).Run(m)
	case "hybrid":
		if b.Manual == nil {
			return nil, fmt.Errorf("the hybrid kernel needs a host partition; topology %q has none", b.Scenario.Topology.Kind)
		}
		return core.NewHybrid(core.HybridConfig{HostOf: b.Manual, ThreadsPerHost: threads, Observe: b.Observe}).Run(m)
	case "barrier":
		part, err := needManual()
		if err != nil {
			return nil, err
		}
		return (&pdes.BarrierKernel{Part: part, Observe: b.Observe}).Run(m)
	case "nullmsg":
		part, err := needManual()
		if err != nil {
			return nil, err
		}
		return (&pdes.NullMessageKernel{Part: part, Observe: b.Observe}).Run(m)
	case "vseq":
		return vtime.Run(m, vtime.Config{Algo: vtime.Sequential, Observe: b.Observe})
	case "vbarrier":
		return vtime.Run(m, vtime.Config{Algo: vtime.Barrier, LPOf: b.Manual, Observe: b.Observe})
	case "vnullmsg":
		return vtime.Run(m, vtime.Config{Algo: vtime.NullMessage, LPOf: b.Manual, Observe: b.Observe})
	case "vunison":
		return vtime.Run(m, vtime.Config{Algo: vtime.Unison, Cores: threads, Observe: b.Observe})
	default:
		return nil, fmt.Errorf("unknown kernel %q", kind)
	}
}

// Bundle assembles the run-artifact bundle for a finished run: metadata,
// kernel stats, the flow monitor, sampler rows, optional packet trace,
// the collective report when the scenario carries one, and the kernel
// worker lanes of the registry that observed the run. The sampler is
// flushed here; pass a nil sampler or registry when that side was not
// enabled.
func (b *Built) Bundle(tool string, st *sim.RunStats, sampler *netobs.Sampler, reg *obs.Registry) *netobs.Bundle {
	bw := b.Scenario.Topology.BwGbps
	if bw <= 0 {
		bw = 10
	}
	out := &netobs.Bundle{
		Meta: netobs.Meta{
			Tool: tool, Kernel: st.Kernel, Topology: b.Scenario.Topology.Kind,
			Seed: b.Scenario.Seed, Workers: len(st.Workers), StopNS: int64(b.Scenario.Stop),
			Flows: b.Sim.Mon.Flows(),
		},
		Stats:        st,
		Mon:          b.Sim.Mon,
		RefBandwidth: int64(bw * 1e9),
	}
	if r := b.Sim.CollReport(b.Sim.Mon); r != nil {
		out.Coll = r
	}
	if sampler != nil {
		sampler.Flush()
		out.Rows = sampler.Rows()
		out.Interval = sampler.Interval()
	}
	if b.Sim.Net.Tracer != nil {
		out.Trace = b.Sim.Net.Tracer.Merged()
	}
	if reg != nil {
		out.KernelMeta, out.KernelRecs = reg.Meta(), reg.Records()
	}
	return out
}
