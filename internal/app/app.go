// Package app assembles complete simulation scenarios: topology + routing
// + data plane + transport + workload + model. It is the layer example
// programs and the experiment harness build on.
//
// The central user-transparency property: a Sim is constructed once,
// with zero partitioning or parallelism configuration, and the resulting
// sim.Model runs unmodified under any kernel.
package app

import (
	"fmt"

	"unison/internal/coll"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/trace"
)

// Sim binds the pieces of one simulation.
type Sim struct {
	G      *topology.Graph
	Router routing.Router
	Net    *netdev.Network
	Stack  *tcp.Stack
	Mon    *flowmon.Monitor
	Setup  *sim.Setup
	Flows  []tcp.FlowSpec
	StopAt sim.Time

	// Coll is the collective-communication engine when Config.Coll asked
	// for one; nil otherwise. Its flows are numbered CollBase onward.
	Coll     *coll.Engine
	CollBase packet.FlowID

	cfg       Config
	flowSrc   tcp.FlowSource
	finalized bool
}

// Config selects scenario-level options.
type Config struct {
	Seed   uint64
	NetCfg netdev.Config
	TCPCfg tcp.Config
	StopAt sim.Time
	Flows  []tcp.FlowSpec
	// ExtraFlowSlots reserves additional monitor records beyond Flows
	// (for flows injected by custom setup events).
	ExtraFlowSlots int

	// FlowSrc, when set, replaces Flows with a streaming workload: flow
	// specs are pulled on demand during the run instead of being
	// materialized up front, keeping workload memory O(window) instead of
	// O(flows). Requires a kernel with global-event support (sequential,
	// Unison, hybrid, barrier, virtual testbed). Mutually exclusive with
	// Flows.
	FlowSrc tcp.FlowSource
	// FlowCount sizes the flow monitor when FlowSrc is set (the number of
	// flows the source will emit, e.g. traffic.Count). Flow IDs at or
	// beyond FlowCount+ExtraFlowSlots spill into the monitor's straggler
	// overflow, so an underestimate degrades memory, not correctness.
	FlowCount int
	// StreamWindow is the pull-ahead horizon for FlowSrc (0 uses
	// tcp.DefaultStreamWindow).
	StreamWindow sim.Time

	// Coll, when set, adds a collective-communication workload (see
	// internal/coll) on top of Flows/FlowSrc. Its flows are numbered
	// after the traffic flows, before ExtraFlowSlots.
	Coll *coll.Config
}

// New assembles a scenario over g with the given router.
func New(g *topology.Graph, router routing.Router, cfg Config) *Sim {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("app: %v", err))
	}
	if cfg.StopAt <= 0 {
		panic("app: StopAt must be positive")
	}
	if cfg.FlowSrc != nil && len(cfg.Flows) > 0 {
		panic("app: Flows and FlowSrc are mutually exclusive")
	}
	slots := cfg.FlowCount
	if cfg.FlowSrc == nil {
		maxID := -1
		for _, f := range cfg.Flows {
			if int(f.ID) > maxID {
				maxID = int(f.ID)
			}
		}
		slots = maxID + 1
	}
	var pat *coll.Pattern
	if cfg.Coll != nil {
		var err error
		if pat, err = coll.New(*cfg.Coll); err != nil {
			panic(fmt.Sprintf("app: %v", err))
		}
	}
	collFlows := 0
	if pat != nil {
		collFlows = pat.Flows
	}
	mon := flowmon.NewMonitor(slots + collFlows + cfg.ExtraFlowSlots)
	net := netdev.New(g, router, cfg.NetCfg)
	stack := tcp.NewStack(net, cfg.TCPCfg, mon)
	s := &Sim{
		G:      g,
		Router: router,
		Net:    net,
		Stack:  stack,
		Mon:    mon,
		Setup:  sim.NewSetup(),
		Flows:  cfg.Flows,
		StopAt: cfg.StopAt,

		cfg:     cfg,
		flowSrc: cfg.FlowSrc,
	}
	if cfg.FlowSrc != nil {
		stack.AttachStream(s.Setup, cfg.FlowSrc, cfg.StreamWindow)
	} else {
		stack.Attach(s.Setup, cfg.Flows)
	}
	if pat != nil {
		s.CollBase = packet.FlowID(slots)
		s.Coll = coll.NewEngine(pat, stack, s.CollBase)
		s.Coll.Install(s.Setup)
	}
	return s
}

// CollReport computes the collective completion report from the run's
// monitor, or nil when the Sim has no collective workload. Pass a merged
// monitor to build the distributed coordinator's identical section.
func (s *Sim) CollReport(mon *flowmon.Monitor) *coll.Report {
	if s.Coll == nil {
		return nil
	}
	return coll.BuildReport(s.Coll.Pattern(), s.CollBase, mon)
}

// Model finalizes the scenario (adding the global stop event) and returns
// the kernel-agnostic model. Call at most once.
func (s *Sim) Model() *sim.Model {
	if !s.finalized {
		s.finalized = true
		e := &stopEvt{}
		s.Setup.GlobalDesc(s.StopAt, func(ctx *sim.Ctx) { ctx.Stop() }, e)
	}
	m := &sim.Model{
		Nodes:  s.G.N(),
		Links:  s.G.LinkInfos,
		Init:   s.Setup.Events(),
		StopAt: s.StopAt,
	}
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("app: %v", err))
	}
	return m
}

// EnableNetObs turns on the full simulated-network observability stack:
// a packet-trace collector (perNodeCap records per node, 0 = unlimited)
// and a queue/link sampler with the given bucket interval (<= 0 uses
// netobs.DefaultInterval). Call before Model; both collectors ride the
// deterministic event stream, so their merged output is identical across
// kernels. Returns the collector and sampler for post-run export.
func (s *Sim) EnableNetObs(interval sim.Time, perNodeCap int) (*trace.Collector, *netobs.Sampler) {
	if s.Net.Tracer == nil {
		s.Net.Tracer = trace.NewCollector(s.G.N(), perNodeCap)
	}
	sampler := s.Net.Sampler()
	if sampler == nil {
		sampler = netobs.NewSampler(netobs.SamplerConfig{Interval: interval})
		s.Net.AttachSampler(sampler)
	}
	return s.Net.Tracer, sampler
}

// ScheduleTopoChange registers a global event at t that applies mutate to
// the topology and refreshes routing — the reconfigurable-DCN primitive.
// Kernels observe the topology version change and recompute lookahead, and
// the data plane settles the frames the change caught on a transmitter.
func (s *Sim) ScheduleTopoChange(t sim.Time, mutate func()) {
	s.Setup.Global(t, func(ctx *sim.Ctx) {
		mutate()
		s.Router.Recompute()
		s.Net.LinkStateChanged(ctx)
	})
}

// EnableProgress schedules a self-rescheduling global progress event every
// interval — the paper's third global-event use case ("printing the
// simulation progress", §4.2). fn runs on the public LP with all workers
// quiescent.
func (s *Sim) EnableProgress(interval sim.Time, fn func(now sim.Time)) {
	if interval <= 0 {
		panic("app: progress interval must be positive")
	}
	stop := s.StopAt
	var tick sim.Proc
	tick = func(ctx *sim.Ctx) {
		fn(ctx.Now())
		if next := ctx.Now() + interval; next < stop {
			ctx.ScheduleGlobal(next, tick)
		}
	}
	s.Setup.Global(interval, tick)
}
