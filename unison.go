// Package unison is a from-scratch Go reproduction of "Unison: A
// Parallel-Efficient and User-Transparent Network Simulation Kernel"
// (Bai et al., EuroSys 2024): a packet-level network simulator with four
// interchangeable kernels — sequential DES, barrier-synchronization PDES,
// null-message PDES, and the Unison kernel with automatic fine-grained
// partition and load-adaptive scheduling.
//
// The user-transparency property is the heart of the API: a simulation
// is described once, with zero parallelism configuration, and the
// resulting Model runs unmodified under any kernel. The declarative form
// is a Scenario — one JSON file naming topology, workload, protocol
// and kernel — which every CLI accepts via -scenario:
//
//	sc, err := unison.LoadScenario("ring.scenario.json")
//	b, err := sc.Build()
//	stats, err := b.RunKernel(b.Sim.Model())
//
// The programmatic form assembles the same pieces directly:
//
//	ft := unison.BuildFatTree(unison.FatTreeK(4, 10*unison.Gbps, 3*unison.Microsecond))
//	flows := unison.GenerateTraffic(unison.TrafficConfig{ ... })
//	sc := unison.NewSim(ft.Graph, unison.NewECMP(ft.Graph, unison.Hops, seed), unison.SimConfig{
//	    Flows: flows, StopAt: 2 * unison.Millisecond,
//	    NetCfg: unison.DefaultNetConfig(seed), TCPCfg: unison.DefaultTCP(),
//	})
//	stats, err := unison.NewUnison(unison.UnisonConfig{Threads: 8}).Run(sc.Model())
//
// This file re-exports the supported public surface; the implementation
// lives in internal packages (see DESIGN.md for the system inventory).
package unison

import (
	"unison/internal/app"
	"unison/internal/ckpt"
	"unison/internal/coll"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/stats"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
	"unison/internal/vtime"
)

// --- Core simulation types ---

type (
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// NodeID identifies a simulated node.
	NodeID = sim.NodeID
	// Model is a kernel-agnostic simulation description.
	Model = sim.Model
	// Kernel runs a Model to completion.
	Kernel = sim.Kernel
	// RunStats summarizes a completed run (events, rounds, P/S/M, ...).
	RunStats = sim.RunStats
	// Ctx is the execution context passed to event callbacks.
	Ctx = sim.Ctx
)

// Re-exported time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Link bandwidths in bits per second.
const (
	Mbps int64 = 1_000_000
	Gbps int64 = 1_000_000_000
)

// --- Kernels ---

type (
	// UnisonConfig tunes the Unison kernel (threads, scheduling metric,
	// scheduling period, optional manual partition).
	UnisonConfig = core.Config
	// Metric selects the load-adaptive scheduling estimate.
	Metric = core.Metric
	// Partition is a topology partition (node → LP assignment).
	Partition = core.Partition
)

// Scheduling metrics.
const (
	MetricPrevTime      = core.MetricPrevTime
	MetricPendingEvents = core.MetricPendingEvents
	MetricNone          = core.MetricNone
)

// NewSequential returns the sequential DES kernel.
func NewSequential() Kernel { return des.New() }

// NewUnison returns the Unison kernel.
func NewUnison(cfg UnisonConfig) Kernel { return core.New(cfg) }

// HybridConfig tunes the multi-host hybrid kernel (§5.2).
type HybridConfig = core.HybridConfig

// NewHybrid returns the hybrid kernel: a static host-level partition with
// Unison's fine-grained partition and scheduling inside each host.
func NewHybrid(cfg HybridConfig) Kernel { return core.NewHybrid(cfg) }

// NewBarrier returns the barrier-synchronization PDES baseline. The
// typed partition carries the static manual node→rank assignment plus
// the lookahead derived from it; build one with ManualPartition.
func NewBarrier(part *Partition) Kernel { return &pdes.BarrierKernel{Part: part} }

// NewNullMessage returns the null-message PDES baseline. The typed
// partition carries the static manual node→rank assignment plus the
// lookahead derived from it; build one with ManualPartition.
func NewNullMessage(part *Partition) Kernel { return &pdes.NullMessageKernel{Part: part} }

// FineGrainedPartition runs the paper's Algorithm 1 on a topology.
func FineGrainedPartition(g *Graph) *Partition {
	return core.FineGrained(g.N(), g.LinkInfos())
}

// ManualPartition wraps a manual node→rank assignment (one entry per node
// of g) into a typed Partition, deriving the cross-rank lookahead from
// g's links — the form NewBarrier and NewNullMessage accept.
func ManualPartition(g *Graph, lpOf []int32) *Partition {
	return core.Manual(lpOf, g.LinkInfos())
}

// --- Topologies ---

type (
	// Graph is a mutable network topology.
	Graph = topology.Graph
	// LinkID indexes a link within its graph.
	LinkID = topology.LinkID
	// FatTree is a built clustered fat-tree.
	FatTree = topology.FatTree
	// FatTreeCfg parameterizes a clustered fat-tree.
	FatTreeCfg = topology.FatTreeCfg
	// BCube is a built BCube(n,k).
	BCube = topology.BCube
	// Torus is a built 2D torus.
	Torus = topology.Torus
	// SpineLeaf is a built spine-leaf fabric.
	SpineLeaf = topology.SpineLeaf
	// Dumbbell is a built dumbbell (congestion-control topology).
	Dumbbell = topology.Dumbbell
	// WAN is a built wide-area backbone.
	WAN = topology.WAN
)

// Node kinds.
const (
	Host   = topology.Host
	Switch = topology.Switch
)

// Topology builders (see internal/topology for parameter semantics).
var (
	FatTreeK        = topology.FatTreeK
	FatTreeClusters = topology.FatTreeClusters
	BuildFatTree    = topology.BuildFatTree
	BuildBCube      = topology.BuildBCube
	BuildTorus2D    = topology.BuildTorus2D
	BuildSpineLeaf  = topology.BuildSpineLeaf
	BuildDumbbell   = topology.BuildDumbbell
	BuildWAN        = topology.BuildWAN
	Geant           = topology.Geant
	ChinaNet        = topology.ChinaNet
)

// --- Routing ---

type (
	// Router picks output links for packets.
	Router = routing.Router
	// RIP is the distance-vector dynamic routing protocol.
	RIP = routing.RIP
)

// Shortest-path metrics.
const (
	Hops  = routing.Hops
	Delay = routing.Delay
)

// NewECMP builds static equal-cost multipath shortest-path tables.
func NewECMP(g *Graph, metric routing.Metric, seed uint64) *routing.ECMP {
	return routing.NewECMP(g, metric, seed)
}

// NewRIP builds RIP state for g with the given advertisement period.
func NewRIP(g *Graph, period Time) *RIP { return routing.NewRIP(g, period) }

// --- Simulations, transport, traffic ---

type (
	// Sim binds topology + routing + data plane + transport + flows —
	// one assembled simulation.
	Sim = app.Sim
	// SimConfig selects simulation-level options.
	SimConfig = app.Config
	// NetConfig tunes the data plane (queues, per-byte work model).
	NetConfig = netdev.Config
	// Device is one link endpoint (queue + transmitter); reachable via
	// Sim.Net.Devices for post-run statistics.
	Device = netdev.Device
	// QueueConfig parameterizes a device queue.
	QueueConfig = netdev.QueueConfig
	// TCPConfig tunes the transport.
	TCPConfig = tcp.Config
	// FlowSpec describes one application flow.
	FlowSpec = tcp.FlowSpec
	// FlowID identifies a flow.
	FlowID = packet.FlowID
	// TrafficConfig parameterizes workload generation.
	TrafficConfig = traffic.Config
	// TrafficStream yields workload flows one at a time — the streaming
	// (O(window) memory) alternative to GenerateTraffic, bit-identical
	// to it for the same config.
	TrafficStream = traffic.Stream
	// FlowSource is anything that yields flow specs in nondecreasing
	// start order; SimConfig.FlowSrc accepts one.
	FlowSource = tcp.FlowSource
	// OnOffSpec describes a UDP on/off (or CBR) source application.
	OnOffSpec = tcp.OnOffSpec
	// Monitor holds per-flow statistics of a run.
	Monitor = flowmon.Monitor
	// CDF is an empirical distribution (flow sizes).
	CDF = stats.CDF
)

// NewSim assembles a simulation (see internal/app).
func NewSim(g *Graph, router Router, cfg SimConfig) *Sim {
	return app.New(g, router, cfg)
}

// --- Declarative scenarios ---
//
// A Scenario is the file-loadable description of one simulation —
// topology + traffic/collective + protocol + kernel + artifact knobs.
// Every CLI that runs one consumes it through its -scenario flag, with
// -set path=value assignments (Scenario.Set) applied on top. See
// internal/app/scenario.go for the schema
// and its versioning/compat rules (DESIGN.md §12).

type (
	// Scenario is the versioned declarative simulation description.
	Scenario = app.Scenario
	// BuiltScenario is a resolved scenario: the assembled Sim plus
	// topology context (hosts, manual-partition recipe).
	BuiltScenario = app.Built
	// ScenarioDuration is a sim.Time that marshals as "250us"-style
	// duration strings in scenario files.
	ScenarioDuration = app.Duration

	// The scenario's section structs, for programmatic construction.
	TopologySpec   = app.TopologySpec
	RoutingSpec    = app.RoutingSpec
	ProtocolSpec   = app.ProtocolSpec
	TrafficSpec    = app.TrafficSpec
	CollectiveSpec = app.CollectiveSpec
	KernelSpec     = app.KernelSpec
	ArtifactSpec   = app.ArtifactSpec
)

// Scenario loading and defaults.
var (
	// LoadScenario reads a JSON scenario file; unknown keys fail with
	// their full path.
	LoadScenario = app.LoadScenario
	// ParseScenario parses JSON scenario bytes.
	ParseScenario = app.ParseScenario
	// DefaultScenario is the baseline the CLIs start from without a
	// -scenario file (k=4 fat-tree, 30% gRPC load, Unison kernel).
	DefaultScenario = app.DefaultScenario
)

// ScenarioSchemaVersion is the scenario schema version this build
// reads and writes.
const ScenarioSchemaVersion = app.SchemaVersion

// --- Collective workloads (internal/coll) ---

type (
	// CollConfig describes one collective operation over participant
	// hosts; SimConfig.Coll accepts one.
	CollConfig = coll.Config
	// CollPattern is a compiled collective: the chunk-sized flows plus
	// their dependency DAG in CSR form.
	CollPattern = coll.Pattern
	// CollEngine releases the pattern's flows as their predecessors
	// complete; Sim wires one automatically when SimConfig.Coll is set.
	CollEngine = coll.Engine
	// CollReport is the collective completion summary written to
	// coll_report.json (completion time + per-step straggler breakdown).
	CollReport = coll.Report
)

// Collective pattern constructors.
var (
	RingAllReduce = coll.RingAllReduce
	TreeAllReduce = coll.TreeAllReduce
	AllToAll      = coll.AllToAll
	ParamServer   = coll.ParamServer
	// BuildCollReport recomputes a CollReport from (pattern, base flow
	// ID, monitor) — a pure function, so the distributed coordinator
	// derives the identical section from the merged monitor.
	BuildCollReport = coll.BuildReport
)

// DefaultNetConfig returns DropTail queues with the checksum work model.
func DefaultNetConfig(seed uint64) NetConfig { return netdev.DefaultConfig(seed) }

// Queue configuration helpers.
var (
	DropTailConfig  = netdev.DropTailConfig
	REDConfig       = netdev.REDConfig
	DCTCPQueue      = netdev.DCTCPConfig
	PfifoFastConfig = netdev.PfifoFastConfig
	CoDelConfig     = netdev.CoDelConfig
)

// Transport configuration helpers.
var (
	DefaultTCP = tcp.DefaultConfig
	WANTCP     = tcp.WANConfig
	DCTCPCfg   = tcp.DCTCPConfig
)

// Workload helpers.
var (
	// GenerateTraffic materializes the statistical workload for a config.
	// Library code may call it freely; the CLIs must route workloads
	// through the Scenario path instead, so every tool honors one
	// -scenario contract.
	GenerateTraffic = traffic.Generate
	IncastBurst     = traffic.IncastBurst
	WebSearchCDF    = traffic.WebSearchCDF
	GRPCCDF         = traffic.GRPCCDF
	// NewTrafficStream returns the streaming generator for cfg; pair it
	// with SimConfig.FlowSrc and FlowCount: CountTraffic(cfg).
	NewTrafficStream = traffic.NewStream
	// CountTraffic returns how many flows cfg yields (drains a fresh
	// stream; the materialized slice is never built).
	CountTraffic = traffic.Count
)

// DefaultStreamWindow is the default pull-ahead horizon for streaming
// workloads (SimConfig.StreamWindow == 0).
const DefaultStreamWindow = tcp.DefaultStreamWindow

// --- Checkpoint/restore ---
//
// Long runs can write crash-consistent snapshots at deterministic round
// barriers and resume from them with bit-identical results (DESIGN.md
// §11). Sim.CkptTarget assembles the target; the virtual-time
// testbeds reject checkpointed models.

// CkptTarget binds a simulation's stateful layers and event decoders for
// whole-simulation checkpoint/restore.
type CkptTarget = ckpt.Target

var (
	// EnableCheckpoints arms periodic snapshots on a model: every `every`
	// synchronization rounds (or every `everyTime` of simulated time for
	// the null-message kernel) the kernel quiesces and writes
	// dir/ckpt-r<round>.uckpt atomically.
	EnableCheckpoints = app.EnableCheckpoints
	// RestoreCheckpoint loads a snapshot into the target's layers and arms
	// the model to resume from it instead of its initial events.
	RestoreCheckpoint = app.Restore
	// CheckpointPath names the snapshot file for a round in a directory.
	CheckpointPath = app.CheckpointPath
)

// Traffic patterns.
const (
	Uniform     = traffic.Uniform
	Permutation = traffic.Permutation
)

// --- Observability ---
//
// Every kernel config carries an `Observe Probe` knob. A nil probe (the
// default) costs one predictable branch per round; a non-nil probe
// receives one RoundRecord per worker per synchronization round. Probes
// only observe: a probed run is bit-identical to an unprobed one (pinned
// by the equivalence tests). The standard probe is Registry: it keeps each
// worker's running totals (Registry.Totals, what a watcher folds the
// record stream with) and its captured records become the kernel lanes of
// a bundle's Perfetto trace.

type (
	// Probe receives kernel telemetry; see the interface docs for the
	// call discipline every kernel follows.
	Probe = obs.Probe
	// RoundRecord is one worker's view of one synchronization round:
	// round index, LBTS, events executed, the T = P + S + M nanosecond
	// decomposition, mailbox and FEL counters, scheduler migrations, and
	// distributed all-reduce latency.
	RoundRecord = obs.RoundRecord
	// RunMeta identifies one kernel run to a probe.
	RunMeta = obs.RunMeta
	// Registry is the standard probe: per-worker ring buffers merged in
	// (round, worker) order and per-worker running totals, with a
	// Perfetto export.
	Registry = obs.Registry
)

// NewRegistry returns a Registry keeping up to capPerWorker round records
// per worker (a sensible default when capPerWorker <= 0).
func NewRegistry(capPerWorker int) *Registry { return obs.NewRegistry(capPerWorker) }

// --- Record stream and live telemetry (internal/netobs, internal/obs/live) ---
//
// The CLIs tee an ImbalanceTracker and a record stream beside their
// Registry. The stream is one NDJSON file, records.ndjson in the bundle:
// a meta line, every round record and sampler row delta as the run goes,
// and the final RunStats last. Under -live, GET /live serves that file
// from its start and follows it to the stats line; cmd/unimon decodes it
// and folds it with a Registry and an ImbalanceTracker of its own.
// ImbalanceTracker computes the per-round load-imbalance diagnostics that
// land in RunStats.Imbalance.

type (
	// ImbalanceTracker derives per-round max/mean processing-time ratios,
	// straggler attribution and migration counts from round records.
	ImbalanceTracker = obs.ImbalanceTracker
	// Imbalance is the run-level load-imbalance summary stamped into
	// RunStats.Imbalance (and run_stats.json).
	Imbalance = sim.Imbalance
	// BundleDiff is the metric-by-metric comparison of two artifact
	// bundles (`unitrace diff`).
	BundleDiff = netobs.BundleDiff
)

var (
	// NewImbalanceTracker returns an empty tracker; attach it as a probe
	// (alone or in a tee) and call Apply after the run.
	NewImbalanceTracker = obs.NewImbalanceTracker
	// TeeProbes fans probe calls out to several probes in order.
	TeeProbes = obs.Tee
	// DiffBundles compares two artifact directories metric by metric.
	DiffBundles = netobs.DiffBundles
)

// --- Simulated-network observability (internal/netobs) ---
//
// Sim.EnableNetObs attaches the packet tracer and the queue/link
// sampler before the run; both ride the deterministic event stream, so
// the exports below are byte-identical across every kernel — including
// multi-rank distributed runs — for the same seeded scenario.

type (
	// NetSampler collects per-device queue-depth/drop/mark and link
	// utilization time series on a fixed simulated-time bucket grid.
	NetSampler = netobs.Sampler
	// NetSamplerConfig parameterizes a NetSampler.
	NetSamplerConfig = netobs.SamplerConfig
	// NetRow is one device's sample for one time bucket.
	NetRow = netobs.Row
	// ArtifactBundle materializes one run's outputs as a directory
	// (meta.json, run_stats.json, flow_report.json, series.csv,
	// trace.pcapng, trace.perfetto.json).
	ArtifactBundle = netobs.Bundle
	// ArtifactMeta is the provenance header of an artifact bundle.
	ArtifactMeta = netobs.Meta
	// FlowReport is flowmon's percentile/slowdown/goodput report.
	FlowReport = flowmon.FlowReport
	// FlowReportConfig parameterizes Monitor.Report.
	FlowReportConfig = flowmon.ReportConfig
)

// Network observability exporters.
var (
	// NewNetSampler returns a sampler; attach it with
	// Sim.Net.AttachSampler (or use Sim.EnableNetObs).
	NewNetSampler = netobs.NewSampler
	// WriteSeriesCSV renders sampler rows as series.csv.
	WriteSeriesCSV = netobs.WriteCSV
	// WritePcapng renders packet-trace records as a Wireshark-openable
	// pcapng capture with synthesized Ethernet/IP/TCP headers.
	WritePcapng = netobs.WritePcapng
	// FlowTable derives the pcapng flow-address table from a Monitor.
	FlowTable = netobs.FlowTable
)

// --- Virtual testbed ---

type (
	// VirtualConfig parameterizes a virtual-testbed run: the same kernel
	// algorithms executed against virtual per-worker clocks so that
	// speedups for arbitrary core counts can be measured on any machine
	// (DESIGN.md §1).
	VirtualConfig = vtime.Config
	// CostModel converts events into virtual nanoseconds.
	CostModel = vtime.CostModel
)

// VirtualRun executes m under the virtual testbed.
func VirtualRun(m *Model, cfg VirtualConfig) (*RunStats, error) { return vtime.Run(m, cfg) }

// Virtual testbed algorithms.
const (
	VSequential  = vtime.Sequential
	VBarrier     = vtime.Barrier
	VNullMessage = vtime.NullMessage
	VUnison      = vtime.Unison
	VHybrid      = vtime.Hybrid
)

// DefaultCostModel returns the calibrated event cost model.
func DefaultCostModel() CostModel { return vtime.DefaultCostModel() }
