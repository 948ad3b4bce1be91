// Package sim defines the substrate shared by every simulation kernel in
// this repository: simulated time, discrete events, the execution context
// handed to event callbacks, the model description a kernel runs, and the
// Kernel interface itself.
//
// Model code (links, queues, TCP, applications, ...) is written once against
// this package and runs unmodified under the sequential DES kernel, the
// barrier-synchronization and null-message PDES kernels, and the Unison
// kernel — this is the paper's "user transparency" property.
package sim

import (
	"fmt"
	"slices"
	"strings"
)

// Time is simulated time in nanoseconds since the start of the simulation.
type Time int64

// Convenient duration units, all expressed in Time (nanoseconds).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// MaxTime is the largest representable simulated time. It is used as the
// "no event" sentinel when computing LBTS windows.
const MaxTime Time = 1<<63 - 1

// AddSat returns t + d saturating at MaxTime, so that "no event" plus any
// lookahead is still "no event".
func (t Time) AddSat(d Time) Time {
	if s := t + d; t != MaxTime && d != MaxTime && s >= t {
		return s
	}
	return MaxTime
}

// String renders a Time with an adaptive unit, e.g. "3µs" or "1.5ms".
func (t Time) String() string {
	switch {
	case t == MaxTime:
		return "∞"
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return trimUnit(float64(t)/float64(Microsecond), "µs")
	case t < Second:
		return trimUnit(float64(t)/float64(Millisecond), "ms")
	default:
		return trimUnit(float64(t)/float64(Second), "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + unit
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// NodeID identifies a simulated node (host or switch). Node IDs are dense:
// a model with N nodes uses IDs 0..N-1.
type NodeID int32

// GlobalNode is the pseudo-target of global events: events that may affect
// every node at once (stopping the simulator, mutating the topology,
// printing progress). Under Unison these are executed by the public LP.
const GlobalNode NodeID = -1

// SetupSrc marks events created during model construction, before any event
// has executed (there is no creating node yet).
const SetupSrc NodeID = -2

// Proc is an event callback. It receives the execution context of the
// worker currently running the event; all interaction with the simulator
// (reading the clock, scheduling further events) goes through ctx.
type Proc func(ctx *Ctx)

// Event is a discrete event: at Time, on node Node, run Fn.
//
// (Src, Seq) identify the event for deterministic tie-breaking: Src is the
// node whose event callback created this event (SetupSrc for initial
// events) and Seq is a per-creating-node counter. Events are executed in
// (Time, Src, Seq) lexicographic order, a total order that is independent
// of partitioning and thread count, so every kernel in this repository
// produces bit-identical simulation results for the same model and seed.
// This is a strict strengthening of the paper's per-LP tie-breaking rule
// (§5.2), which is reproducible only within one partitioning.
type Event struct {
	Time Time
	Src  NodeID
	Seq  uint64
	Node NodeID
	Fn   Proc

	// Desc, when non-nil, is the serializable description of Fn: a typed
	// value the owning layer can re-materialize after a checkpoint restore
	// (Fn itself is a closure and cannot cross a process boundary). Events
	// without a Desc cannot be checkpointed while pending; every event the
	// built-in scenario layers leave pending across a round barrier carries
	// one. See ckpt.go.
	Desc EvDesc
}

// Before reports whether e must execute before o under the deterministic
// total order (Time, Src, Seq).
func (e *Event) Before(o *Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Src != o.Src {
		return e.Src < o.Src
	}
	return e.Seq < o.Seq
}

// Sink is where a context deposits newly scheduled events. Each kernel
// provides its own implementation (direct FEL insertion for sequential DES,
// mailbox routing for parallel kernels).
type Sink interface {
	// Put delivers a fully-stamped event to the kernel. Put is called from
	// the worker executing the creating event; kernels must route it safely.
	Put(ev Event)
	// PutGlobal delivers a global event (ev.Node == GlobalNode).
	PutGlobal(ev Event)
}

// Ctx is the execution context of one kernel worker. Exactly one event
// callback at a time runs on a Ctx; the kernel updates now/cur around each
// callback. Model code must never retain a Ctx across events.
type Ctx struct {
	now  Time
	cur  NodeID
	seq  *uint64 // per-creating-node sequence counter for the current node
	sink Sink
	// evSrc and evSeq are the identity of the executing event (RunsBefore).
	evSrc NodeID
	evSeq uint64

	// Worker is the index of the executing worker (thread) — useful for
	// per-worker metrics. Sequential kernels use 0.
	Worker int

	// stopped is set by Stop; kernels poll it after each event batch.
	stopped bool
}

// NewCtx returns a context bound to sink for worker w. Kernels call this.
func NewCtx(sink Sink, w int) *Ctx {
	return &Ctx{sink: sink, Worker: w}
}

// Begin positions the context at the start of event ev, whose per-node
// sequence counter is seq. Kernels call this immediately before ev.Fn(ctx).
func (c *Ctx) Begin(ev *Event, seq *uint64) {
	c.now = ev.Time
	c.cur = ev.Node
	c.seq = seq
	c.evSrc, c.evSeq = ev.Src, ev.Seq
}

// Now returns the current simulated time.
func (c *Ctx) Now() Time { return c.now }

// Node returns the node whose event is currently executing
// (GlobalNode inside a global event).
func (c *Ctx) Node() NodeID { return c.cur }

// Stopped reports whether Stop has been called on this context.
func (c *Ctx) Stopped() bool { return c.stopped }

// ClearStopped resets the stop flag (kernels call this between runs).
func (c *Ctx) ClearStopped() { c.stopped = false }

func (c *Ctx) stamp(t Time, node NodeID) Event {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v node=%d", c.now, t, node))
	}
	ev := Event{Time: t, Src: c.cur, Node: node}
	ev.Seq = *c.seq
	*c.seq++
	return ev
}

// Schedule runs fn on node after delay d (relative to Now).
func (c *Ctx) Schedule(d Time, node NodeID, fn Proc) {
	c.ScheduleAt(c.now+d, node, fn)
}

// ScheduleAt runs fn on node at absolute time t.
func (c *Ctx) ScheduleAt(t Time, node NodeID, fn Proc) {
	ev := c.stamp(t, node)
	ev.Fn = fn
	c.sink.Put(ev)
}

// Reserve consumes the executing node's next sequence number and returns it:
// the identity (Node, seq) of an event the caller may put later, or never,
// with ScheduleReserved. A layer that schedules an event only when it will do
// something reserves where eager code stamped, so every other event the node
// creates keeps its place in the total order.
func (c *Ctx) Reserve() uint64 {
	s := *c.seq
	*c.seq++
	return s
}

// ScheduleReserved runs fn on node at absolute time t as the event (node,
// seq), seq having come from a Reserve made by an event on node. A reserved
// identity is redeemed at most once, by an event on node or by a global
// event, which may touch any node.
func (c *Ctx) ScheduleReserved(t Time, node NodeID, seq uint64, fn Proc, desc EvDesc) {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v node=%d", c.now, t, node))
	}
	c.sink.Put(Event{Time: t, Src: node, Seq: seq, Node: node, Fn: fn, Desc: desc})
}

// RedeemSetup runs fn on node at absolute time t as the setup event
// (SetupSrc, seq), seq having come from Setup.Reserve. A layer that keeps a
// node's setup events pending one at a time puts the next from the one
// before it, under the identity set-up gave it. Only an event on node may
// redeem it, and each identity at most once.
func (c *Ctx) RedeemSetup(t Time, node NodeID, seq uint64, fn Proc, desc EvDesc) {
	if node != c.cur {
		panic(fmt.Sprintf("sim: setup identity %d for node %d redeemed from node %d", seq, node, c.cur))
	}
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v node=%d", c.now, t, node))
	}
	c.sink.Put(Event{Time: t, Src: SetupSrc, Seq: seq, Node: node, Fn: fn, Desc: desc})
}

// RunsBefore reports whether an event at the current time with identity
// (src, seq) sorts before the executing one — whether, had it been
// scheduled, it would already have run.
func (c *Ctx) RunsBefore(src NodeID, seq uint64) bool {
	if src != c.evSrc {
		return src < c.evSrc
	}
	return seq < c.evSeq
}

// Stamp allocates the deterministic identity (Src, Seq) of an event the
// caller will deliver through an external transport — the distributed
// kernel serializes the returned identity over the wire so remote FELs
// order the event exactly as a local one (internal/dist).
func (c *Ctx) Stamp(t Time, node NodeID) Event {
	return c.stamp(t, node)
}

// ScheduleGlobal runs fn as a global event at absolute time t. Global
// events may mutate the topology and affect all nodes; kernels execute
// them on the main thread with all workers quiescent (the public LP).
func (c *Ctx) ScheduleGlobal(t Time, fn Proc) {
	ev := c.stamp(t, GlobalNode)
	ev.Fn = fn
	c.sink.PutGlobal(ev)
}

// Stop terminates the simulation after the current event completes.
// It is typically called from a global stop event scheduled by the model.
func (c *Ctx) Stop() { c.stopped = true }

// LinkInfo is the kernel's minimal view of one topology link, sufficient
// for partitioning (Algorithm 1) and lookahead computation. Stateless
// links (point-to-point) may be cut between LPs; stateful ones may not.
type LinkInfo struct {
	A, B      NodeID
	Delay     Time
	Stateless bool
	Up        bool
}

// Model describes a simulation for a kernel to run. It is constructed by
// model code (see internal/netdev's Builder) and is kernel-agnostic.
type Model struct {
	// Nodes is the number of simulated nodes; node IDs are 0..Nodes-1.
	Nodes int

	// Links returns the current set of topology links. Kernels call it at
	// startup for partitioning and again whenever a global event reports a
	// topology change (TopoChanged).
	Links func() []LinkInfo

	// Init is the list of initial events, stamped with Src == SetupSrc and
	// distinct Seq. Use NewSetup to build it conveniently. Setup identities
	// reserved but not placed here are redeemed during the run
	// (Ctx.RedeemSetup).
	Init []Event

	// StopAt, if nonzero, schedules a global stop event at that time.
	StopAt Time

	// Pauses is the serial work every kernel runs at its quiescent points,
	// in this order (see Pause): snapshots, sampler rows, whatever must
	// see the whole run stand still.
	Pauses []Pause

	// Restore, when non-nil, seeds the run from a snapshot: the kernel
	// skips Init, loads Queue and Seqs, and offsets its progress counters
	// by Round/Events/EndTime. The virtual-time testbed rejects it.
	Restore *KernelState
}

// Validate checks structural invariants of the model.
func (m *Model) Validate() error {
	if m.Nodes <= 0 {
		return fmt.Errorf("sim: model has %d nodes", m.Nodes)
	}
	if m.Links == nil {
		return fmt.Errorf("sim: model has no Links function")
	}
	for i := range m.Init {
		ev := &m.Init[i]
		if ev.Src != SetupSrc {
			return fmt.Errorf("sim: init event %d has Src=%d, want SetupSrc", i, ev.Src)
		}
		if ev.Node != GlobalNode && (ev.Node < 0 || int(ev.Node) >= m.Nodes) {
			return fmt.Errorf("sim: init event %d targets node %d of %d", i, ev.Node, m.Nodes)
		}
		if ev.Fn == nil {
			return fmt.Errorf("sim: init event %d has nil Fn", i)
		}
	}
	return nil
}

// Setup accumulates initial events during model construction.
type Setup struct {
	seq    uint64
	events []Event
}

// NewSetup returns an empty setup event accumulator.
func NewSetup() *Setup { return &Setup{} }

// At schedules fn on node at absolute time t.
func (s *Setup) At(t Time, node NodeID, fn Proc) { s.AtDesc(t, node, fn, nil) }

// Global schedules fn as a global event at absolute time t.
func (s *Setup) Global(t Time, fn Proc) { s.At(t, GlobalNode, fn) }

// Grow makes room for n more events and the handful a scenario adds around
// a workload (the stop, a pump): the list, live for the whole run, is then
// neither copied as it grows nor left with slack. A materialized workload
// adds one event per host that starts flows (tcp.Stack.Attach), not one per
// flow.
func (s *Setup) Grow(n int) { s.events = slices.Grow(s.events, n+16) }

// Reserve sets aside the next n setup identities and returns the first:
// (SetupSrc, base+i) for i < n belongs to whoever reserved it, to place at
// set-up with AtReserved or during the run with Ctx.RedeemSetup. Every event
// added after keeps the identity it would have had had the n been added
// with At.
func (s *Setup) Reserve(n int) (base uint64) {
	base = s.seq
	s.seq += uint64(n)
	return base
}

// AtReserved is AtDesc under the reserved identity (SetupSrc, seq).
func (s *Setup) AtReserved(t Time, node NodeID, seq uint64, fn Proc, desc EvDesc) {
	if seq >= s.seq {
		panic(fmt.Sprintf("sim: setup identity %d was never reserved", seq))
	}
	s.events = append(s.events, Event{Time: t, Src: SetupSrc, Seq: seq, Node: node, Fn: fn, Desc: desc})
}

// Events returns the accumulated initial events.
func (s *Setup) Events() []Event { return s.events }

// Kernel runs a model to completion. Implementations: internal/des
// (sequential), internal/pdes (barrier, null-message), internal/core
// (Unison), internal/vtime (virtual-testbed variants of all four).
type Kernel interface {
	Name() string
	Run(m *Model) (*RunStats, error)
}

// WorkerStats is the paper's T = P + S + M decomposition for one worker
// (thread or rank): processing, synchronization (waiting), and messaging
// time. Times are wall-clock nanoseconds for live kernels and virtual
// nanoseconds for the virtual testbed.
// The JSON tags are a stable contract for exported reports (run_stats.json,
// the live snapshot) and external tooling; renaming them is a breaking change.
type WorkerStats struct {
	P      int64  `json:"p_ns"`
	S      int64  `json:"s_ns"`
	M      int64  `json:"m_ns"`
	Events uint64 `json:"events"`
	// StragglerRounds counts synchronization rounds in which this worker
	// had the largest processing time — the round's critical path. Filled
	// by the imbalance diagnostics pass (internal/obs) when a telemetry
	// probe observed the run; zero otherwise.
	StragglerRounds uint64 `json:"straggler_rounds,omitempty"`
}

// T returns the worker's total accounted time.
func (w WorkerStats) T() int64 { return w.P + w.S + w.M }

// RunStats summarizes a completed run. The JSON tags are a stable
// contract for exported reports and external tooling.
type RunStats struct {
	Kernel   string        `json:"kernel"`
	Events   uint64        `json:"events"`               // events executed (incl. global); one never scheduled, for having nothing to do, is not one
	EndTime  Time          `json:"end_time_ns"`          // simulated time reached
	WallNS   int64         `json:"wall_ns"`              // real elapsed wall-clock nanoseconds
	Rounds   uint64        `json:"rounds"`               // synchronization rounds (0 for sequential)
	LPs      int           `json:"lps"`                  // logical processes created (1 for sequential)
	Workers  []WorkerStats `json:"workers,omitempty"`    // per-worker P/S/M
	VirtualT int64         `json:"virtual_ns,omitempty"` // virtual-testbed total time (0 for live kernels)

	// FusedRounds counts the rounds one worker ran alone because their
	// window held too few events to share (internal/core, the live Unison
	// shape only). A resumed run counts from its restore point: a
	// snapshot's bytes do not depend on the worker count, which fusion does.
	FusedRounds uint64 `json:"fused_rounds,omitempty"`

	// Cache locality model counters (see internal/metrics).
	CacheRefs   uint64 `json:"cache_refs,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`

	// Imbalance is the per-round load-imbalance summary computed by the
	// imbalance diagnostics pass (internal/obs) when a telemetry probe
	// observed the run; nil otherwise. It is the signal a cross-rank LP
	// migration would act on.
	Imbalance *Imbalance `json:"imbalance,omitempty"`
}

// Imbalance summarizes per-round load imbalance across the workers (or
// ranks) of a run: for every synchronization round with full worker
// coverage, the ratio max(P)/mean(P) of per-worker processing time is
// accumulated. A perfectly balanced run has every ratio at 1.0; the
// paper's load-adaptive scheduler exists to push the mean toward it.
// The JSON tags are a stable contract for run_stats.json consumers.
type Imbalance struct {
	// Rounds is the number of rounds the summary covers (rounds where
	// every worker reported and total processing time was nonzero).
	Rounds uint64 `json:"rounds"`
	// MeanMaxOverMean is the average over covered rounds of
	// max(worker P) / mean(worker P).
	MeanMaxOverMean float64 `json:"mean_max_over_mean"`
	// WorstMaxOverMean is the largest per-round ratio observed, with the
	// round it occurred in and the worker on the critical path.
	WorstMaxOverMean float64 `json:"worst_max_over_mean"`
	WorstRound       uint64  `json:"worst_round"`
	WorstWorker      int32   `json:"worst_worker"`
	// StragglerWorker is the worker most often on the round critical
	// path, and StragglerShare the fraction of covered rounds it was.
	StragglerWorker int32   `json:"straggler_worker"`
	StragglerShare  float64 `json:"straggler_share"`
	// Migrations totals the scheduler's LP migrations over covered rounds.
	Migrations uint64 `json:"migrations"`
}

// String renders a one-line human summary:
//
//	imbalance: 1.18x mean / 2.40x worst (round 17, worker 3), straggler w3 41%, 128 migrations
func (im *Imbalance) String() string {
	if im == nil || im.Rounds == 0 {
		return "imbalance: no covered rounds"
	}
	return fmt.Sprintf("imbalance: %.2fx mean / %.2fx worst (round %d, worker %d), straggler w%d %.0f%%, %d migrations",
		im.MeanMaxOverMean, im.WorstMaxOverMean, im.WorstRound, im.WorstWorker,
		im.StragglerWorker, 100*im.StragglerShare, im.Migrations)
}

// TotalP returns the sum of worker processing times.
func (r *RunStats) TotalP() int64 { return r.sum(func(w WorkerStats) int64 { return w.P }) }

// TotalS returns the sum of worker synchronization (waiting) times.
func (r *RunStats) TotalS() int64 { return r.sum(func(w WorkerStats) int64 { return w.S }) }

// TotalM returns the sum of worker messaging times.
func (r *RunStats) TotalM() int64 { return r.sum(func(w WorkerStats) int64 { return w.M }) }

func (r *RunStats) sum(f func(WorkerStats) int64) int64 {
	var t int64
	for _, w := range r.Workers {
		t += f(w)
	}
	return t
}

// SRatio returns S / (P+S+M) across all workers, the paper's key
// synchronization-overhead metric.
func (r *RunStats) SRatio() float64 {
	tot := r.TotalP() + r.TotalS() + r.TotalM()
	if tot == 0 {
		return 0
	}
	return float64(r.TotalS()) / float64(tot)
}

// String renders a one-line human summary:
//
//	unison(t=4): 1234567 events, 89 rounds, 12 LPs, wall 1.234s, S 3.2%
func (r *RunStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d events, %d rounds", r.Kernel, r.Events, r.Rounds)
	if r.FusedRounds > 0 {
		fmt.Fprintf(&b, " (%d fused)", r.FusedRounds)
	}
	fmt.Fprintf(&b, ", %d LPs", r.LPs)
	if r.VirtualT > 0 {
		fmt.Fprintf(&b, ", virtual %.3fs", float64(r.VirtualT)/1e9)
	}
	fmt.Fprintf(&b, ", wall %.3fs, S %.1f%%", float64(r.WallNS)/1e9, 100*r.SRatio())
	if r.Imbalance != nil && r.Imbalance.Rounds > 0 {
		fmt.Fprintf(&b, ", imbalance %.2fx mean / %.2fx worst",
			r.Imbalance.MeanMaxOverMean, r.Imbalance.WorstMaxOverMean)
	}
	return b.String()
}
