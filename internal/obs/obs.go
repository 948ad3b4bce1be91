// Package obs is the kernel-wide observability layer: one Probe contract
// that every simulation kernel in this repository (sequential DES, barrier
// and null-message PDES, Unison live + hybrid, the virtual testbed, and
// the distributed coordinator/hosts) reports into, a Registry that
// captures per-round records into per-worker ring buffers without
// allocating on the round path and keeps every worker's running totals
// (the fold a record-stream watcher runs too), and a Chrome/Perfetto
// trace-event exporter (perfetto.go).
//
// Determinism rules (pinned by the equivalence tests):
//
//   - A probe only observes. Kernels never branch on probe output, so a
//     probed run is bit-identical to an unprobed run.
//   - Kernels emit records once per synchronization round per worker,
//     never per event; a disabled probe costs one predictable nil-check
//     branch on the round path and nothing on the event path.
//   - Wall-clock fields (ProcNS, SyncNS, MsgNS, AllReduceNS) vary between
//     live runs; the structural fields (Round, LBTS, per-round aggregate
//     Events) are deterministic for deterministic kernels, and every
//     field is deterministic under the virtual testbed.
package obs

import (
	"sort"
	"sync"
	"unsafe"

	"unison/internal/sim"
)

// EventBytes is the in-memory size of one scheduled event; kernels report
// mailbox byte counts as events x EventBytes.
const EventBytes = uint64(unsafe.Sizeof(sim.Event{}))

// RunMeta identifies one kernel run to the probe.
type RunMeta struct {
	// Kernel is the kernel's Name().
	Kernel string `json:"kernel"`
	// Workers is the number of telemetry streams the run will emit
	// (threads for Unison, ranks for the PDES baselines, 1 for the
	// sequential kernel and each distributed endpoint).
	Workers int `json:"workers"`
	// LPs is the number of logical processes (0 when not applicable).
	LPs int `json:"lps"`
}

// RoundRecord is one worker's view of one synchronization round. For
// kernels without global rounds (null-message, the distributed host) Round
// counts that worker's local iterations instead.
type RoundRecord struct {
	// Round is the round index, starting at 0.
	Round uint64 `json:"round"`
	// Worker is the emitting worker/rank.
	Worker int32 `json:"worker"`
	// LBTS is the upper bound of the simulated-time window the round
	// processed (the safe bound for null-message ranks).
	LBTS sim.Time `json:"lbts"`
	// Events is the number of events this worker executed in the round.
	Events uint64 `json:"events"`
	// ProcNS, SyncNS, MsgNS are the round's T = P + S + M decomposition
	// for this worker (wall nanoseconds live, virtual under vtime).
	ProcNS int64 `json:"proc_ns"`
	SyncNS int64 `json:"sync_ns"`
	MsgNS  int64 `json:"msg_ns"`
	// WaitGlobalNS is the portion of SyncNS spent at the post-processing
	// barrier (phase 2, global-event handling); the remainder is the
	// window-advance barrier (phase 4).
	WaitGlobalNS int64 `json:"wait_global_ns"`
	// Sends counts cross-LP events this worker staged for other LPs
	// during the round; SendBytes is Sends x EventBytes.
	Sends     uint64 `json:"mailbox_sends"`
	SendBytes uint64 `json:"mailbox_bytes"`
	// Recvs counts cross-LP events delivered into this worker's LPs in
	// the receive phase.
	Recvs uint64 `json:"mailbox_recvs"`
	// FELDepth is the total number of pending events in the FELs this
	// worker drained mailboxes for, measured after the receive phase.
	FELDepth uint64 `json:"fel_depth"`
	// Migrations counts LPs this worker executed that ran on a different
	// worker in the previous round (the load-adaptive scheduler at work).
	Migrations uint64 `json:"migrations"`
	// AllReduceNS is the distributed window all-reduce latency observed
	// this round (coordinator: gather time; host: wait for the window
	// broadcast). Zero for in-process kernels.
	AllReduceNS int64 `json:"allreduce_ns,omitempty"`
	// Retries counts transport retries behind this record (currently the
	// distributed host's extra coordinator dial attempts, reported once
	// on its first record).
	Retries uint64 `json:"retries,omitempty"`
	// CkptNS and CkptBytes report a checkpoint taken at the end of this
	// round: the wall time it held the kernel's workers, from the
	// quiescent point being found to the file being in place, and the
	// snapshot file size. Zero when no checkpoint was taken.
	CkptNS    int64  `json:"ckpt_ns,omitempty"`
	CkptBytes uint64 `json:"ckpt_bytes,omitempty"`
	// Fused marks a round one worker ran alone while the others waited
	// (internal/core): that worker's record has the round's events, wall
	// time as ProcNS and every FEL's depth; the others' have no events
	// and the wall time as SyncNS.
	Fused bool `json:"fused,omitempty"`
}

// Probe receives telemetry from a running kernel.
//
// Call discipline (every kernel follows it):
//
//   - BeginRun once, before any worker starts.
//   - OnRound concurrently from worker goroutines, but records with the
//     same Worker value are emitted sequentially by one goroutine at a
//     time. The record pointed to is only valid during the call;
//     implementations must copy it.
//   - EndRun once, after every worker has finished, with the run's final
//     stats.
//
// Implementations must not retain the *RoundRecord and must not block:
// probe cost lands in the worker's measured round time.
type Probe interface {
	BeginRun(meta RunMeta)
	OnRound(rec *RoundRecord)
	EndRun(st *sim.RunStats)
}

// Emit sends rec to p if p is non-nil — the single predictable branch a
// disabled probe costs on the round path.
func Emit(p Probe, rec *RoundRecord) {
	if p != nil {
		p.OnRound(rec)
	}
}

// Begin forwards BeginRun to p if p is non-nil.
func Begin(p Probe, meta RunMeta) {
	if p != nil {
		p.BeginRun(meta)
	}
}

// End forwards EndRun to p if p is non-nil.
func End(p Probe, st *sim.RunStats) {
	if p != nil && st != nil {
		p.EndRun(st)
	}
}

// Tee returns a probe forwarding every callback to each non-nil probe in
// order, or nil if all are nil — so wiring stays "nil probe = zero cost"
// even when composing optional probes.
func Tee(probes ...Probe) Probe {
	var live []Probe
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeProbe(live)
}

type teeProbe []Probe

func (t teeProbe) BeginRun(meta RunMeta) {
	for _, p := range t {
		p.BeginRun(meta)
	}
}

func (t teeProbe) OnRound(rec *RoundRecord) {
	for _, p := range t {
		p.OnRound(rec)
	}
}

func (t teeProbe) EndRun(st *sim.RunStats) {
	for _, p := range t {
		p.EndRun(st)
	}
}

// DefaultRingCapacity is the per-worker record capacity a zero-config
// Registry uses; a ring grows to it as records arrive, and older records
// are overwritten once a worker exceeds it.
const DefaultRingCapacity = 8192

// WorkerTotals is one worker's running totals over every record of the
// current run, overwritten ones included: the per-worker T = P + S + M
// split and the gauges a watcher shows.
type WorkerTotals struct {
	// Records counts the worker's records: its rounds, plus any snapshot
	// records a checkpoint hook files under it.
	Records uint64
	Events  uint64
	ProcNS  int64
	SyncNS  int64
	MsgNS   int64
	// Migrations sums the records' migrations.
	Migrations uint64
	// LBTS and Round are the highest finite LBTS and the highest round
	// reported; FELDepth is the newest record's.
	LBTS     sim.Time
	Round    uint64
	FELDepth uint64
}

// workerRing is one worker's record stream: a ring of at most the
// Registry's capacity plus its running totals. Each ring has its own lock,
// taken once per round by its single writer, so workers never contend.
type workerRing struct {
	mu  sync.Mutex
	buf []RoundRecord // grows by append until full; buf[(Records-1)%capacity] is newest
	tot WorkerTotals  // tot.Records is every record ever written
	_   [64]byte      // keep neighbouring rings' hot fields off one cache line
}

// Registry is the standard Probe: it captures records into per-worker
// rings, keeps each worker's running totals, and serves merged views and
// Perfetto exports. A Registry records one run at a time; BeginRun resets
// it, so the same Registry can observe a sequence of runs (keeping the
// last).
type Registry struct {
	capacity int

	mu      sync.Mutex // guards meta/final/dropped and the rings slice identity
	meta    RunMeta
	final   *sim.RunStats
	rings   []*workerRing
	dropped uint64 // records addressed to out-of-range workers
}

// NewRegistry returns a Registry keeping up to capPerWorker records per
// worker (DefaultRingCapacity when <= 0).
func NewRegistry(capPerWorker int) *Registry {
	if capPerWorker <= 0 {
		capPerWorker = DefaultRingCapacity
	}
	return &Registry{capacity: capPerWorker}
}

// BeginRun implements Probe: it resets the registry for a new run.
func (g *Registry) BeginRun(meta RunMeta) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.meta = meta
	g.final = nil
	g.dropped = 0
	n := meta.Workers
	if n < 1 {
		n = 1
	}
	g.rings = make([]*workerRing, n)
	for i := range g.rings {
		g.rings[i] = &workerRing{}
	}
}

// OnRound implements Probe. A record naming a worker outside the run's
// range is counted as dropped and folded nowhere.
func (g *Registry) OnRound(rec *RoundRecord) {
	g.mu.Lock()
	if int(rec.Worker) < 0 || int(rec.Worker) >= len(g.rings) {
		g.dropped++
		g.mu.Unlock()
		return
	}
	r, capacity := g.rings[rec.Worker], uint64(g.capacity)
	g.mu.Unlock()

	r.mu.Lock()
	t := &r.tot
	if t.Records < capacity {
		r.buf = append(r.buf, *rec)
	} else {
		r.buf[t.Records%capacity] = *rec
	}
	t.Records++
	t.Events += rec.Events
	t.ProcNS += rec.ProcNS
	t.SyncNS += rec.SyncNS
	t.MsgNS += rec.MsgNS
	t.Migrations += rec.Migrations
	t.Round, t.FELDepth = max(t.Round, rec.Round), rec.FELDepth
	if rec.LBTS != sim.MaxTime && rec.LBTS > t.LBTS {
		t.LBTS = rec.LBTS
	}
	r.mu.Unlock()
}

// EndRun implements Probe.
func (g *Registry) EndRun(st *sim.RunStats) {
	g.mu.Lock()
	g.final = st
	g.mu.Unlock()
}

// Meta returns the current run's metadata.
func (g *Registry) Meta() RunMeta {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.meta
}

// Final returns the finished run's stats (nil while the run is in flight).
func (g *Registry) Final() *sim.RunStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.final
}

// Totals returns a copy of every worker's running totals and how many
// records were dropped for naming an out-of-range worker. Safe during a
// run: each worker is read under its own lock.
func (g *Registry) Totals() (workers []WorkerTotals, dropped uint64) {
	g.mu.Lock()
	rings, dropped := g.rings, g.dropped
	g.mu.Unlock()
	workers = make([]WorkerTotals, len(rings))
	for i, r := range rings {
		r.mu.Lock()
		workers[i] = r.tot
		r.mu.Unlock()
	}
	return workers, dropped
}

// Records returns every retained record merged in (Round, Worker) order.
// Safe to call while a run is in flight (each ring is snapshotted under
// its lock); records a full ring has overwritten are gone.
func (g *Registry) Records() []RoundRecord {
	g.mu.Lock()
	rings := g.rings
	g.mu.Unlock()
	var out []RoundRecord
	for _, r := range rings {
		r.mu.Lock()
		if n := r.tot.Records; n <= uint64(len(r.buf)) {
			out = append(out, r.buf...)
		} else {
			// Ring wrapped: oldest record sits at Records % capacity.
			start := n % uint64(len(r.buf))
			out = append(out, r.buf[start:]...)
			out = append(out, r.buf[:start]...)
		}
		r.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}
