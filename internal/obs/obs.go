// Package obs is the kernel-wide observability layer: one Probe contract
// that every simulation kernel in this repository (sequential DES, barrier
// and null-message PDES, Unison live + hybrid, the virtual testbed, and
// the distributed coordinator/hosts) reports into, a Registry that
// captures per-round records into per-worker ring buffers without
// allocating on the round path, a Chrome/Perfetto trace-event exporter
// (perfetto.go), and expvar publishing (expvar.go).
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

// DefaultRingCapacity is the per-worker record capacity a zero-config
// Registry uses; older records are overwritten once a worker exceeds it.
const DefaultRingCapacity = 8192

// workerRing is one worker's record stream: a fixed-capacity ring plus
// running totals for gauge snapshots. Each ring has its own lock, taken
// once per round by its single writer, so workers never contend.
type workerRing struct {
	mu      sync.Mutex
	buf     []RoundRecord
	written uint64 // total records ever written; buf[(written-1)%cap] is newest
	rounds  uint64
	events  uint64
	procNS  int64
	syncNS  int64
	msgNS   int64
	lastLB  sim.Time
	_       [64]byte // keep neighbouring rings' hot fields off one cache line
}

// Registry is the standard Probe: it captures records into per-worker
// rings and serves merged views, Perfetto exports, and expvar snapshots.
// A Registry records one run at a time; BeginRun resets it, so the same
// Registry can observe a sequence of runs (keeping the last).
type Registry struct {
	capacity int

	mu      sync.Mutex // guards meta/final/rings slice identity
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
		g.rings[i] = &workerRing{buf: make([]RoundRecord, 0, g.capacity)}
	}
}

// OnRound implements Probe.
func (g *Registry) OnRound(rec *RoundRecord) {
	g.mu.Lock()
	if int(rec.Worker) < 0 || int(rec.Worker) >= len(g.rings) {
		g.dropped++
		g.mu.Unlock()
		return
	}
	r := g.rings[rec.Worker]
	g.mu.Unlock()

	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, *rec)
	} else {
		r.buf[r.written%uint64(cap(r.buf))] = *rec
	}
	r.written++
	r.rounds++
	r.events += rec.Events
	r.procNS += rec.ProcNS
	r.syncNS += rec.SyncNS
	r.msgNS += rec.MsgNS
	if rec.LBTS != sim.MaxTime && rec.LBTS > r.lastLB {
		r.lastLB = rec.LBTS
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
		if len(r.buf) < cap(r.buf) || r.written <= uint64(len(r.buf)) {
			out = append(out, r.buf...)
		} else {
			// Ring wrapped: oldest record sits at written % cap.
			start := r.written % uint64(cap(r.buf))
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

// Summary is a point-in-time aggregate of the registry, shaped for JSON
// (the expvar gauge payload).
type Summary struct {
	Kernel     string  `json:"kernel"`
	Workers    int     `json:"workers"`
	LPs        int     `json:"lps"`
	Rounds     uint64  `json:"rounds"`
	Records    uint64  `json:"records"`
	Dropped    uint64  `json:"dropped"`
	Events     uint64  `json:"events"`
	ProcNS     int64   `json:"proc_ns"`
	SyncNS     int64   `json:"sync_ns"`
	MsgNS      int64   `json:"msg_ns"`
	SRatio     float64 `json:"s_ratio"`
	LastLBTSNS int64   `json:"last_lbts_ns"`
	Done       bool    `json:"done"`
}

// Snapshot aggregates the registry's counters and gauges. Safe during a
// run: each worker ring is read under its own lock.
func (g *Registry) Snapshot() Summary {
	g.mu.Lock()
	s := Summary{
		Kernel:  g.meta.Kernel,
		Workers: g.meta.Workers,
		LPs:     g.meta.LPs,
		Dropped: g.dropped,
		Done:    g.final != nil,
	}
	rings := g.rings
	g.mu.Unlock()
	var lastLB sim.Time
	var rounds uint64
	for _, r := range rings {
		r.mu.Lock()
		if r.rounds > rounds {
			rounds = r.rounds
		}
		s.Records += r.written
		s.Events += r.events
		s.ProcNS += r.procNS
		s.SyncNS += r.syncNS
		s.MsgNS += r.msgNS
		if r.lastLB > lastLB {
			lastLB = r.lastLB
		}
		r.mu.Unlock()
	}
	s.Rounds = rounds
	s.LastLBTSNS = int64(lastLB)
	if tot := s.ProcNS + s.SyncNS + s.MsgNS; tot > 0 {
		s.SRatio = float64(s.SyncNS) / float64(tot)
	}
	return s
}
