package sim

import (
	"fmt"
	"time"
)

// Checkpoint substrate: the kernel side of crash-consistent snapshots.
//
// A checkpoint is taken at a quiescent point — a round barrier for the
// windowed kernels, a timestamp boundary for the sequential kernel, an
// epoch quiesce for the null-message kernel — where the only simulation
// state a kernel owns is (a) the pending future event list, (b) the
// per-node sequence counters, and (c) its progress counters. Everything
// else (device queues, TCP connections, rng cursors, monitors) belongs
// to the model layers and is serialized by internal/ckpt through their
// own Save/Load hooks.
//
// Pending events hold Go closures, which cannot be serialized. Instead,
// every event that can be pending at a quiescent point carries an EvDesc:
// a small typed value owned by the layer that scheduled the event, from
// which that layer re-materializes the closure on restore. Zero-delay
// events (half-duplex kicks, link-down retries) never cross a timestamp
// boundary, so they need no descriptors.

// EvDesc describes a pending event in serializable form. Implementations
// live in the layer that schedules the event (netdev, tcp, app, dist);
// kind tags are globally unique across layers (see internal/ckpt for the
// allocation ranges).
type EvDesc interface {
	// CkptKind returns the descriptor's registered kind tag.
	CkptKind() uint16
	// CkptEncode appends the descriptor payload to buf and returns it.
	CkptEncode(buf []byte) []byte
}

// KernelState is the kernel-owned dynamic state at one quiescent point:
// what a kernel must persist, and all it needs back, to continue a run
// exactly where it left off.
type KernelState struct {
	// Round counts completed synchronization rounds (events-executed
	// boundaries for the sequential kernel, epochs for null-message).
	Round uint64
	// Events is the number of events executed so far; restored runs add
	// it to their own counts so RunStats.Events matches an uninterrupted
	// run.
	Events uint64
	// Now is the quiescent boundary: every executed event is < Now and
	// every pending event is >= Now.
	Now Time
	// EndTime is the maximum executed event timestamp.
	EndTime Time
	// Seqs is the per-node sequence counter table (Nodes+1 entries; the
	// last is the global/setup counter). On save it is the kernel's live
	// sim.SeqTable, which stands still until the saver's Commit returns.
	Seqs []uint64
	// Queue holds every pending event of a restored snapshot — worker FELs
	// and the global queue merged, in no order a kernel may rely on — each
	// with its Fn re-materialized from its descriptor. Nil on save.
	Queue []Event
	// FELs and FEL are the save side of Queue: the kernel's pending events
	// stay where they are, in FELs lists, and FEL(i, dst) appends list i to
	// dst in the deterministic total order. Different lists may be read at
	// the same time. Which event sits in which list depends on the partition
	// only, never on the worker count, so neither do a snapshot's bytes.
	FELs int
	FEL  func(i int, dst []Event) []Event
}

// CkptHook connects a kernel run to a checkpoint writer. It lives on the
// Model so every kernel sees the same request without per-kernel wiring.
type CkptHook struct {
	// Every requests a checkpoint every N synchronization rounds (or,
	// for the sequential kernel, at the first timestamp boundary after
	// every N executed events). Zero disables periodic checkpoints.
	Every uint64
	// EveryTime is the epoch length for kernels without global rounds
	// (null-message): the run quiesces and checkpoints at multiples of
	// EveryTime. Ignored by round-based kernels.
	EveryTime Time
	// NewSaver, when non-nil, makes the saver of one kernel run. The run
	// drops it on return, and with it whatever the saver allocated: nothing
	// reachable from the hook may keep a saver or its buffers.
	NewSaver func() CkptSaver
	// Saved, when non-nil, hears of every snapshot written: for how long it
	// held the run's workers, from the quiescent point being found to the
	// file being durable, and the file's size. ks is only valid during the
	// call.
	Saved func(ks *KernelState, heldNS, bytes int64)
	// Restore, when non-nil, seeds the run from a snapshot: the kernel
	// skips Model.Init, loads Queue and Seqs, and offsets its progress
	// counters by Round/Events/EndTime.
	Restore *KernelState
}

// CkptSaver persists the snapshots of one kernel run. One snapshot is
// Start, then Job(i) once for every i below the count Start returned — from
// any goroutines, in any order, at the same time — then Commit, which
// returns the bytes written, all at one quiescent point: nothing ks names
// changes in between, and the saver keeps nothing of ks after Commit. What
// is written must not depend on who ran which job. scratch is the calling
// goroutine's own, passed back grown. A job's failure is Commit's to report.
type CkptSaver interface {
	Start(ks *KernelState) (jobs int)
	Job(i int, scratch []Event) []Event
	Commit() (bytes int64, err error)
}

// CkptRun is the save path of every kernel: a run's hold on its model's
// hook. The kernel opens it once, says at each quiescent point whether a
// snapshot is Due, and then either calls Save or — to spread the jobs over
// its parked workers — Begin, Job from each of them, and Commit. A nil
// CkptRun is never Due.
type CkptRun struct {
	hook  *CkptHook
	saver CkptSaver
	who   string
	ks    KernelState
	start time.Time
	buf   []Event // Save's job scratch
}

// Open returns the run's save path, nil when h (which may be nil) asks for
// no snapshots. who prefixes errors; seqs is the run's live sequence table;
// fels and fel are KernelState.FELs and FEL, fixed for the run.
func (h *CkptHook) Open(who string, seqs []uint64, fels int, fel func(i int, dst []Event) []Event) *CkptRun {
	if h == nil || h.NewSaver == nil {
		return nil
	}
	return &CkptRun{hook: h, saver: h.NewSaver(), who: who, ks: KernelState{Seqs: seqs, FELs: fels, FEL: fel}}
}

// Due reports whether a periodic snapshot is due after round r.
func (c *CkptRun) Due(r uint64) bool {
	return c != nil && c.hook.Every > 0 && r%c.hook.Every == 0
}

// Begin opens the snapshot of the quiescent point the arguments describe
// and returns its job count.
func (c *CkptRun) Begin(round, events uint64, now, end Time) (jobs int) {
	c.start = time.Now() //unison:wallclock-ok how long a snapshot holds the workers, for obs.RoundRecord.CkptNS
	c.ks.Round, c.ks.Events, c.ks.Now, c.ks.EndTime = round, events, now, end
	return c.saver.Start(&c.ks)
}

// Job runs job i of the open snapshot on the caller's scratch.
func (c *CkptRun) Job(i int, scratch []Event) []Event { return c.saver.Job(i, scratch) }

// Commit persists the open snapshot once every job has returned. An error
// ends the run.
func (c *CkptRun) Commit() error {
	n, err := c.saver.Commit()
	if err != nil {
		return fmt.Errorf("%s: checkpoint: %w", c.who, err)
	}
	if c.hook.Saved != nil {
		c.hook.Saved(&c.ks, time.Since(c.start).Nanoseconds(), n) //unison:wallclock-ok how long a snapshot holds the workers, for obs.RoundRecord.CkptNS
	}
	return nil
}

// Save takes one snapshot on the calling goroutine alone.
func (c *CkptRun) Save(round, events uint64, now, end Time) error {
	for i, n := 0, c.Begin(round, events, now, end); i < n; i++ {
		c.buf = c.Job(i, c.buf)
	}
	return c.Commit()
}

// ScheduleDesc is Schedule with a descriptor attached to the event.
func (c *Ctx) ScheduleDesc(d Time, node NodeID, fn Proc, desc EvDesc) {
	c.ScheduleAtDesc(c.now+d, node, fn, desc)
}

// ScheduleAtDesc is ScheduleAt with a descriptor attached to the event.
func (c *Ctx) ScheduleAtDesc(t Time, node NodeID, fn Proc, desc EvDesc) {
	ev := c.stamp(t, node)
	ev.Fn = fn
	ev.Desc = desc
	c.sink.Put(ev)
}

// ScheduleGlobalDesc is ScheduleGlobal with a descriptor attached.
func (c *Ctx) ScheduleGlobalDesc(t Time, fn Proc, desc EvDesc) {
	ev := c.stamp(t, GlobalNode)
	ev.Fn = fn
	ev.Desc = desc
	c.sink.PutGlobal(ev)
}

// AtDesc is Setup.At with a descriptor attached to the initial event.
func (s *Setup) AtDesc(t Time, node NodeID, fn Proc, desc EvDesc) {
	s.events = append(s.events, Event{Time: t, Src: SetupSrc, Seq: s.seq, Node: node, Fn: fn, Desc: desc})
	s.seq++
}

// GlobalDesc is Setup.Global with a descriptor attached.
func (s *Setup) GlobalDesc(t Time, fn Proc, desc EvDesc) { s.AtDesc(t, GlobalNode, fn, desc) }
