package sim

// Checkpoint substrate: the kernel side of crash-consistent snapshots.
//
// A snapshot is one client of the pause hook (pause.go): it is taken at a
// quiescent point — a round barrier for the windowed kernels, a timestamp
// boundary for the sequential kernel, an epoch quiesce for the
// null-message kernel — where the only simulation state a kernel owns is
// (a) the pending future event list, (b) the per-node sequence counters,
// and (c) its progress counters. KernelState is that state. Everything
// else (device queues, TCP connections, rng cursors, monitors) belongs to
// the model layers and is serialized by internal/ckpt through their own
// Save/Load hooks.
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
	// Round counts completed synchronization rounds (epochs for
	// null-message; for the sequential kernel, the timestamp boundaries at
	// which a pause client with a cadence of its own was due).
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
	// last is the global/setup counter). At a pause it is the kernel's live
	// sim.SeqTable, which stands still until the pause's last Commit returns.
	Seqs []uint64
	// Queue holds every pending event of a restored snapshot — worker FELs
	// and the global queue merged, in no order a kernel may rely on — each
	// with its Fn re-materialized from its descriptor. Nil at a pause.
	Queue []Event
	// FELs and FEL are the pause side of Queue: the kernel's pending events
	// stay where they are, in FELs lists, and FEL(i, dst) appends list i to
	// dst in the deterministic total order. Different lists may be read at
	// the same time. Which event sits in which list depends on the partition
	// only, never on the worker count, so neither do a snapshot's bytes.
	FELs int
	FEL  func(i int, dst []Event) []Event
	size func(i int) int
}

// Len is the length of list i of a pause, what FEL(i, nil) would append.
func (ks *KernelState) Len(i int) int { return ks.size(i) }

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
