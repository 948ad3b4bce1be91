package obs

import (
	"sync"
	"sync/atomic"

	"unison/internal/sim"
)

// EventKind discriminates the three Probe callbacks as bus events.
type EventKind uint8

const (
	// EvBegin carries the RunMeta of a starting run.
	EvBegin EventKind = iota
	// EvRound carries one RoundRecord.
	EvRound
	// EvEnd marks the end of a run; Final holds the run's stats.
	EvEnd
)

// String implements fmt.Stringer for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvRound:
		return "round"
	case EvEnd:
		return "end"
	}
	return "event(?)"
}

// BusEvent is one telemetry event fanned out to bus subscribers. Exactly
// one payload field is set, selected by Kind. Rec is a copy — the kernel's
// record is only valid during the OnRound call, so the bus copies before
// publishing and subscribers may retain events freely.
type BusEvent struct {
	Kind  EventKind
	Meta  RunMeta       // EvBegin
	Rec   RoundRecord   // EvRound
	Final *sim.RunStats // EvEnd
}

// Sub is one bus subscription: a bounded channel of events plus a drop
// counter for events the subscriber was too slow to take.
type Sub struct {
	ch    chan BusEvent
	drops atomic.Uint64
	bus   *Bus

	// state counts the publishers sending to ch right now, plus the
	// subDetached bit once Close ran and the subClosed bit once ch is
	// closed. A publisher holds a snapshot of the subscriber slice, so it
	// may still reach a Sub that Close already removed: ch is closed by
	// whichever side brings the count to zero with subDetached set.
	state atomic.Int64
}

const (
	subDetached = 1 << 62
	subClosed   = 1 << 61
)

// C returns the subscription's event channel. It is closed once Close has
// run and no publisher is still sending to it; a receive loop should range
// over it.
func (s *Sub) C() <-chan BusEvent { return s.ch }

// Drops returns how many events were dropped because this subscriber's
// buffer was full at publish time.
func (s *Sub) Drops() uint64 { return s.drops.Load() }

// Close detaches the subscription from the bus; its channel closes as soon
// as no publisher is sending to it. Safe to call more than once.
func (s *Sub) Close() { s.bus.unsubscribe(s) }

// Bus is a bounded, non-blocking telemetry fan-out implementing Probe.
// Kernels publish into it exactly as into any other probe; each attached
// subscriber gets a copy of every event its buffer has room for, and
// events that do not fit are counted and dropped — a slow dashboard can
// only ever thin its own view, never stall a worker.
//
// Cost model (pinned by the bit-identity and overhead tests):
//
//   - With no subscriber attached, OnRound is one atomic pointer load
//     plus the chained inner probe (the "enabled but unattached" state);
//     bench/ measures what observing costs end to end, as
//     obs.round_record_ns and obs.overhead_pct on dc-k8.observed.
//   - With subscribers, each publish is a non-blocking channel send per
//     subscriber. No allocation beyond the channel slot: BusEvent is sent
//     by value.
//   - The bus only observes; nothing in the simulation branches on it,
//     so probed runs stay bit-identical with or without a bus attached.
type Bus struct {
	inner Probe // optional chained probe (Registry, ImbalanceTracker, ...)

	mu    sync.Mutex // guards subscribe/unsubscribe rebuilds
	subs  atomic.Pointer[[]*Sub]
	drops atomic.Uint64 // total events dropped across all subscribers
}

// NewBus returns a Bus chaining to inner (nil for none). The inner probe
// sees every callback first, synchronously, exactly as if it were wired
// to the kernel directly.
func NewBus(inner Probe) *Bus {
	return &Bus{inner: inner}
}

// DefaultSubBuffer is the per-subscriber channel capacity Subscribe uses
// when given a non-positive buffer size. Sized so a dashboard polling a
// few times a second keeps up with thousands of rounds/s bursts.
const DefaultSubBuffer = 4096

// Subscribe attaches a new subscriber with the given channel buffer
// (DefaultSubBuffer when <= 0) and returns it. Events published after
// Subscribe returns are visible to the subscriber.
func (b *Bus) Subscribe(buf int) *Sub {
	if buf <= 0 {
		buf = DefaultSubBuffer
	}
	s := &Sub{ch: make(chan BusEvent, buf), bus: b}
	b.mu.Lock()
	old := b.subs.Load()
	var next []*Sub
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	b.subs.Store(&next)
	b.mu.Unlock()
	return s
}

func (b *Bus) unsubscribe(s *Sub) {
	b.mu.Lock()
	old := b.subs.Load()
	if old == nil {
		b.mu.Unlock()
		return
	}
	next := make([]*Sub, 0, len(*old))
	found := false
	for _, o := range *old {
		if o == s {
			found = true
			continue
		}
		next = append(next, o)
	}
	if found {
		b.subs.Store(&next)
	}
	b.mu.Unlock()
	if found && s.state.Add(subDetached) == subDetached {
		s.closeIfIdle()
	}
}

// closeIfIdle closes ch if the Sub is detached with no publisher in
// flight. The CAS admits one closer even when a late publisher's release
// and Close both see the count at zero.
func (s *Sub) closeIfIdle() {
	if s.state.CompareAndSwap(subDetached, subDetached|subClosed) {
		close(s.ch)
	}
}

// Drops returns the total number of events dropped across all
// subscribers since the bus was created. This feeds
// RunStats.TelemetryDrops.
func (b *Bus) Drops() uint64 { return b.drops.Load() }

// publish fans ev out to every current subscriber without blocking.
func (b *Bus) publish(ev BusEvent) {
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	b.publishTo(*subs, ev)
}

func (b *Bus) publishTo(subs []*Sub, ev BusEvent) {
	for _, s := range subs {
		if s.state.Add(1)&subDetached == 0 {
			select {
			case s.ch <- ev:
			default:
				s.drops.Add(1)
				b.drops.Add(1)
			}
		}
		if s.state.Add(-1) == subDetached {
			s.closeIfIdle()
		}
	}
}

// BeginRun implements Probe.
func (b *Bus) BeginRun(meta RunMeta) {
	if b.inner != nil {
		b.inner.BeginRun(meta)
	}
	b.publish(BusEvent{Kind: EvBegin, Meta: meta})
}

// OnRound implements Probe.
func (b *Bus) OnRound(rec *RoundRecord) {
	if b.inner != nil {
		b.inner.OnRound(rec)
	}
	subs := b.subs.Load()
	if subs == nil || len(*subs) == 0 {
		return // enabled-but-unattached fast path: one atomic load
	}
	b.publishTo(*subs, BusEvent{Kind: EvRound, Rec: *rec})
}

// EndRun implements Probe.
func (b *Bus) EndRun(st *sim.RunStats) {
	if b.inner != nil {
		b.inner.EndRun(st)
	}
	b.publish(BusEvent{Kind: EvEnd, Final: st})
}

// Inner returns the chained probe (nil for none).
func (b *Bus) Inner() Probe { return b.inner }

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
