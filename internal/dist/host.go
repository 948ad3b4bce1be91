package dist

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"unison/internal/ckpt"
	"unison/internal/core"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/rng"
	"unison/internal/sim"
)

// HostConfig parameterizes one simulation host.
type HostConfig struct {
	// ID is this host's index in [0, Hosts).
	ID int32
	// Addr is the coordinator's address.
	Addr string
	// HostOf assigns every node to a simulation host. Links crossing
	// hosts define the outer lookahead; like all cut links they must be
	// stateless.
	HostOf []int32
	// StopAt bounds the simulation (must match the coordinator's).
	StopAt sim.Time
	// Timeout bounds every message exchange with the coordinator (read
	// and write deadlines, and each dial attempt). Because the
	// coordinator only answers once the slowest host has reported, the
	// timeout must exceed the longest per-round compute time across all
	// hosts. Zero disables deadlines (legacy trusted-loopback behavior).
	Timeout time.Duration
	// DialAttempts bounds connection attempts to the coordinator; values
	// below 2 mean a single attempt. Retries cover the common startup
	// race where host processes launch before the coordinator listens,
	// backing off exponentially from DialBackoff with deterministic
	// (ID-seeded) jitter so a fleet of hosts does not retry in lockstep.
	DialAttempts int
	// DialBackoff is the initial retry backoff; it doubles per attempt.
	// Defaults to 50ms when DialAttempts enables retries.
	DialBackoff time.Duration
	// Observe, when non-nil, receives one obs.RoundRecord per window
	// (Worker 0): AllReduceNS is the wait for the coordinator's window
	// broadcast, and Retries reports extra dial attempts on the first
	// record.
	Observe obs.Probe
	// Live piggybacks a telemetry Sideband (round records and netobs row
	// deltas) on every kMin message, feeding the coordinator's record
	// stream. Purely observational: the simulation and its artifacts are
	// bit-identical either way.
	Live bool

	// Ckpt, when non-nil, is this host's checkpoint target (its layers
	// and event decoders). Required for CheckpointEvery or RestoreFrom.
	Ckpt *ckpt.Target
	// CheckpointDir, with CheckpointEvery > 0, makes the host write
	// CheckpointFile(dir, round, ID) every CheckpointEvery windows. All
	// hosts follow the same window sequence, so same-round files across
	// hosts form a consistent global snapshot.
	CheckpointDir   string
	CheckpointEvery uint64
	// RestoreFrom, when set, seeds the host from a snapshot file instead
	// of Model.Init. Every host of the run must restore from the same
	// round.
	RestoreFrom string
}

// CheckpointFile names host id's snapshot for the given window round.
func CheckpointFile(dir string, round uint64, id int32) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%09d-h%d.uckpt", round, id))
}

// dialCoordinator dials cfg.Addr with bounded retry, returning the
// connection and how many retries (attempts beyond the first) it took.
// Each attempt gets cfg.Timeout as its dial timeout; between attempts the
// host sleeps the current backoff plus up to 50% deterministic jitter.
func dialCoordinator(cfg HostConfig) (net.Conn, int, error) {
	attempts := cfg.DialAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := cfg.DialBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	// The jitter stream is derived from the run-wide rng package rather
	// than an ad-hoc rand.New, so even wall-side randomness stays
	// traceable to (purpose, host id) — and unisoncheck:seedflow passes.
	jitter := rng.New(rng.PurposeJitter, uint64(cfg.ID))
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff + time.Duration(jitter.Int63n(int64(backoff)/2+1)))
			backoff *= 2
		}
		d := net.Dialer{Timeout: cfg.Timeout}
		c, err := d.Dial("tcp", cfg.Addr)
		if err == nil {
			return c, i, nil
		}
		lastErr = err
	}
	return nil, attempts - 1, fmt.Errorf("dist: dialing coordinator %s (%d attempts): %w", cfg.Addr, attempts, lastErr)
}

// RunHost connects to the coordinator and executes the host's share of
// the model: every host constructs the full model deterministically (the
// ghost-node approach of MPI-based PDES), but only events of its own
// nodes run here. Cross-host packet arrivals travel through net's Remote
// hook to the wire, stamped with their deterministic identities. The host
// is the round engine in its static shape (core.RunStatic), one LP per host
// and this host's alone resident; this file is the wire it syncs through.
//
// Restrictions (the same the paper's MPI baselines have): only the stop
// event among global events, and models may only communicate across hosts
// through the data plane (netdev), not by scheduling raw events onto
// remote nodes. The host owns m.Ckpt for the run.
func RunHost(cfg HostConfig, m *sim.Model, network *netdev.Network, mon *flowmon.Monitor) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if len(cfg.HostOf) != m.Nodes {
		return nil, fmt.Errorf("dist: HostOf covers %d of %d nodes", len(cfg.HostOf), m.Nodes)
	}
	if cfg.StopAt <= 0 {
		return nil, fmt.Errorf("dist: StopAt required")
	}
	if cfg.Ckpt == nil && (cfg.CheckpointEvery > 0 || cfg.RestoreFrom != "") {
		return nil, fmt.Errorf("dist: CheckpointEvery and RestoreFrom require HostConfig.Ckpt")
	}

	nc, dialRetries, err := dialCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	r := &rank{cfg: &cfg, c: newConn(nc, cfg.Timeout, "coordinator"), net: network, note: obs.RoundRecord{Retries: uint64(dialRetries)}}
	defer r.c.close()
	// The hooks set below would keep r, its buffers and the codecs alive.
	defer func() { network.Remote, m.Ckpt = nil, nil }()
	if err := r.c.send(&envelope{Kind: kHello, Host: cfg.ID}); err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	network.Remote = r.remote
	if cfg.Live {
		r.side = &Sideband{}
	}
	m.Ckpt = &sim.CkptHook{Every: cfg.CheckpointEvery, Saved: r.saved}
	if cfg.Ckpt != nil {
		m.Ckpt.NewSaver = cfg.Ckpt.Saver(func(round uint64) string { return CheckpointFile(cfg.CheckpointDir, round, cfg.ID) })
	}
	if cfg.RestoreFrom != "" {
		ks, err := cfg.Ckpt.Load(cfg.RestoreFrom)
		if err != nil {
			return nil, fmt.Errorf("dist: restoring %s: %w", cfg.RestoreFrom, err)
		}
		m.Ckpt.Restore = ks
	}
	var probe obs.Probe
	if cfg.Observe != nil || cfg.Live {
		probe = obs.Tee(r, cfg.Observe)
	}
	st, err := core.RunStatic(m, fmt.Sprintf("dist-host(%d)", cfg.ID), core.Manual(cfg.HostOf, m.Links()),
		core.Config{Observe: probe}, r)
	if err != nil {
		return nil, err
	}

	recs, rcvs := mon.Export()
	gather := &envelope{Kind: kGather, Host: cfg.ID, Senders: recs, Recvs: rcvs, Stats: st}
	// Ship this host's share of the network observability data; the
	// sampler and tracer only hold records of locally-owned devices.
	if s := network.Sampler(); s != nil {
		s.Flush()
		gather.Rows = s.Rows()
	}
	if network.Tracer != nil {
		gather.Trace = network.Tracer.Merged()
	}
	if err := r.c.send(gather); err != nil {
		return nil, fmt.Errorf("dist: gather: %w", err)
	}
	return st, nil
}

// rank is a host's end of the wire: the core.Wire its engine's serial
// sections call, the data plane's Remote hook, the checkpoint hook's Saved,
// and the first probe of the host's tee, which adds to each round record
// what only the wire knows. One worker, so one goroutine calls them all.
type rank struct {
	cfg  *HostConfig
	c    *conn
	net  *netdev.Network
	out  []RemoteEvent   // this round's cross-host arrivals, filled by remote
	in   []sim.Event     // Exchange's result, reused every round
	note obs.RoundRecord // the fields OnRound copies into the round's record
	side *Sideband       // the batch riding the next min message; nil unless cfg.Live
}

func (r *rank) Resident() int { return int(r.cfg.ID) }

// remote is netdev's Remote hook: a packet arriving on another host's node
// goes to the wire with the identity the sending node's counter gives it.
func (r *rank) remote(c *sim.Ctx, at sim.NodeID, p packet.Packet, arrival sim.Time) bool {
	target := r.cfg.HostOf[at]
	if target == r.cfg.ID {
		return false
	}
	ev := c.Stamp(arrival, at)
	r.out = append(r.out, RemoteEvent{Time: ev.Time, Src: ev.Src, Seq: ev.Seq, Node: at, Host: target, Pkt: p})
	return true
}

// Exchange flushes the round's outbound remote events and receives its
// inbox. The inbox is wire input: an event no correct peer could have sent
// here is an error now, not a panic in the engine a round later.
func (r *rank) Exchange(lbts sim.Time) ([]sim.Event, error) {
	r.note.Sends = uint64(len(r.out))
	if err := r.c.send(&envelope{Kind: kFlush, Host: r.cfg.ID, Events: r.out}); err != nil {
		return nil, fmt.Errorf("dist: flush: %w", err)
	}
	r.out = r.out[:0]
	in, err := r.c.recv(kEvents)
	if err != nil {
		return nil, fmt.Errorf("dist: inbox: %w", err)
	}
	r.note.Recvs, r.in = uint64(len(in.Events)), r.in[:0]
	for _, rev := range in.Events {
		if rev.Node < 0 || int(rev.Node) >= len(r.cfg.HostOf) || r.cfg.HostOf[rev.Node] != r.cfg.ID || rev.Time < lbts {
			return nil, fmt.Errorf("dist: host %d: coordinator delivered an event for node %d at %v, which is not this host's node or is inside the window ending %v", r.cfg.ID, rev.Node, rev.Time, lbts)
		}
		fn, desc := r.net.DeliverEvent(rev.Node, rev.Pkt)
		r.in = append(r.in, sim.Event{Time: rev.Time, Src: rev.Src, Seq: rev.Seq, Node: rev.Node, Fn: fn, Desc: desc})
	}
	return r.in, nil
}

// Reduce is the window all-reduce: the local minimum up, the global one
// down (the engine derives the LBTS, bounded by the stop time) or the end
// of the run. The live batch rides the min message.
func (r *rank) Reduce(local sim.Time) (allMin, bound sim.Time, err error) {
	e := &envelope{Kind: kMin, Host: r.cfg.ID, Min: local}
	if r.side != nil {
		// The engine is quiescent here, so reading the sampler's closed
		// buckets is race-free; LiveDelta never touches open buckets,
		// keeping the final gather rows byte-identical.
		if s := r.net.Sampler(); s != nil {
			r.side.Rows = s.LiveDelta()
		}
		e.Side, r.side = r.side, &Sideband{}
	}
	start := time.Now()
	if err := r.c.send(e); err != nil {
		return 0, 0, fmt.Errorf("dist: sending min: %w", err)
	}
	in, err := r.c.recvAny()
	if err != nil {
		return 0, 0, fmt.Errorf("dist: window: %w", err)
	}
	r.note.AllReduceNS = time.Since(start).Nanoseconds()
	switch in.Kind {
	case kWindow:
		return in.Min, r.cfg.StopAt, nil
	case kDone:
		return sim.MaxTime, sim.MaxTime, nil
	case kAbort:
		return 0, 0, fmt.Errorf("dist: coordinator aborted the run: %s", in.Err)
	}
	return 0, 0, fmt.Errorf("dist: %s: expected %v or %v, got %v", r.c.peer, kWindow, kDone, in.Kind)
}

// saved is the checkpoint hook's report of the snapshot the engine took at
// the quiescent point of a CheckpointEvery-th round, the same rounds on
// every host.
func (r *rank) saved(_ *sim.KernelState, heldNS, bytes int64) {
	r.note.CkptNS, r.note.CkptBytes = heldNS, uint64(bytes)
}

func (r *rank) BeginRun(obs.RunMeta) {}
func (r *rank) EndRun(*sim.RunStats) {}

// OnRound completes the engine's record of a round with the remote events
// it exchanged, the all-reduce that closed it, the dial retries (on the
// first) and the snapshot taken at its end. Under Live a copy joins the
// batch for the coordinator.
func (r *rank) OnRound(rec *obs.RoundRecord) {
	n := &r.note
	rec.Sends, rec.SendBytes, rec.Recvs, rec.AllReduceNS = n.Sends, n.Sends*obs.EventBytes, n.Recvs, n.AllReduceNS
	rec.Retries, rec.CkptNS, rec.CkptBytes = n.Retries, n.CkptNS, n.CkptBytes
	n.Retries, n.CkptNS, n.CkptBytes = 0, 0, 0
	if r.side != nil {
		r.side.Recs = append(r.side.Recs, *rec)
	}
}
