package dist

import (
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"time"

	"unison/internal/ckpt"
	"unison/internal/core"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
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
	// Threads is this host's worker count (as ThreadsPerHost is the
	// hybrid kernel's); zero means 1.
	Threads int
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
	// Observe, when non-nil, receives one obs.RoundRecord per window and
	// worker. Worker 0's adds the wire's remote events to Sends, SendBytes
	// and Recvs; AllReduceNS is the round trip of the round's step, from
	// sending it to the coordinator's answer, and Retries reports extra
	// dial attempts on the first record.
	Observe obs.Probe
	// Live piggybacks this host's round records, and its snapshots', on
	// the telemetry Sideband of every step message, and the rest on the
	// gather, feeding the coordinator's record stream. Purely
	// observational: the simulation and its artifacts are bit-identical
	// either way. Sampler rows ride the sideband whenever the network has
	// a sampler attached, Live or not: it is their one way to the
	// coordinator.
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
// is one host of the hybrid kernel (core.NewHybrid): Unison's fine-grained
// partition and scheduling over its own nodes, on cfg.Threads workers,
// with the other hosts across the wire this file is.
//
// Restrictions (the same the paper's MPI baselines have): only the stop
// event among global events, and models may only communicate across hosts
// through the data plane (netdev), not by scheduling raw events onto
// remote nodes. The host adds its pause clients to m.Pauses and sets
// m.Restore for the run; both are as they were when it returns.
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
	cfg.Threads = max(cfg.Threads, 1)
	r := &rank{cfg: &cfg, c: newConn(nc, cfg.Timeout, "coordinator"), net: network, note: obs.RoundRecord{Retries: uint64(dialRetries)},
		out: make([][]RemoteEvent, cfg.Threads), recs: make([][]obs.RoundRecord, cfg.Threads)}
	defer r.c.close()
	// The hooks set below would keep r and its frame buffers alive.
	defer func(pauses []sim.Pause, ks *sim.KernelState) { network.Remote, m.Pauses, m.Restore = nil, pauses, ks }(m.Pauses, m.Restore)
	if err := r.c.send(&envelope{Kind: kHello, Host: cfg.ID}); err != nil {
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	network.Remote = r.remote
	sampler := network.Sampler()
	if cfg.Live || sampler != nil {
		r.side = &Sideband{}
	}
	// The pauses: rows first, so that a snapshot holds the sampler as the
	// rows shipped so far leave it.
	m.Pauses = slices.Clip(m.Pauses)
	finish := func() {}
	if sampler != nil {
		var feed sim.Pause
		feed, finish = sampler.Feed(func(rows []netobs.Row) { r.side.Rows = append(r.side.Rows, rows...) })
		m.Pauses = append(m.Pauses, feed)
	}
	var probe obs.Probe
	if cfg.Observe != nil || cfg.Live {
		probe = obs.Tee(r, cfg.Observe)
	}
	if cfg.CheckpointEvery > 0 {
		m.Pauses = append(m.Pauses, sim.Pause{Every: cfg.CheckpointEvery,
			New: cfg.Ckpt.Saver(func(round uint64) string { return CheckpointFile(cfg.CheckpointDir, round, cfg.ID) }, probe)})
	}
	if cfg.RestoreFrom != "" {
		ks, err := cfg.Ckpt.Load(cfg.RestoreFrom)
		if err != nil {
			return nil, fmt.Errorf("dist: restoring %s: %w", cfg.RestoreFrom, err)
		}
		m.Restore = ks
	}
	st, err := core.NewHybrid(core.HybridConfig{HostOf: cfg.HostOf, ThreadsPerHost: cfg.Threads, Observe: probe, Wire: r}).Run(m)
	if err != nil {
		return nil, err
	}

	fin := &Final{Stats: st}
	fin.Senders, fin.Recvs = mon.Export()
	// Ship this host's share of the packet trace; the tracer only holds
	// records of locally-owned devices.
	if network.Tracer != nil {
		fin.Trace = network.Tracer.Merged()
	}
	// No step follows the last round: its record, and the rows closed
	// since the last pause, the final flush's among them, ride the gather.
	finish()
	if err := r.c.send(&envelope{Kind: kGather, Side: r.batch(), Final: fin}); err != nil {
		return nil, fmt.Errorf("dist: gather: %w", err)
	}
	return st, nil
}

// rank is a host's end of the wire: the core.Wire its engine's serial
// section calls, the data plane's Remote hook, and the first probe of the
// host's tee, which adds to each round record what only the wire knows.
// Every worker calls remote and OnRound, each into its own slot of out and
// recs; Sync and the pause clients run in serial sections.
type rank struct {
	cfg  *HostConfig
	c    *conn
	net  *netdev.Network
	out  [][]RemoteEvent     // each worker's cross-host arrivals of this window, filled by remote
	in   []sim.Event         // Sync's inbox, reused every round
	note obs.RoundRecord     // the fields OnRound adds to worker 0's round record
	recs [][]obs.RoundRecord // each worker's round records since the last batch, under Live
	side *Sideband           // the batch riding the next step; nil without Live or a sampler
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
	r.out[c.Worker] = append(r.out[c.Worker], RemoteEvent{Time: ev.Time, Src: ev.Src, Seq: ev.Seq, Node: at, Host: target, Pkt: p})
	return true
}

// Sync is the round's one round trip: the step — the window's outbound
// remote events, the local minimum and, under Live, the telemetry batch —
// goes up, and the inbox with the global minimum (the engine derives the
// LBTS, bounded by the stop time), or the end of the run, comes down. The
// inbox is wire input: an event no correct peer could have sent here is an
// error now, not a panic in the engine a round later.
func (r *rank) Sync(lbts, local sim.Time) ([]sim.Event, sim.Time, sim.Time, error) {
	for w := 1; w < len(r.out); w++ {
		r.out[0], r.out[w] = append(r.out[0], r.out[w]...), r.out[w][:0]
	}
	e := &envelope{Kind: kStep, Min: local, Events: r.out[0], Side: r.batch()}
	r.note.Sends = uint64(len(r.out[0]))
	start := time.Now()
	if err := r.c.send(e); err != nil {
		return nil, 0, 0, fmt.Errorf("dist: sending step: %w", err)
	}
	r.out[0] = r.out[0][:0]
	in, err := r.c.recvAny()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("dist: window: %w", err)
	}
	r.note.AllReduceNS = time.Since(start).Nanoseconds()
	allMin, bound := in.Min, r.cfg.StopAt
	switch in.Kind {
	case kWindow:
	case kDone:
		allMin, bound = sim.MaxTime, sim.MaxTime
	case kAbort:
		return nil, 0, 0, fmt.Errorf("dist: coordinator aborted the run: %s", in.Err)
	default:
		return nil, 0, 0, fmt.Errorf("dist: %s: expected %v or %v, got %v", r.c.peer, kWindow, kDone, in.Kind)
	}
	r.note.Recvs, r.in = uint64(len(in.Events)), r.in[:0]
	for _, rev := range in.Events {
		if rev.Node < 0 || int(rev.Node) >= len(r.cfg.HostOf) || r.cfg.HostOf[rev.Node] != r.cfg.ID || rev.Time < lbts {
			return nil, 0, 0, fmt.Errorf("dist: host %d: coordinator delivered an event for node %d at %v, which is not this host's node or is inside the window ending %v", r.cfg.ID, rev.Node, rev.Time, lbts)
		}
		fn, desc := r.net.DeliverEvent(rev.Node, rev.Pkt)
		r.in = append(r.in, sim.Event{Time: rev.Time, Src: rev.Src, Seq: rev.Seq, Node: rev.Node, Fn: fn, Desc: desc})
	}
	return r.in, allMin, bound, nil
}

// batch hands over the telemetry gathered since the last batch: the round
// and snapshot records (under Live) and the sampler rows the feed's pauses
// passed on. Nil without Live or a sampler.
func (r *rank) batch() *Sideband {
	b := r.side
	if b == nil {
		return nil
	}
	for w, recs := range r.recs {
		b.Recs, r.recs[w] = append(b.Recs, recs...), recs[:0]
	}
	r.side = &Sideband{}
	return b
}

func (r *rank) BeginRun(obs.RunMeta) {}
func (r *rank) EndRun(*sim.RunStats) {}

// OnRound adds to worker 0's record of a round the remote events it sent
// and received, the step round trip that closed it and the dial retries
// (on the first); a snapshot's record, the saver's, it leaves as it is.
// Under Live a copy, numbered ID*Threads + worker, joins the batch.
func (r *rank) OnRound(rec *obs.RoundRecord) {
	if n := &r.note; rec.Worker == 0 && rec.CkptBytes == 0 {
		rec.Sends, rec.SendBytes = rec.Sends+n.Sends, rec.SendBytes+n.Sends*obs.EventBytes
		rec.Recvs, rec.AllReduceNS = rec.Recvs+n.Recvs, n.AllReduceNS
		rec.Retries, n.Retries = n.Retries, 0
	}
	if r.cfg.Live {
		cp := *rec
		cp.Worker += r.cfg.ID * int32(r.cfg.Threads)
		r.recs[rec.Worker] = append(r.recs[rec.Worker], cp)
	}
}
