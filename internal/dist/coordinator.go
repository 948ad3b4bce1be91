package dist

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"unison/internal/flowmon"
	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
	"unison/internal/trace"
)

// CoordConfig parameterizes the coordinator.
type CoordConfig struct {
	// Hosts is the number of simulation hosts that will connect.
	Hosts int
	// StopAt bounds the simulation (mandatory, as for the null-message
	// kernel: there is no distributed termination detection).
	StopAt sim.Time
	// Flows is the model's registered flow count (for the final gather).
	Flows int
	// MaxRounds aborts runaway runs when positive. Exceeding it is an
	// error ("dist: MaxRounds exceeded"), mirroring the core kernel, and
	// is broadcast to the hosts so they fail too.
	MaxRounds uint64
	// Timeout bounds every socket operation: each Accept during the
	// handshake, every per-message read from a host, and every write.
	// It must exceed the longest per-round compute time of the slowest
	// host, since hosts are silent while they execute a window. When a
	// host exceeds it the coordinator aborts the run, notifies the
	// surviving hosts with an abort message, and returns a descriptive
	// error. Zero disables deadlines (legacy trusted-loopback behavior).
	Timeout time.Duration
	// Observe, when non-nil, receives one obs.RoundRecord per protocol
	// round (Worker 0): AllReduceNS is the min-gather latency — the time
	// the slowest host kept everyone waiting — and Sends counts the
	// cross-host events routed that round.
	Observe obs.Probe
	// Net, when non-nil, receives the merged network observability data
	// (sampler rows and packet-trace records) the hosts ship at gather.
	Net *NetData
	// OnSideband, when non-nil, receives every telemetry Sideband the
	// hosts piggyback on their min messages (hosts only attach one when
	// run with HostConfig.Live), with the index of the connection it
	// arrived on. Called on the coordinator's protocol goroutine between
	// the min all-reduce and the window broadcast, so implementations must
	// be quick — hand the records to a probe and return.
	OnSideband func(host int, side *Sideband)
	// Stats, when non-nil, is filled with the merged run stats of the
	// whole distributed run (one WorkerStats per host, from the stats the
	// hosts ship at gather) — what unidist writes as the bundle's
	// run_stats.json.
	Stats *sim.RunStats
}

// NetData is the coordinator-side merge of the hosts' network
// observability records. Each device and node is owned by exactly one
// host, so the merged views are byte-identical to a single-process run.
type NetData struct {
	Rows  []netobs.Row
	Trace []trace.Record
}

// hostMsg is one decoded envelope (or terminal read error) from a host's
// reader goroutine.
type hostMsg struct {
	host int
	e    *envelope
	err  error
}

// RunCoordinator accepts cfg.Hosts connections on ln, drives the round
// protocol (min all-reduce → window broadcast → event routing) until the
// simulation completes, and returns the merged global flow monitor.
//
// Reads from hosts run in one goroutine per host, so a dead or slow host
// cannot head-of-line-block the others past cfg.Timeout. On any host
// error the coordinator broadcasts an abort (with the reason) to every
// surviving host before returning.
func RunCoordinator(ln net.Listener, cfg CoordConfig) (*flowmon.Monitor, uint64, error) {
	if cfg.Hosts <= 0 {
		return nil, 0, fmt.Errorf("dist: coordinator needs Hosts > 0")
	}
	if cfg.StopAt <= 0 {
		return nil, 0, fmt.Errorf("dist: coordinator needs StopAt")
	}

	// The cleanup defer is installed before any connection is accepted so
	// that a failed handshake (accept error, bad hello, duplicate id)
	// cannot abandon already-accepted connections.
	var accepted []*conn
	defer func() {
		for _, c := range accepted {
			c.close()
		}
	}()

	conns, err := handshake(ln, cfg, &accepted)
	if err != nil {
		abortAll(accepted, err.Error())
		return nil, 0, err
	}

	// One reader goroutine per host: each decodes envelopes into a shared
	// channel and exits on its first error (including the read-deadline
	// firing, and the EOF produced by the deferred close above). The
	// protocol is lock-step, so a host has at most one undelivered message
	// plus one terminal error in flight; the buffer makes exits non-blocking.
	g := &gatherer{in: make(chan hostMsg, 4*cfg.Hosts), conns: conns, dead: make([]error, len(conns))}
	for h, c := range conns {
		go func(h int, c *conn) {
			for {
				e, err := c.recvAny()
				g.in <- hostMsg{host: h, e: e, err: err}
				if err != nil {
					return
				}
			}
		}(h, c)
	}

	probe := cfg.Observe
	obs.Begin(probe, obs.RunMeta{Kernel: "dist-coordinator", Workers: 1, LPs: cfg.Hosts})
	coordStart := time.Now()
	var rounds, totalEvents uint64
	// Every way out from here ends the run the probe saw begin.
	defer func() {
		wall := time.Since(coordStart).Nanoseconds()
		obs.End(probe, &sim.RunStats{Kernel: "dist-coordinator", Rounds: rounds, Events: totalEvents,
			WallNS: wall, Workers: []sim.WorkerStats{{S: wall}}})
	}()
	fail := func(rounds uint64, err error) (*flowmon.Monitor, uint64, error) {
		abortAll(conns, err.Error())
		return nil, rounds, err
	}

	for {
		// All-reduce: gather local minima (concurrently, via the readers).
		gatherStart := time.Now()
		mins, err := g.collect(kMin, "min")
		if err != nil {
			return fail(rounds, err)
		}
		gatherNS := time.Since(gatherStart).Nanoseconds()
		if cfg.OnSideband != nil {
			for h, e := range mins {
				if e.Side != nil {
					cfg.OnSideband(h, e.Side)
				}
			}
		}
		globalMin := sim.MaxTime
		for _, e := range mins {
			if e.Min < globalMin {
				globalMin = e.Min
			}
		}
		done := globalMin >= cfg.StopAt || globalMin == sim.MaxTime
		if !done && cfg.MaxRounds > 0 && rounds >= cfg.MaxRounds {
			return fail(rounds, errors.New("dist: MaxRounds exceeded"))
		}
		kind := kWindow
		if done {
			kind = kDone
		}
		for _, c := range conns {
			if err := c.send(&envelope{Kind: kind, Min: globalMin}); err != nil {
				return fail(rounds, fmt.Errorf("dist: window broadcast to %s: %w", c.peer, err))
			}
		}
		if done {
			break
		}
		rounds++
		// Route this round's cross-host events.
		routeStart := time.Now()
		flushes, err := g.collect(kFlush, "flush")
		if err != nil {
			return fail(rounds, err)
		}
		outbox := make([][]RemoteEvent, cfg.Hosts)
		var routed uint64
		for h, e := range flushes {
			for _, rev := range e.Events {
				if rev.Host < 0 || int(rev.Host) >= cfg.Hosts {
					return fail(rounds, fmt.Errorf("dist: %s sent an event addressed to host %d", conns[h].peer, rev.Host))
				}
				outbox[rev.Host] = append(outbox[rev.Host], rev)
				routed++
			}
		}
		for h, c := range conns {
			if err := c.send(&envelope{Kind: kEvents, Events: outbox[h]}); err != nil {
				return fail(rounds, fmt.Errorf("dist: events to %s: %w", c.peer, err))
			}
		}
		if probe != nil {
			totalEvents += routed
			rec := obs.RoundRecord{
				Round: rounds - 1, LBTS: globalMin,
				SyncNS: gatherNS, MsgNS: time.Since(routeStart).Nanoseconds(),
				Sends: routed, SendBytes: routed * obs.EventBytes,
				Recvs: routed, AllReduceNS: gatherNS,
			}
			probe.OnRound(&rec)
		}
	}

	// Final gather: merge per-host monitors into the global view.
	gathers, err := g.collect(kGather, "gather")
	if err != nil {
		return fail(rounds, err)
	}
	mon := flowmon.NewMonitor(cfg.Flows)
	for _, e := range gathers {
		part := flowmon.NewMonitor(cfg.Flows)
		part.Import(e.Senders, e.Recvs)
		mon.MergeFrom(part)
	}
	if cfg.Net != nil {
		sets := make([][]netobs.Row, 0, len(gathers))
		for _, e := range gathers {
			if len(e.Rows) > 0 {
				sets = append(sets, e.Rows)
			}
			cfg.Net.Trace = append(cfg.Net.Trace, e.Trace...)
		}
		cfg.Net.Rows = netobs.MergeRows(sets...)
		// Per-host lists arrive in each host's merged (time, node, emission)
		// order and every node lives on one host, so a stable sort by
		// (time, node) reproduces the single-process merged trace.
		sort.SliceStable(cfg.Net.Trace, func(i, j int) bool {
			a, b := &cfg.Net.Trace[i], &cfg.Net.Trace[j]
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			return a.Node < b.Node
		})
	}
	if cfg.Stats != nil {
		merged := sim.RunStats{
			Kernel: fmt.Sprintf("dist(%d)", cfg.Hosts),
			Rounds: rounds, LPs: cfg.Hosts,
			WallNS:  time.Since(coordStart).Nanoseconds(),
			Workers: make([]sim.WorkerStats, cfg.Hosts),
		}
		for h, e := range gathers {
			if e.Stats == nil {
				continue
			}
			merged.Events += e.Stats.Events
			if e.Stats.EndTime > merged.EndTime {
				merged.EndTime = e.Stats.EndTime
			}
			if len(e.Stats.Workers) > 0 {
				merged.Workers[h] = e.Stats.Workers[0]
			}
		}
		*cfg.Stats = merged
	}
	return mon, rounds, nil
}

// handshake accepts cfg.Hosts connections and reads their hellos
// concurrently (one goroutine per accepted conn), so a host that connects
// but never identifies itself cannot block the hosts behind it past the
// deadline. Every accepted conn is appended to *accepted immediately,
// which the caller's deferred cleanup closes on every path.
func handshake(ln net.Listener, cfg CoordConfig, accepted *[]*conn) ([]*conn, error) {
	type helloMsg struct {
		c   *conn
		e   *envelope
		err error
	}
	dl, hasDeadline := ln.(interface{ SetDeadline(time.Time) error })
	hasDeadline = hasDeadline && cfg.Timeout > 0
	if hasDeadline {
		defer func() { _ = dl.SetDeadline(time.Time{}) }()
	}
	hellos := make(chan helloMsg, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		if hasDeadline {
			_ = dl.SetDeadline(time.Now().Add(cfg.Timeout))
		}
		nc, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: accept (%d of %d hosts connected): %w", i, cfg.Hosts, err)
		}
		cc := newConn(nc, cfg.Timeout, "connecting host")
		*accepted = append(*accepted, cc)
		go func(cc *conn) {
			e, err := cc.recv(kHello)
			hellos <- helloMsg{cc, e, err}
		}(cc)
	}
	conns := make([]*conn, cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		m := <-hellos
		if m.err != nil {
			return nil, fmt.Errorf("dist: hello: %w", m.err)
		}
		if m.e.Host < 0 || int(m.e.Host) >= cfg.Hosts || conns[m.e.Host] != nil {
			return nil, fmt.Errorf("dist: bad or duplicate host id %d", m.e.Host)
		}
		m.c.peer = fmt.Sprintf("host %d", m.e.Host)
		conns[m.e.Host] = m.c
	}
	return conns, nil
}

// gatherer owns the per-host reader channel and remembers which readers
// have terminated. A host may legitimately deliver its last message of a
// phase and then die (e.g. closing right after its gather); that terminal
// error must fail the NEXT phase that needs the host, not the phase the
// host already completed.
type gatherer struct {
	in    chan hostMsg
	conns []*conn
	dead  []error // terminal read error per host, once its reader exits
}

// collect reads one envelope of the wanted kind from every host, in
// whatever order the reader goroutines deliver them.
func (g *gatherer) collect(want msgKind, phase string) ([]*envelope, error) {
	for h, err := range g.dead {
		if err != nil {
			return nil, fmt.Errorf("dist: %s from %s: %w", phase, g.conns[h].peer, err)
		}
	}
	out := make([]*envelope, len(g.conns))
	for got := 0; got < len(g.conns); {
		m := <-g.in
		if m.err != nil {
			g.dead[m.host] = m.err
			if out[m.host] != nil {
				continue // already delivered this phase; surfaces next phase
			}
			return nil, fmt.Errorf("dist: %s from %s: %w", phase, g.conns[m.host].peer, m.err)
		}
		if m.e.Kind != want {
			return nil, fmt.Errorf("dist: %s: expected %v, got %v", g.conns[m.host].peer, want, m.e.Kind)
		}
		if out[m.host] != nil {
			return nil, fmt.Errorf("dist: %s sent two %v messages in one phase", g.conns[m.host].peer, want)
		}
		out[m.host] = m.e
		got++
	}
	return out, nil
}

// abortAll best-effort notifies every connected host that the run is over
// and why, so survivors fail fast with a descriptive error instead of
// hanging on their next read. Send errors are ignored: the conn is about
// to be closed anyway, and a host whose conn is already dead learns of
// the abort from that.
func abortAll(conns []*conn, reason string) {
	for _, c := range conns {
		if c != nil {
			_ = c.send(&envelope{Kind: kAbort, Err: reason})
		}
	}
}
