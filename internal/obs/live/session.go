package live

import (
	"time"

	"unison/internal/obs"
	"unison/internal/sim"
)

// DefaultLinger is how long a finished run waits for an attached watcher
// to read the final snapshot (only when a watcher ever connected).
const DefaultLinger = 5 * time.Second

// Session is the one-call wiring the CLIs use for -live: a Registry and an
// ImbalanceTracker as the run's probe, a State reading them, and a Server
// exposing it.
//
//	sess, err := live.StartSession("unisim", stopAt, addr, registry)
//	...run kernels with sess.Probe() as the observe probe...
//	sess.Finish(st)   // per finished run: imbalance pass + final snapshot
//	sess.Close()      // linger for watchers, then tear down
type Session struct {
	State  *State
	Server *Server
	Imb    *obs.ImbalanceTracker

	probe  obs.Probe
	linger time.Duration
	final  *sim.RunStats
}

// StartSession wires a live telemetry session. tool names the CLI, stopAt
// is the simulated end time when known (0 otherwise), addr is the listen
// address ("" or ":0" pick a free port), and reg is the Registry the view
// reads: the caller's own when it also exports the records, or nil for one
// that keeps a single record per worker (the view needs only the totals).
func StartSession(tool string, stopAt sim.Time, addr string, reg *obs.Registry) (*Session, error) {
	if reg == nil {
		reg = obs.NewRegistry(1)
	}
	imb := obs.NewImbalanceTracker()
	state := NewState(tool, stopAt, reg, imb)
	if addr == "" {
		addr = ":0"
	}
	srv, err := NewServer(state, addr)
	if err != nil {
		return nil, err
	}
	return &Session{
		State:  state,
		Server: srv,
		Imb:    imb,
		probe:  obs.Tee(reg, imb),
		linger: DefaultLinger,
	}, nil
}

// Probe returns the probe to hand the kernels: the Registry, then the
// tracker.
func (s *Session) Probe() obs.Probe {
	if s == nil {
		return nil
	}
	return s.probe
}

// Finish runs the imbalance diagnostics pass over st (stamping
// RunStats.Imbalance and per-worker StragglerRounds) and
// records st as the live view's final snapshot. Call once per finished
// run, before st is serialized into run_stats.json — the snapshot and the
// artifact then match field for field.
//
// The view is NOT marked done yet: Close does that, so a watcher's final
// (Done) frame is only served after the CLI finished writing its artifact
// bundle — a watcher reacting to Done can immediately open run_stats.json.
// Nil-safe.
func (s *Session) Finish(st *sim.RunStats) {
	if s == nil {
		return
	}
	s.Imb.Apply(st)
	s.final = st
}

// SetLinger overrides how long Close waits for an attached watcher.
func (s *Session) SetLinger(d time.Duration) {
	if s != nil {
		s.linger = d
	}
}

// Close publishes the final snapshot recorded by Finish, waits (only if a
// watcher ever connected) for it to be served, then tears the server down.
// Nil-safe.
func (s *Session) Close() {
	if s == nil {
		return
	}
	if s.final != nil {
		s.State.Finalize(s.final)
	}
	s.Server.Linger(s.linger)
	_ = s.Server.Close()
}
