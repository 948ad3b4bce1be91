package vtime

import (
	"errors"
	"time"

	"unison/internal/core"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
)

// The null-message virtual kernel is a meta-simulation: the ranks of the
// Chandy–Misra–Bryant protocol (pdes/cmb.go — the same rank the live
// kernel drives) are themselves simulated as processes with virtual CPU
// clocks. Messages sent at a sender's virtual time V arrive at the
// receiver at V + MsgNS; a rank that cannot progress blocks until its
// earliest pending arrival (accounted as synchronization time S). Because
// CMB is asynchronous, this is the only baseline whose timing cannot be
// expressed in rounds — the meta-DES computes the true interleaving for
// any core count.

type vnmMsg struct {
	vArrive int64 // virtual arrival time at the receiver
	from    int32
	bound   sim.Time
	events  []sim.Event
}

// vnmRank is a rank as the meta-simulation sees it: the protocol state,
// the messages in flight to it, and its virtual CPU.
type vnmRank struct {
	*pdes.Rank
	id    int32
	inbox []vnmMsg
	send  func(to int32, bound sim.Time, events []sim.Event)

	v       int64 // virtual CPU clock
	parked  bool
	done    bool
	sentAny bool             // send ran during the current step
	t       *sim.WorkerStats // modelled P/S/M
	iter    uint64           // probe iteration counter
}

func runNullMessage(m *sim.Model, cfg Config, start time.Time) (*sim.RunStats, error) {
	if cfg.LPOf == nil {
		return nil, errors.New("vtime: NullMessage requires a manual partition (LPOf)")
	}
	rs, err := pdes.NewRanks(m, core.Manual(cfg.LPOf, m.Links()), cfg.Cost.CacheWays)
	if err != nil {
		return nil, err
	}
	cm := cfg.Cost
	n := rs.Len()
	ranks := make([]*vnmRank, n)
	times := make([]sim.WorkerStats, n)
	for i := range ranks {
		r := &vnmRank{Rank: rs.Rank(i), id: int32(i), t: &times[i]}
		// A message leaves at the sender's current virtual time, arrives
		// MsgNS later, and costs the sender MsgNS (events) or NullNS.
		r.send = func(to int32, bound sim.Time, events []sim.Event) {
			msg := vnmMsg{from: r.id, bound: bound, events: events, vArrive: r.v + cm.MsgNS}
			cost := cm.NullNS
			if len(events) > 0 {
				cost = cm.MsgNS
			}
			r.t.M += cost
			r.v += cost
			peer := ranks[to]
			peer.inbox = append(peer.inbox, msg)
			if peer.parked {
				if wake := msg.vArrive; wake > peer.v {
					peer.t.S += wake - peer.v
					peer.v = wake
				}
				peer.parked = false
			}
			r.sentAny = true
		}
		ranks[i] = r
	}
	probe := cfg.Observe
	obs.Begin(probe, obs.RunMeta{Kernel: NullMessage.String(), Workers: n, LPs: n})

	// step runs one iteration of r at its virtual time and reports whether
	// it made progress.
	step := func(r *vnmRank) bool {
		t0 := *r.t
		// Deliver the messages that have arrived.
		rest := r.inbox[:0]
		var drained int64
		var recvd uint64
		for _, msg := range r.inbox {
			if msg.vArrive > r.v {
				rest = append(rest, msg)
				continue
			}
			r.Deliver(msg.from, msg.bound, msg.events)
			recvd += uint64(len(msg.events))
			drained++
		}
		r.inbox = rest
		d := drained * cm.MsgNS
		r.v += d
		r.t.M += d

		eit, safe := r.Window(m.StopAt)
		nev, misses := r.Process(safe)
		cost := nev*cm.EventNS + misses*cm.MissNS
		r.v += cost
		r.t.P += cost

		r.sentAny = false
		sent := uint64(r.Flush(eit, r.send))
		r.done = r.Terminal(eit, m.StopAt)
		if probe != nil {
			rec := obs.RoundRecord{
				Round: r.iter, Worker: r.id, LBTS: safe,
				Events: uint64(nev),
				ProcNS: r.t.P - t0.P, SyncNS: r.t.S - t0.S, MsgNS: r.t.M - t0.M,
				Sends: sent, SendBytes: sent * obs.EventBytes,
				Recvs: recvd, FELDepth: uint64(r.Depth()),
			}
			probe.OnRound(&rec)
			r.iter++
		}
		return drained > 0 || nev > 0 || r.sentAny || r.done
	}

	var runErr error
	for {
		// Pick the runnable rank with the smallest virtual clock.
		var pick *vnmRank
		live := false
		for _, r := range ranks {
			if r.done {
				continue
			}
			live = true
			if !r.parked && (pick == nil || r.v < pick.v) {
				pick = r
			}
		}
		if pick == nil {
			if live {
				runErr = errors.New("vtime: null message meta-simulation deadlocked")
			}
			break
		}
		if step(pick) {
			continue
		}
		// No progress: wait for the earliest pending arrival, or park.
		earliest := int64(-1)
		for _, msg := range pick.inbox {
			if earliest < 0 || msg.vArrive < earliest {
				earliest = msg.vArrive
			}
		}
		switch {
		case earliest < 0:
			pick.parked = true
		case earliest > pick.v:
			pick.t.S += earliest - pick.v
			pick.v = earliest
		}
	}

	st := rs.Stats(NullMessage.String(), start, times)
	for _, r := range ranks {
		if r.v > st.VirtualT {
			st.VirtualT = r.v
		}
	}
	// Ranks that finished early waited (virtually) for the slowest one.
	for _, r := range ranks {
		r.t.S += st.VirtualT - r.v
	}
	return st, runErr
}
