package pdes

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"unison/internal/core"
	"unison/internal/metrics"
	"unison/internal/obs"
	"unison/internal/sim"
)

// NullMessageKernel is the Chandy–Misra–Bryant conservative algorithm:
// ranks synchronize pairwise through their channels instead of global
// barriers. Every message carries a lower bound ("no future message from
// me will arrive before T"); a rank may safely process events earlier
// than the minimum bound over its input channels (its EIT), and it sends
// eager null messages to propagate progress.
//
// The protocol itself is cmb.go's; this kernel drives it with one
// goroutine and one mutex inbox per rank. It supports only the stop event
// among global events (NewRanks): models using dynamic topologies must use
// Unison.
type NullMessageKernel struct {
	// Part is the typed partition (rank assignment + lookahead). When set
	// it takes precedence over LPOf.
	Part *core.Partition
	// LPOf is the bare manual node→rank assignment, for callers that build
	// the kernel before the model's links exist: Run derives the partition
	// and its lookahead from it.
	LPOf []int32
	// Observe, when non-nil, receives one obs.RoundRecord per rank per
	// null-message iteration (Round counts iterations per rank; there is
	// no global round structure) plus run begin/end notifications.
	Observe obs.Probe
}

// Name implements sim.Kernel.
func (k *NullMessageKernel) Name() string { return "nullmsg" }

// nmMsg is one channel message: a batch of remote events plus the
// sender's promise bound.
type nmMsg struct {
	from   int32
	bound  sim.Time
	events []sim.Event
}

// nmInbox is a rank's input channel multiplexer.
type nmInbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []nmMsg
	seq  uint64
}

func (in *nmInbox) post(m nmMsg) {
	in.mu.Lock()
	in.msgs = append(in.msgs, m)
	in.seq++
	in.cond.Signal()
	in.mu.Unlock()
}

func (in *nmInbox) take(buf []nmMsg) ([]nmMsg, uint64) {
	in.mu.Lock()
	buf = append(buf[:0], in.msgs...)
	in.msgs = in.msgs[:0]
	seq := in.seq
	in.mu.Unlock()
	return buf, seq
}

// waitChange blocks until the inbox seq advances past seen.
func (in *nmInbox) waitChange(seen uint64) {
	in.mu.Lock()
	for in.seq == seen {
		in.cond.Wait()
	}
	in.mu.Unlock()
}

// nmRank is a rank as the live driver sees it: the protocol state, the
// inbox its neighbours post to, and where the stopwatch's P/S/M go.
type nmRank struct {
	*Rank
	inbox nmInbox
	t     *sim.WorkerStats
}

// Run implements sim.Kernel.
func (k *NullMessageKernel) Run(m *sim.Model) (*sim.RunStats, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("pdes: %w", err)
	}
	start := time.Now() //unison:wallclock-ok wall-clock run timing for RunStats.WallNS
	part := k.Part
	if part == nil {
		if len(k.LPOf) != m.Nodes {
			return nil, errors.New("pdes: NullMessageKernel requires a manual partition covering every node")
		}
		part = core.Manual(k.LPOf, m.Links())
	}
	rs, err := NewRanks(m, part, 0)
	if err != nil {
		return nil, err
	}
	n := rs.Len()
	ranks := make([]*nmRank, n)
	times := make([]sim.WorkerStats, n)
	for i := range ranks {
		ranks[i] = &nmRank{Rank: rs.Rank(i), t: &times[i]}
		ranks[i].inbox.cond = sync.NewCond(&ranks[i].inbox.mu)
	}
	epoch := rs.pauses.Epoch()

	obs.Begin(k.Observe, obs.RunMeta{Kernel: k.Name(), Workers: n, LPs: n})
	// The null-message kernel has no global rounds, so it pauses at the
	// ends of simulated-time epochs (sim.Pause.EveryTime): the run is split
	// into segments ending at epoch multiples, every rank quiesces at the
	// segment boundary exactly as it would at StopAt, and the boundary is
	// a sound snapshot point — a rank only terminates a segment once its
	// EIT reaches the boundary, so channel promises guarantee every
	// undelivered message holds only events at or after it.
	var runErr error
	for {
		segEnd := m.StopAt
		if epoch > 0 {
			if next := sim.Time(rs.epoch+1) * epoch; next < segEnd {
				segEnd = next
			}
		}
		var wg sync.WaitGroup
		for _, r := range ranks {
			wg.Add(1)
			go func(r *nmRank) {
				defer wg.Done()
				k.rankLoop(r, ranks, segEnd)
			}(r)
		}
		wg.Wait()
		if segEnd >= m.StopAt {
			break
		}
		rs.epoch++
		// Serial quiesce: deliver messages posted after their receiver
		// terminated the segment (all bounded at or after segEnd).
		var buf []nmMsg
		for _, r := range ranks {
			buf, _ = r.inbox.take(buf)
			for _, msg := range buf {
				r.Deliver(msg.from, msg.bound, msg.events)
			}
		}
		if runErr = rs.pause(segEnd); runErr != nil {
			break
		}
	}

	st := rs.Stats(k.Name(), start, times)
	obs.End(k.Observe, st)
	return st, runErr
}

// pause runs the pause clients due at the end of an epoch, the rank FELs
// quiesced. The per-rank clocks and promises are deliberately NOT in a
// snapshot: they are lower bounds, so a restored run restarting them at
// zero merely re-warms the channels with a few extra null messages — the
// event trajectory is unchanged (RunStats.Rounds, the null-message count,
// is the one scheduling-dependent statistic).
func (rs *Ranks) pause(now sim.Time) error {
	events, end := rs.totals()
	return rs.pauses.Pause(rs.epoch, rs.epoch, events, now, end)
}

// snapshot appends the events of list i of a snapshot: rank i's FEL, or,
// last, the stop event. That one keeps the snapshot portable: kernels that
// schedule the stop globally need it back in the queue; this kernel skips
// it on restore just as it does at setup.
func (rs *Ranks) snapshot(i int, dst []sim.Event) []sim.Event {
	if i < len(rs.ranks) {
		return rs.ranks[i].fel.Snapshot(dst)
	}
	for _, ev := range rs.m.Init {
		if ev.Node == sim.GlobalNode && ev.Time == rs.m.StopAt {
			dst = append(dst, ev)
		}
	}
	return dst
}

// rankLoop drives rank r through one segment: every iteration takes what
// the inbox holds, runs the protocol steps against the stopwatch, and
// blocks on the inbox when they made no progress.
func (k *NullMessageKernel) rankLoop(r *nmRank, ranks []*nmRank, stopAt sim.Time) {
	probe := k.Observe
	var iter uint64
	// rec escapes through the probe interface call; hoisted so the
	// allocation is per run, not per round (probes copy the pointee).
	var rec obs.RoundRecord
	var sw metrics.Stopwatch
	sw.Start()
	var buf []nmMsg
	var seenSeq uint64
	post := func(to int32, bound sim.Time, events []sim.Event) {
		ranks[to].inbox.post(nmMsg{from: r.id, bound: bound, events: events})
	}

	for {
		var recvd uint64
		buf, seenSeq = r.inbox.take(buf)
		for _, msg := range buf {
			r.Deliver(msg.from, msg.bound, msg.events)
			recvd += uint64(len(msg.events))
		}
		m1 := sw.Lap()
		r.t.M += m1

		eit, safe := r.Window(stopAt)
		nev, _ := r.Process(safe)
		pNS := sw.Lap()
		r.t.P += pNS

		sent := uint64(r.Flush(eit, post))
		m2 := sw.Lap()
		r.t.M += m2

		terminal := r.Terminal(eit, stopAt)
		var sNS int64
		if !terminal && nev == 0 {
			// Blocked: wait for a neighbor to extend a promise.
			r.inbox.waitChange(seenSeq)
			sNS = sw.Lap()
			r.t.S += sNS
		}
		if probe != nil {
			rec = obs.RoundRecord{
				Round: iter, Worker: r.id, LBTS: safe,
				Events: uint64(nev),
				ProcNS: pNS, SyncNS: sNS, MsgNS: m1 + m2,
				Sends: sent, SendBytes: sent * obs.EventBytes,
				Recvs: recvd, FELDepth: uint64(r.Depth()),
			}
			probe.OnRound(&rec)
			iter++
		}
		if terminal {
			return
		}
	}
}
