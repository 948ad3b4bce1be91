package sim

import (
	"fmt"
	"math"
)

// Pause is one client of the pause hook: serial work every kernel runs at
// its quiescent points (Unison's phase 4, §5.1) — a round's end, fused
// rounds included; a timestamp boundary of the sequential kernel; an epoch
// end of null-message — with every worker parked. Its cadence says where;
// without one it runs at every pause a kernel takes for telemetry: every
// round, every progress block of the sequential kernel, every epoch end
// (null-message has epochs only when a client has an EveryTime).
type Pause struct {
	// Every is the cadence in the count its kernel keeps: every Every
	// rounds or, for the sequential kernel, at the first timestamp boundary
	// after every Every executed events. Null-message ignores it.
	Every uint64
	// EveryTime is the null-message cadence: the run quiesces at every
	// multiple of its clients' least EveryTime, and a client runs at the
	// multiples of its own. The other kernels ignore it.
	EveryTime Time
	// New makes the client's Pauser for one kernel run, dropped with it.
	New func() Pauser
}

// Pauser is a client's work at one pause: Start, then Job(i) for every i
// below the count Start returned — from any goroutines, in any order, at
// once — then Commit. Nothing ks names changes in between, nothing of ks
// is kept after Commit, and the result must not depend on who ran which
// job. scratch is the caller's own, passed back grown. A job's failure is
// Commit's to report; an error ends the run.
type Pauser interface {
	Start(ks *KernelState) (jobs int)
	Job(i int, scratch []Event) []Event
	Commit() error
}

// PauseFunc is a Pauser without jobs: its work is Start's.
type PauseFunc func(ks *KernelState)

func (f PauseFunc) Start(ks *KernelState) int { f(ks); return 0 }
func (PauseFunc) Job(int, []Event) []Event    { panic("sim: a PauseFunc has no jobs") }
func (PauseFunc) Commit() error               { return nil }

// PauseRun is the runner every kernel calls: it tracks when each client is
// next due; at a pause, Begin runs a client without jobs to its Commit,
// and the others' jobs are the kernel's to spread over its parked workers
// (Job) before Commit. A nil PauseRun has no client.
type PauseRun struct {
	who   string
	every uint64 // the kernel's cadence for clients without one; 0: epochs
	next  uint64 // the least count a client is due at
	cs    []pauseClient
	ks    KernelState
	open  []int // the clients of the open pause with jobs
	ends  []int // ends[j]: one past open[j]'s last job, counted over the pause
	buf   []Event
}

type pauseClient struct {
	Pause
	p    Pauser
	next uint64
}

// OpenPauses returns a run's runner over ps, nil without any. who prefixes
// errors; every is the kernel's cadence for a client without one (1 round,
// a block of sequential events; 0 for epochs); from is the count the run
// starts at; seqs, fels, fel and size are KernelState's (size is Len),
// fixed for the run.
func OpenPauses(who string, ps []Pause, every, from uint64, seqs []uint64, fels int, fel func(i int, dst []Event) []Event, size func(i int) int) *PauseRun {
	if len(ps) == 0 {
		return nil
	}
	r := &PauseRun{who: who, every: every, next: math.MaxUint64, ks: KernelState{Seqs: seqs, FELs: fels, FEL: fel, size: size}}
	for _, p := range ps {
		r.cs = append(r.cs, pauseClient{Pause: p, p: p.New()})
		r.schedule(&r.cs[len(r.cs)-1], from)
	}
	return r
}

// schedule sets when c is next due, last due at count n.
func (r *PauseRun) schedule(c *pauseClient, n uint64) {
	step := r.every
	if c.Every > 0 {
		step = c.Every
	}
	c.next = math.MaxUint64
	if r.every > 0 && (c.Every > 0 || c.EveryTime == 0) && n <= math.MaxUint64-step {
		c.next = n + step
	}
	r.next = min(r.next, c.next)
}

// Next is the least count at which a client is due.
func (r *PauseRun) Next() uint64 {
	if r == nil {
		return math.MaxUint64
	}
	return r.next
}

// Epoch is the length of the null-message epochs, 0 when no client has an
// EveryTime.
func (r *PauseRun) Epoch() (t Time) {
	for i := 0; r != nil && i < len(r.cs); i++ {
		if e := r.cs[i].EveryTime; e > 0 && (t == 0 || e < t) {
			t = e
		}
	}
	return t
}

// Numbered reports whether the sequential kernel counts the pause at n as
// a round: a client with a cadence of its own is due.
func (r *PauseRun) Numbered(n uint64) bool {
	for i := 0; r != nil && i < len(r.cs); i++ {
		if c := &r.cs[i]; c.Every > 0 && n >= c.next {
			return true
		}
	}
	return false
}

// Begin opens the pause at count n (at an epoch end: at time now) of the
// quiescent point the rest describe: every due client starts, in order,
// and one without jobs commits at once. It returns the others' jobs.
func (r *PauseRun) Begin(n, round, events uint64, now, end Time) (jobs int, err error) {
	r.ks.Round, r.ks.Events, r.ks.Now, r.ks.EndTime = round, events, now, end
	r.open, r.ends, r.next = r.open[:0], r.ends[:0], math.MaxUint64
	for i := range r.cs {
		c := &r.cs[i]
		due := n >= c.next
		if r.every == 0 {
			due = c.EveryTime > 0 && now%c.EveryTime == 0 || c.Every == 0 && c.EveryTime == 0
		}
		if !due {
			r.next = min(r.next, c.next)
			continue
		}
		r.schedule(c, n)
		if k := c.p.Start(&r.ks); k > 0 {
			jobs += k
			r.open, r.ends = append(r.open, i), append(r.ends, jobs)
		} else if err := c.p.Commit(); err != nil {
			return 0, fmt.Errorf("%s: %w", r.who, err)
		}
	}
	return jobs, nil
}

// Job runs job i of the open pause on the caller's scratch.
func (r *PauseRun) Job(i int, scratch []Event) []Event {
	j := 0
	for i >= r.ends[j] {
		j++
	}
	if j > 0 {
		i -= r.ends[j-1]
	}
	return r.cs[r.open[j]].p.Job(i, scratch)
}

// Commit closes the open pause once every job has returned.
func (r *PauseRun) Commit() error {
	for _, i := range r.open {
		if err := r.cs[i].p.Commit(); err != nil {
			return fmt.Errorf("%s: %w", r.who, err)
		}
	}
	return nil
}

// Pause runs the pause at count n on the calling goroutine alone.
func (r *PauseRun) Pause(n, round, events uint64, now, end Time) error {
	jobs, err := r.Begin(n, round, events, now, end)
	if err != nil {
		return err
	}
	for i := 0; i < jobs; i++ {
		r.buf = r.Job(i, r.buf)
	}
	return r.Commit()
}
