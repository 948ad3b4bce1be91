// Package live turns the telemetry a run already emits — obs RoundRecords
// published on an obs.Bus, netobs row deltas, dist sideband summaries —
// into a point-in-time Snapshot served over HTTP (JSON + SSE) for
// cmd/unimon and other watchers.
//
// Everything here runs OFF the simulation's hot path: kernels publish
// into the non-blocking bus and a consumer goroutine folds events into
// the State under its own lock. Wall-clock use is deliberate and legal —
// this package is not a simulation package (it is excluded from
// unisoncheck's wallclock set), and nothing in the simulation ever reads
// from it, so attached runs stay bit-identical to unattached runs.
package live

import (
	"math"
	"sort"
	"sync"
	"time"

	"unison/internal/netobs"
	"unison/internal/obs"
	"unison/internal/sim"
)

// SchemaV1 identifies the snapshot wire format.
const SchemaV1 = "unison-live/1"

// WorkerView is one worker's cumulative live counters plus its latest
// round sample.
type WorkerView struct {
	Worker int32  `json:"worker"`
	Rounds uint64 `json:"rounds"`
	Events uint64 `json:"events"`
	// ProcNS, SyncNS, MsgNS are cumulative; PShare/SShare/MShare are
	// their fractions of this worker's total (the P/S/M bars).
	ProcNS int64   `json:"proc_ns"`
	SyncNS int64   `json:"sync_ns"`
	MsgNS  int64   `json:"msg_ns"`
	PShare float64 `json:"p_share"`
	SShare float64 `json:"s_share"`
	MShare float64 `json:"m_share"`
	// FELDepth and LBTSNS are the latest round's values.
	FELDepth   uint64 `json:"fel_depth"`
	LBTSNS     int64  `json:"lbts_ns"`
	Migrations uint64 `json:"migrations"`
	// StragglerRounds counts rounds this worker was the round maximum
	// (filled when an ImbalanceTracker is attached).
	StragglerRounds uint64 `json:"straggler_rounds,omitempty"`
}

// RankView is one distributed rank's liveness row, maintained by the
// coordinator from sideband messages.
type RankView struct {
	Rank   int    `json:"rank"`
	Rounds uint64 `json:"rounds"`
	Events uint64 `json:"events"`
	// LastSeenSeconds is the wall time since the rank's last sideband
	// message; Alive reports it is under the staleness threshold.
	LastSeenSeconds float64 `json:"last_seen_seconds"`
	Alive           bool    `json:"alive"`
}

// QueueCell is one device's latest queue sample — a heatmap cell.
type QueueCell struct {
	Node     int64   `json:"node"`
	Link     int32   `json:"link"`
	Depth    int32   `json:"depth"`
	MaxDepth int32   `json:"max_depth"`
	Drops    uint64  `json:"drops"`
	Util     float64 `json:"util"`
	TickNS   int64   `json:"tick_ns"`
}

// Snapshot is the full live view served to watchers. Cumulative fields
// only ever grow; Done flips once and Final is set with it.
type Snapshot struct {
	Schema  string `json:"schema"`
	Tool    string `json:"tool"`
	Kernel  string `json:"kernel"`
	Workers int    `json:"workers"`
	LPs     int    `json:"lps"`

	// Progress: LBTSNS vs StopAtNS (when the run's end time is known),
	// wall-clock elapsed, and the extrapolated remaining wall time.
	StopAtNS       int64   `json:"stop_at_ns,omitempty"`
	LBTSNS         int64   `json:"lbts_ns"`
	Progress       float64 `json:"progress"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"` // -1 when unknown

	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Rounds       uint64  `json:"rounds"`
	FELDepth     uint64  `json:"fel_depth"`

	WorkerViews []WorkerView `json:"workers_view,omitempty"`
	Ranks       []RankView   `json:"ranks,omitempty"`
	Queues      []QueueCell  `json:"queues,omitempty"`

	// CkptAgeSeconds is the wall time since the last observed checkpoint
	// (-1: none taken yet).
	CkptAgeSeconds float64 `json:"ckpt_age_seconds"`

	BusDrops  uint64         `json:"bus_drops"`
	Imbalance *sim.Imbalance `json:"imbalance,omitempty"`

	Done  bool          `json:"done"`
	Final *sim.RunStats `json:"final,omitempty"`
}

// Scrub replaces any non-finite float in the snapshot with 0, in place,
// and returns the snapshot. encoding/json refuses NaN/Inf, and one bad
// ratio (a zero-time round, a clock step) must cost one number, not the
// whole snapshot: every marshal site calls Scrub first.
func (s *Snapshot) Scrub() *Snapshot {
	s.Progress = scrubF(s.Progress)
	s.ElapsedSeconds = scrubF(s.ElapsedSeconds)
	s.ETASeconds = scrubF(s.ETASeconds)
	s.EventsPerSec = scrubF(s.EventsPerSec)
	s.CkptAgeSeconds = scrubF(s.CkptAgeSeconds)
	for i := range s.WorkerViews {
		v := &s.WorkerViews[i]
		v.PShare, v.SShare, v.MShare = scrubF(v.PShare), scrubF(v.SShare), scrubF(v.MShare)
	}
	for i := range s.Ranks {
		s.Ranks[i].LastSeenSeconds = scrubF(s.Ranks[i].LastSeenSeconds)
	}
	for i := range s.Queues {
		s.Queues[i].Util = scrubF(s.Queues[i].Util)
	}
	scrubImbalance(s.Imbalance)
	if s.Final != nil {
		scrubImbalance(s.Final.Imbalance)
	}
	return s
}

func scrubImbalance(im *sim.Imbalance) {
	if im == nil {
		return
	}
	im.MeanMaxOverMean = scrubF(im.MeanMaxOverMean)
	im.WorstMaxOverMean = scrubF(im.WorstMaxOverMean)
	im.StragglerShare = scrubF(im.StragglerShare)
}

// scrubF maps NaN and ±Inf to 0.
func scrubF(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// maxQueueCells bounds the heatmap payload: the busiest cells win.
const maxQueueCells = 64

// rankStaleAfter is the liveness threshold for RankView.Alive.
const rankStaleAfter = 10 * time.Second

// evWindow is how far back the events/s rate looks.
const evWindow = 5 * time.Second

type workerAgg struct {
	rounds     uint64
	events     uint64
	procNS     int64
	syncNS     int64
	msgNS      int64
	felDepth   uint64
	lbts       sim.Time
	migrations uint64
}

type rankAgg struct {
	rounds   uint64
	events   uint64
	lastSeen time.Time
}

type qkey struct {
	node sim.NodeID
	link int32
}

type qcell struct {
	depth    int32
	maxDepth int32
	drops    uint64
	util     float64
	tick     sim.Time
}

type evSample struct {
	wall   time.Time
	events uint64
}

// State folds telemetry into the current live view. All methods are safe
// for concurrent use; feed it from a bus subscription via Consume, from
// dist sideband messages via IngestRecords/IngestRows/MarkRank, and
// finish with Finalize.
type State struct {
	mu        sync.Mutex
	tool      string
	stopAt    sim.Time
	startWall time.Time

	meta    obs.RunMeta
	workers []workerAgg
	ranks   map[int]*rankAgg
	queues  map[qkey]*qcell
	qiv     sim.Time // netobs bucket interval, for utilization

	events   uint64
	rounds   uint64
	lbts     sim.Time
	lastCkpt time.Time

	samples  []evSample // ring, for the events/s window
	sampleAt time.Time

	dropsFn   func() uint64
	imb       *obs.ImbalanceTracker
	final     *sim.RunStats
	done      bool
	finalOnce sync.Once
}

// NewState returns a State for one tool invocation. stopAt is the run's
// simulated end time when known (0 otherwise) — it drives progress/ETA.
func NewState(tool string, stopAt sim.Time) *State {
	return &State{
		tool:      tool,
		stopAt:    stopAt,
		startWall: time.Now(),
		ranks:     map[int]*rankAgg{},
		queues:    map[qkey]*qcell{},
	}
}

// SetDrops wires the bus drop counter into snapshots.
func (s *State) SetDrops(fn func() uint64) {
	s.mu.Lock()
	s.dropsFn = fn
	s.mu.Unlock()
}

// SetImbalance attaches the tracker whose live summary snapshots include.
func (s *State) SetImbalance(t *obs.ImbalanceTracker) {
	s.mu.Lock()
	s.imb = t
	s.mu.Unlock()
}

// SetQueueInterval tells the state the netobs bucket width so heatmap
// cells can report utilization.
func (s *State) SetQueueInterval(iv sim.Time) {
	s.mu.Lock()
	s.qiv = iv
	s.mu.Unlock()
}

// Consume drains a bus subscription into the state. Run it on its own
// goroutine; it returns when the subscription closes.
func (s *State) Consume(sub *obs.Sub) {
	for ev := range sub.C() {
		s.Ingest(ev)
	}
}

// Ingest folds one bus event into the state.
func (s *State) Ingest(ev obs.BusEvent) {
	switch ev.Kind {
	case obs.EvBegin:
		s.mu.Lock()
		s.meta = ev.Meta
		n := ev.Meta.Workers
		if n < 1 {
			n = 1
		}
		// A new BeginRun (uniexp -scenario runs kernels back to back)
		// resets the per-run view but keeps tool/stopAt wiring.
		s.workers = make([]workerAgg, n)
		s.events = 0
		s.rounds = 0
		s.lbts = 0
		s.samples = nil
		s.startWall = time.Now()
		s.mu.Unlock()
	case obs.EvRound:
		rec := ev.Rec
		s.ingestRecord(&rec)
	case obs.EvEnd:
		// Final stats are stamped via Finalize by the CLI after the
		// imbalance pass, so the snapshot's Final matches run_stats.json
		// field for field; the bus EvEnd only marks arrival.
	}
}

// IngestRecords folds sideband round records (dist coordinator path).
func (s *State) IngestRecords(recs []obs.RoundRecord) {
	for i := range recs {
		s.ingestRecord(&recs[i])
	}
}

func (s *State) ingestRecord(rec *obs.RoundRecord) {
	s.mu.Lock()
	w := int(rec.Worker)
	if w >= len(s.workers) {
		grown := make([]workerAgg, w+1)
		copy(grown, s.workers)
		s.workers = grown
	}
	if w >= 0 {
		a := &s.workers[w]
		a.rounds++
		a.events += rec.Events
		a.procNS += rec.ProcNS
		a.syncNS += rec.SyncNS
		a.msgNS += rec.MsgNS
		a.felDepth = rec.FELDepth
		a.migrations += rec.Migrations
		if rec.LBTS != sim.MaxTime && rec.LBTS > a.lbts {
			a.lbts = rec.LBTS
		}
	}
	s.events += rec.Events
	if rec.Round+1 > s.rounds {
		s.rounds = rec.Round + 1
	}
	if rec.LBTS != sim.MaxTime && rec.LBTS > s.lbts {
		s.lbts = rec.LBTS
	}
	if rec.CkptNS > 0 {
		s.lastCkpt = time.Now()
	}
	now := time.Now()
	if s.sampleAt.IsZero() || now.Sub(s.sampleAt) >= 100*time.Millisecond {
		s.sampleAt = now
		s.samples = append(s.samples, evSample{wall: now, events: s.events})
		if len(s.samples) > 64 {
			s.samples = s.samples[len(s.samples)-64:]
		}
	}
	s.mu.Unlock()
}

// IngestRows folds netobs row deltas into the queue heatmap.
func (s *State) IngestRows(rows []netobs.Row) {
	s.mu.Lock()
	iv := s.qiv
	for i := range rows {
		r := &rows[i]
		k := qkey{node: r.Node, link: r.Link}
		c := s.queues[k]
		if c == nil {
			c = &qcell{}
			s.queues[k] = c
		}
		if r.Tick >= c.tick {
			c.tick = r.Tick
			c.depth = r.Depth
			c.util = r.Utilization(iv)
		}
		if r.MaxDepth > c.maxDepth {
			c.maxDepth = r.MaxDepth
		}
		c.drops += uint64(r.Drops)
	}
	s.mu.Unlock()
}

// MarkRank records a sideband message from a distributed rank: its local
// round count, cumulative events, and (implicitly) liveness.
func (s *State) MarkRank(rank int, rounds, events uint64) {
	s.mu.Lock()
	a := s.ranks[rank]
	if a == nil {
		a = &rankAgg{}
		s.ranks[rank] = a
	}
	if rounds > a.rounds {
		a.rounds = rounds
	}
	if events > a.events {
		a.events = events
	}
	a.lastSeen = time.Now()
	s.mu.Unlock()
}

// Finalize stamps the run's final stats (after the imbalance pass wrote
// into them) and marks the view done. The first call wins.
func (s *State) Finalize(st *sim.RunStats) {
	s.finalOnce.Do(func() {
		s.mu.Lock()
		s.final = st
		s.done = true
		s.mu.Unlock()
	})
}

// Snapshot assembles the current live view.
func (s *State) Snapshot() Snapshot {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := Snapshot{
		Schema:         SchemaV1,
		Tool:           s.tool,
		Kernel:         s.meta.Kernel,
		Workers:        s.meta.Workers,
		LPs:            s.meta.LPs,
		StopAtNS:       int64(s.stopAt),
		LBTSNS:         int64(s.lbts),
		ElapsedSeconds: now.Sub(s.startWall).Seconds(),
		Events:         s.events,
		Rounds:         s.rounds,
		ETASeconds:     -1,
		CkptAgeSeconds: -1,
		Done:           s.done,
		Final:          s.final,
	}
	if s.stopAt > 0 {
		p := float64(s.lbts) / float64(s.stopAt)
		if p > 1 {
			p = 1
		}
		snap.Progress = p
		if s.done {
			snap.Progress = 1
		}
		if p > 0 && p < 1 && !s.done {
			snap.ETASeconds = snap.ElapsedSeconds * (1 - p) / p
		}
	}
	if s.done {
		snap.ETASeconds = 0
	}
	if !s.lastCkpt.IsZero() {
		snap.CkptAgeSeconds = now.Sub(s.lastCkpt).Seconds()
	}

	// events/s over the recent window (whole run when the window is thin).
	if n := len(s.samples); n > 0 {
		base := evSample{wall: s.startWall, events: 0}
		for i := n - 1; i >= 0; i-- {
			if now.Sub(s.samples[i].wall) > evWindow {
				base = s.samples[i]
				break
			}
		}
		if dt := now.Sub(base.wall).Seconds(); dt > 0 {
			snap.EventsPerSec = float64(s.events-base.events) / dt
		}
	}

	var straggler []uint64
	if s.imb != nil {
		straggler = s.imb.StragglerRounds(len(s.workers))
		snap.Imbalance = s.imb.Summary()
	}
	for i := range s.workers {
		a := &s.workers[i]
		v := WorkerView{
			Worker:     int32(i),
			Rounds:     a.rounds,
			Events:     a.events,
			ProcNS:     a.procNS,
			SyncNS:     a.syncNS,
			MsgNS:      a.msgNS,
			FELDepth:   a.felDepth,
			LBTSNS:     int64(a.lbts),
			Migrations: a.migrations,
		}
		if straggler != nil {
			v.StragglerRounds = straggler[i]
		}
		if tot := a.procNS + a.syncNS + a.msgNS; tot > 0 {
			v.PShare = float64(a.procNS) / float64(tot)
			v.SShare = float64(a.syncNS) / float64(tot)
			v.MShare = float64(a.msgNS) / float64(tot)
		}
		snap.FELDepth += a.felDepth
		snap.WorkerViews = append(snap.WorkerViews, v)
	}

	if len(s.ranks) > 0 {
		ranks := make([]int, 0, len(s.ranks))
		for r := range s.ranks { //unison:ordered keys sorted below
			ranks = append(ranks, r)
		}
		sortInts(ranks)
		for _, r := range ranks {
			a := s.ranks[r]
			age := now.Sub(a.lastSeen)
			snap.Ranks = append(snap.Ranks, RankView{
				Rank:            r,
				Rounds:          a.rounds,
				Events:          a.events,
				LastSeenSeconds: age.Seconds(),
				Alive:           age < rankStaleAfter,
			})
		}
	}

	if len(s.queues) > 0 {
		cells := make([]QueueCell, 0, len(s.queues))
		for k, c := range s.queues { //unison:ordered cells sorted below
			cells = append(cells, QueueCell{
				Node:     int64(k.node),
				Link:     k.link,
				Depth:    c.depth,
				MaxDepth: c.maxDepth,
				Drops:    c.drops,
				Util:     c.util,
				TickNS:   int64(c.tick),
			})
		}
		sortCells(cells)
		if len(cells) > maxQueueCells {
			cells = cells[:maxQueueCells]
		}
		snap.Queues = cells
	}

	if s.dropsFn != nil {
		snap.BusDrops = s.dropsFn()
	}
	return snap
}

func sortInts(xs []int) { sort.Ints(xs) }

// sortCells orders heatmap cells busiest-first: depth, then drops, then
// (node, link) for a stable tail.
func sortCells(cells []QueueCell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := &cells[i], &cells[j]
		if a.Depth != b.Depth {
			return a.Depth > b.Depth
		}
		if a.Drops != b.Drops {
			return a.Drops > b.Drops
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Link < b.Link
	})
}
