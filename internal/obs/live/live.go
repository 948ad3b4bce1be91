// Package live turns the telemetry a run already emits — the per-worker
// totals an obs.Registry folds from its RoundRecords, netobs row deltas,
// dist sideband liveness — into a point-in-time Snapshot served over HTTP
// (JSON + SSE) for cmd/unimon and other watchers.
//
// Everything here runs OFF the simulation's hot path: a snapshot is built
// when a watcher asks for one, by reading the Registry and the imbalance
// tracker under their own locks. Wall-clock use is deliberate and legal —
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
	// StragglerRounds counts rounds this worker was the round maximum.
	StragglerRounds uint64 `json:"straggler_rounds,omitempty"`
}

// RankView is one distributed rank's row: its rounds and events from its
// lane of the coordinator's Registry, its liveness from sideband arrivals.
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

// State is the live view. Snapshots are built from a Registry's per-worker
// totals and an ImbalanceTracker; the State itself keeps only what no probe
// sees: the netobs queue heatmap (IngestRows), dist rank liveness
// (MarkRank) and the final stats (Finalize). All methods are safe for
// concurrent use.
type State struct {
	mu     sync.Mutex
	tool   string
	stopAt sim.Time
	reg    *obs.Registry
	imb    *obs.ImbalanceTracker

	ranks  map[int]time.Time // rank -> wall time of its last sideband message
	queues map[qkey]*qcell
	qiv    sim.Time // netobs bucket interval, for utilization

	samples []evSample // the events/s window, sampled as snapshots are built
	run     time.Time  // the run start the samples belong to

	final     *sim.RunStats
	done      bool
	finalOnce sync.Once
}

// NewState returns a State for one tool invocation reading reg and imb.
// stopAt is the run's simulated end time when known (0 otherwise) — it
// drives progress/ETA.
func NewState(tool string, stopAt sim.Time, reg *obs.Registry, imb *obs.ImbalanceTracker) *State {
	return &State{
		tool:   tool,
		stopAt: stopAt,
		reg:    reg,
		imb:    imb,
		ranks:  map[int]time.Time{},
		queues: map[qkey]*qcell{},
	}
}

// SetQueueInterval tells the state the netobs bucket width so heatmap
// cells can report utilization.
func (s *State) SetQueueInterval(iv sim.Time) {
	s.mu.Lock()
	s.qiv = iv
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

// MarkRank records that a sideband message from a distributed rank just
// arrived: the rank's liveness.
func (s *State) MarkRank(rank int) {
	s.mu.Lock()
	s.ranks[rank] = time.Now()
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
	meta := s.reg.Meta()
	lanes, begun, _ := s.reg.Totals()
	straggler := s.imb.StragglerRounds(len(lanes))
	im := s.imb.Summary()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := Snapshot{
		Schema:         SchemaV1,
		Tool:           s.tool,
		Kernel:         meta.Kernel,
		Workers:        meta.Workers,
		LPs:            meta.LPs,
		StopAtNS:       int64(s.stopAt),
		ETASeconds:     -1,
		CkptAgeSeconds: -1,
		Imbalance:      im,
		Done:           s.done,
		Final:          s.final,
	}
	var lbts sim.Time
	var lastCkpt time.Time
	for i := range lanes {
		w := &lanes[i]
		v := WorkerView{
			Worker:          int32(i),
			Rounds:          w.Records,
			Events:          w.Events,
			ProcNS:          w.ProcNS,
			SyncNS:          w.SyncNS,
			MsgNS:           w.MsgNS,
			FELDepth:        w.FELDepth,
			LBTSNS:          int64(w.LBTS),
			Migrations:      w.Migrations,
			StragglerRounds: straggler[i],
		}
		if tot := w.ProcNS + w.SyncNS + w.MsgNS; tot > 0 {
			v.PShare = float64(w.ProcNS) / float64(tot)
			v.SShare = float64(w.SyncNS) / float64(tot)
			v.MShare = float64(w.MsgNS) / float64(tot)
		}
		snap.WorkerViews = append(snap.WorkerViews, v)
		snap.Events += w.Events
		snap.FELDepth += w.FELDepth
		if w.Records > 0 {
			snap.Rounds = max(snap.Rounds, w.Round+1)
		}
		lbts = max(lbts, w.LBTS)
		if w.CkptAt.After(lastCkpt) {
			lastCkpt = w.CkptAt
		}
	}
	snap.LBTSNS = int64(lbts)
	if !begun.IsZero() {
		snap.ElapsedSeconds = now.Sub(begun).Seconds()
	}
	if s.stopAt > 0 {
		p := min(float64(lbts)/float64(s.stopAt), 1)
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
	if !lastCkpt.IsZero() {
		snap.CkptAgeSeconds = now.Sub(lastCkpt).Seconds()
	}
	snap.EventsPerSec = s.rate(now, begun, snap.Events)

	if len(s.ranks) > 0 {
		ranks := make([]int, 0, len(s.ranks))
		for r := range s.ranks { //unison:ordered keys sorted below
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			age := now.Sub(s.ranks[r])
			v := RankView{Rank: r, LastSeenSeconds: age.Seconds(), Alive: age < rankStaleAfter}
			if r >= 0 && r < len(lanes) {
				v.Rounds, v.Events = lanes[r].Records, lanes[r].Events
			}
			snap.Ranks = append(snap.Ranks, v)
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
	return snap
}

// rate returns events/s over the recent window (the whole run while the
// window is thin) and keeps a sample of events at most every 100 ms. The
// samples start over when start, the run's BeginRun, moves.
func (s *State) rate(now, start time.Time, events uint64) float64 {
	if !start.Equal(s.run) {
		s.run, s.samples = start, s.samples[:0]
	}
	base := evSample{wall: start}
	for i := len(s.samples) - 1; i >= 0; i-- {
		if now.Sub(s.samples[i].wall) > evWindow {
			base = s.samples[i]
			break
		}
	}
	if n := len(s.samples); n == 0 || now.Sub(s.samples[n-1].wall) >= 100*time.Millisecond {
		s.samples = append(s.samples, evSample{wall: now, events: events})
		if len(s.samples) > 64 {
			s.samples = s.samples[len(s.samples)-64:]
		}
	}
	if dt := now.Sub(base.wall).Seconds(); dt > 0 {
		return float64(events-base.events) / dt
	}
	return 0
}

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
