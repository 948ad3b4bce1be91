// Package netobs is the simulation-domain observability layer: while
// internal/obs makes the *kernel* observable (per-round worker telemetry),
// this package makes the simulated *network* observable — per-queue depth,
// drop and ECN-mark time series, per-link utilization, pcapng and Perfetto
// exports of packet traces and flows, and the run-artifact bundle that
// makes a paper figure reproducible from one directory.
//
// Determinism contract (pinned by the root netobs equivalence tests):
// samplers piggyback on the deterministic event stream — every sample is
// taken from a device's own events, devices are single-owner per LP, and
// rows are merged in (tick, node, link) order — so series.csv,
// trace.pcapng and flow_report.json are byte-identical across every
// kernel (sequential DES, Unison live and hybrid, barrier, null-message,
// and multi-rank distributed runs) for the same seeded scenario. A
// disabled sampler costs one nil-check per queue operation and nothing
// else, so sampler-disabled runs are bit-identical to pre-netobs output.
package netobs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"unison/internal/sim"
)

// DefaultInterval is the sampling bucket width used when a SamplerConfig
// leaves Interval zero: fine enough to resolve incast bursts, coarse
// enough that a millisecond-scale run stays a few rows per device.
const DefaultInterval = 100 * sim.Microsecond

// SamplerConfig parameterizes a Sampler.
type SamplerConfig struct {
	// Interval is the bucket width in simulated time (DefaultInterval
	// when <= 0). All devices share one absolute bucket grid
	// (tick = t - t mod Interval), so rows align across devices.
	Interval sim.Time
}

// Row is one device's sample for one time bucket: queue-depth and
// counter deltas over [Tick, Tick+Interval). Rows are value types with
// exported fields so the distributed kernel can gob-ship them at gather.
type Row struct {
	// Tick is the bucket start in simulated nanoseconds.
	Tick sim.Time `json:"tick"`
	// Node and Link identify the device (one device per (node, link)).
	Node sim.NodeID `json:"node"`
	Link int32      `json:"link"`
	// Depth is the queue occupancy in packets when the bucket closed;
	// MaxDepth is the highest occupancy observed within the bucket.
	Depth    int32 `json:"depth"`
	MaxDepth int32 `json:"max_depth"`
	// Enqueues, Dequeues, Drops, Marks count queue operations within the
	// bucket. Drops include tail/AQM drops at enqueue and link-down
	// drops; CoDel head drops surface as depth deltas.
	Enqueues uint32 `json:"enqueues"`
	Dequeues uint32 `json:"dequeues"`
	Drops    uint32 `json:"drops"`
	Marks    uint32 `json:"marks"`
	// TxBytes is the on-wire bytes that began transmission within the
	// bucket; BW is the link bandwidth in bits/s, so exporters can
	// derive utilization = TxBytes*8 / (Interval * BW).
	TxBytes uint64 `json:"tx_bytes"`
	BW      int64  `json:"bw"`
}

// Utilization returns the link utilization of the bucket in [0, ~1].
func (r *Row) Utilization(interval sim.Time) float64 {
	if r.BW <= 0 || interval <= 0 {
		return 0
	}
	return float64(r.TxBytes*8) / (interval.Seconds() * float64(r.BW))
}

// DevProbe is one device's sampling slot. It is owned by the device's
// node: every method is only called from events executing on that node,
// so probes need no synchronization under any kernel (the same
// single-owner discipline as trace.Collector and flowmon.Monitor).
type DevProbe struct {
	node     sim.NodeID //unison:ckpt-skip identity, re-established by Register at attach time
	link     int32      //unison:ckpt-skip identity, re-established by Register at attach time
	bw       int64      //unison:ckpt-skip topology config, re-established by Register
	interval sim.Time   //unison:ckpt-skip sampler config, re-established by Register

	tick    sim.Time // current bucket start
	active  bool     // current bucket saw at least one operation
	cur     Row
	rows    []Row
	shipped int //unison:ckpt-skip rows already handed out by Sampler.LiveDelta; a run's feed starts it over
}

// roll closes the current bucket if t has moved past it and opens the
// bucket containing t. Buckets with no operations are skipped, not
// emitted: a standing queue always has transmission events, so silent
// gaps mean an empty, idle device.
func (p *DevProbe) roll(t sim.Time) {
	if t < p.tick+p.interval {
		return
	}
	if p.active {
		p.rows = append(p.rows, p.cur)
		p.active = false
	}
	p.tick = t - t%p.interval
	p.cur = Row{Tick: p.tick, Node: p.node, Link: p.link, BW: p.bw}
}

func (p *DevProbe) touch(t sim.Time, depth int32) {
	p.roll(t)
	p.active = true
	p.cur.Depth = depth
	if depth > p.cur.MaxDepth {
		p.cur.MaxDepth = depth
	}
}

// OnEnqueue records a packet entering the queue; depth is the occupancy
// after the operation. marked reports an ECN CE mark applied on entry.
func (p *DevProbe) OnEnqueue(t sim.Time, depth int32, marked bool) {
	p.touch(t, depth)
	p.cur.Enqueues++
	if marked {
		p.cur.Marks++
	}
}

// OnDequeue records a packet leaving the queue and starting transmission.
func (p *DevProbe) OnDequeue(t sim.Time, depth int32, bytes int32) {
	p.touch(t, depth)
	p.cur.Dequeues++
	p.cur.TxBytes += uint64(bytes)
}

// OnDrop records a discarded packet (queue overflow, AQM early drop, or
// a down link).
func (p *DevProbe) OnDrop(t sim.Time, depth int32) {
	p.touch(t, depth)
	p.cur.Drops++
}

// flush closes the final (partial) bucket.
func (p *DevProbe) flush() {
	if p.active {
		p.rows = append(p.rows, p.cur)
		p.active = false
	}
}

// Sampler owns the per-device probes of one network. Register is called
// during attachment (before the run); Rows and Flush after it.
type Sampler struct {
	interval sim.Time //unison:ckpt-skip config, fixed at NewSampler
	devs     []*DevProbe
	flushed  bool
}

// NewSampler returns a sampler with the given configuration.
func NewSampler(cfg SamplerConfig) *Sampler {
	iv := cfg.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	return &Sampler{interval: iv}
}

// Interval returns the bucket width.
func (s *Sampler) Interval() sim.Time { return s.interval }

// Register creates the probe of one device. Called once per device at
// attachment time (netdev.Network.AttachSampler).
func (s *Sampler) Register(node sim.NodeID, link int32, bw int64) *DevProbe {
	p := &DevProbe{
		node: node, link: link, bw: bw, interval: s.interval,
		cur: Row{Node: node, Link: link, BW: bw},
	}
	s.devs = append(s.devs, p)
	return p
}

// Flush closes every device's final partial bucket. Call once, after the
// run completes (all workers quiescent) and before Rows.
func (s *Sampler) Flush() {
	if s.flushed {
		return
	}
	s.flushed = true
	for _, p := range s.devs {
		p.flush()
	}
}

// Rows returns every emitted sample merged in (Tick, Node, Link) order —
// a deterministic total order, since exactly one device exists per
// (node, link). Call after Flush.
func (s *Sampler) Rows() []Row {
	var out []Row
	for _, p := range s.devs {
		out = append(out, p.rows...)
	}
	SortRows(out)
	return out
}

// LiveDelta returns the rows closed since the previous LiveDelta call, in
// canonical order. It never touches open buckets, so the final Flush+Rows
// set is byte-identical whether or not LiveDelta was ever called — the
// property the live-telemetry bit-identity tests pin. Probes are owned by
// node events, so LiveDelta may only run at quiescent points: in a pause
// of the kernel (Feed) or after the run completes.
func (s *Sampler) LiveDelta() []Row {
	var out []Row
	for _, p := range s.devs {
		if n := len(p.rows); n > p.shipped {
			out = append(out, p.rows[p.shipped:n]...)
			p.shipped = n
		}
	}
	SortRows(out)
	return out
}

// Feed hands sink the rows s closes while a run goes. p is the pause
// client (sim.Pause) that, at every pause a kernel takes for telemetry,
// passes on the rows closed since the last; finish, once the run is over,
// flushes s and passes on the rest. A kernel run starts the feed over: its
// sink (a new stream, a new coordinator) has seen none of a restored
// sampler's rows.
func (s *Sampler) Feed(sink func([]Row)) (p sim.Pause, finish func()) {
	feed := func(*sim.KernelState) {
		if rows := s.LiveDelta(); len(rows) > 0 {
			sink(rows)
		}
	}
	p.New = func() sim.Pauser {
		for _, d := range s.devs {
			d.shipped = 0
		}
		return sim.PauseFunc(feed)
	}
	return p, func() { s.Flush(); feed(nil) }
}

// SortRows sorts rows in the canonical (Tick, Node, Link) order.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Link < b.Link
	})
}

// csvHeader is the stable column contract of series.csv.
const csvHeader = "tick_ns,node,link,depth,max_depth,enqueues,dequeues,drops,marks,tx_bytes,utilization\n"

// WriteCSV renders rows (in canonical order) as series.csv: one line per
// (bucket, device) with a trailing utilization column derived from the
// sampler interval. The output is a pure function of rows and interval,
// hence byte-identical across kernels.
func WriteCSV(w io.Writer, rows []Row, interval sim.Time) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	for i := range rows {
		r := &rows[i]
		line := fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			int64(r.Tick), r.Node, r.Link, r.Depth, r.MaxDepth,
			r.Enqueues, r.Dequeues, r.Drops, r.Marks, r.TxBytes,
			strconv.FormatFloat(r.Utilization(interval), 'f', 6, 64))
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}
