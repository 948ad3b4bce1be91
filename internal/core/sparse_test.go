package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/topology"
	"unison/internal/vtime"
)

// The models here keep most LPs idle most of the time, which is when the
// round engine visits only the LPs on its run and receive lists: a kernel
// that loses track of an LP — one a global event inserted into, one the
// window only reaches after a long sleep, one restored from a checkpoint —
// drops or delays that LP's events, and the event log shows it.

// logged is one executed event.
type logged struct {
	at  sim.Time
	tag int32
}

// evLog records what ran: per node in execution order (a node belongs to
// one LP, so only one worker at a time appends to its slice), and the
// global events, which run in a serial section.
type evLog struct {
	node   [][]logged
	global []logged
}

func newEvLog(nodes int) *evLog { return &evLog{node: make([][]logged, nodes)} }

func (l *evLog) note(ctx *sim.Ctx, tag int32) {
	if n := ctx.Node(); n == sim.GlobalNode {
		l.global = append(l.global, logged{ctx.Now(), tag})
	} else {
		l.node[n] = append(l.node[n], logged{ctx.Now(), tag})
	}
}

func (l *evLog) total() (n uint64) {
	for _, evs := range l.node {
		n += uint64(len(evs))
	}
	return n + uint64(len(l.global))
}

// endsWith checks that l is, node by node, the tail of want: what a run
// restored from a snapshot must execute.
func (l *evLog) endsWith(want *evLog) error {
	tail := func(what string, got, want []logged) error {
		if len(got) > len(want) || !slices.Equal(got, want[len(want)-len(got):]) {
			return fmt.Errorf("%s ran %v, want a tail of %v", what, got, want)
		}
		return nil
	}
	for n := range want.node {
		if err := tail(fmt.Sprintf("node %d", n), l.node[n], want.node[n]); err != nil {
			return err
		}
	}
	return tail("the public LP", l.global, want.global)
}

// equals checks that l and want, and the two runs' statistics, agree event
// for event.
func (l *evLog) equals(want *evLog, st, wantSt *sim.RunStats) error {
	if st.Events != wantSt.Events || st.EndTime != wantSt.EndTime {
		return fmt.Errorf("events=%d end=%v, des has events=%d end=%v", st.Events, st.EndTime, wantSt.Events, wantSt.EndTime)
	}
	if l.total() != want.total() {
		return fmt.Errorf("%d events ran, want %d", l.total(), want.total())
	}
	return l.endsWith(want)
}

// sparseModel is a chain of n nodes, one LP each, where a single token
// bounces over the middle link (so across the two hosts or ranks of the
// split shapes) and everything else is idle except:
//
//   - every token event schedules an echo on its own node inside the window;
//   - two sleepers wait on otherwise idle nodes, one until the token's
//     middle age, one until long after everything else has ended;
//   - a global event in the token's middle age inserts a walker directly
//     onto the last node, idle since the start, 3 ns after the boundary;
//     it walks five hops down the chain. That global event schedules a
//     second one, which inserts an echo onto node 0.
//
// Every handler is a function of (node, now) alone, so a snapshot's events
// can be replayed into a fresh log.
type sparseModel struct {
	*sim.Model
	log *evLog
	// chain rebuilds a genModel event's handler from its descriptor.
	chain func(ttl int) sim.Proc
}

func newSparseModel(n int, d sim.Time) *sparseModel {
	sm := &sparseModel{log: newEvLog(n)}
	a, b := sim.NodeID(n/2-1), sim.NodeID(n/2)
	until := 120 * d
	var bounce, echo, walk sim.Proc
	bounce = func(ctx *sim.Ctx) {
		sm.log.note(ctx, 1)
		if ctx.Now() < until {
			ctx.ScheduleDesc(d, a+b-ctx.Node(), bounce, testDesc{})
			ctx.ScheduleDesc(d/3, ctx.Node(), echo, testDesc{})
		}
	}
	echo = func(ctx *sim.Ctx) { sm.log.note(ctx, 2) }
	walk = func(ctx *sim.Ctx) {
		sm.log.note(ctx, 3)
		if ctx.Node() > sim.NodeID(n-6) {
			ctx.ScheduleDesc(d, ctx.Node()-1, walk, testDesc{})
		}
	}
	s := sim.NewSetup()
	s.AtDesc(0, a, bounce, testDesc{})
	s.AtDesc(70*d+7, 2, echo, testDesc{})
	s.AtDesc(200*d, 5, echo, testDesc{})
	s.GlobalDesc(50*d+d/2, func(ctx *sim.Ctx) {
		sm.log.note(ctx, 4)
		ctx.ScheduleDesc(3, sim.NodeID(n-1), walk, testDesc{})
		ctx.ScheduleGlobalDesc(ctx.Now()+20*d, func(ctx *sim.Ctx) {
			sm.log.note(ctx, 5)
			ctx.ScheduleDesc(1, 0, echo, testDesc{})
		}, testDesc{})
	}, testDesc{})
	sm.Model = &sim.Model{Nodes: n, Links: lineTopo(n, d).LinkInfos, Init: s.Events()}
	return sm
}

// sparseRef is the sparse model's sequential run.
func sparseRef(t *testing.T, n int, d sim.Time) (*evLog, *sim.RunStats) {
	t.Helper()
	ref := newSparseModel(n, d)
	st, err := des.New().Run(ref.Model)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != ref.log.total() {
		t.Fatalf("des ran %d events, logged %d", st.Events, ref.log.total())
	}
	return ref.log, st
}

// dice is a splitmix64 stream.
type dice uint64

// n draws from [0, k).
func (d *dice) n(k int) int {
	*d += 0x9e3779b97f4a7c15
	x := uint64(*d)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int((x ^ x>>31) % uint64(k))
}

// chainDesc describes a genModel chain event by its remaining hops, which is
// all its handler is a function of.
type chainDesc int

func (chainDesc) CkptKind() uint16             { return 0xfffd }
func (chainDesc) CkptEncode(buf []byte) []byte { return buf }

// genModel is a seeded random model: a random connected graph whose link
// delays are the lookahead, a few multiples of it, or a little more than
// it (so Algorithm 1 merges some nodes and cuts others), seeded with event
// chains that hop across links at exactly the link's delay or later, stay
// on their node, or fork, and with global events that insert chains
// directly onto random nodes and schedule further global events.
func genModel(seed int64) *sparseModel { return genRankModel(seed, nil) }

// genRankModel is genModel as one rank of a distributed run builds it:
// remote, when non-nil, is the model's data plane — it is offered every hop
// over a link and takes those that leave the rank — and the model has no
// global events, which a rank does not run.
func genRankModel(seed int64, remote func(ctx *sim.Ctx, at sim.Time, to sim.NodeID, ttl int) bool) *sparseModel {
	r := rand.New(rand.NewSource(seed))
	n := 8 + r.Intn(72)
	const la = 400
	delay := func() sim.Time {
		switch r.Intn(4) {
		case 0:
			return la + sim.Time(r.Intn(la))
		case 1:
			return la * sim.Time(2+r.Intn(3))
		default:
			return la
		}
	}
	g := topology.New()
	for i := 0; i < n; i++ {
		g.AddNode(topology.Host, "h")
	}
	for i := 1; i < n; i++ {
		g.AddLink(sim.NodeID(r.Intn(i)), sim.NodeID(i), 1e9, delay())
	}
	for i := r.Intn(n); i > 0; i-- {
		if a, b := r.Intn(n), r.Intn(n); a != b && g.LinkBetween(sim.NodeID(a), sim.NodeID(b)) < 0 {
			g.AddLink(sim.NodeID(a), sim.NodeID(b), 1e9, delay())
		}
	}
	sm := &sparseModel{log: newEvLog(n)}
	// What an event does is drawn from a hash of where and when it runs, so
	// every kernel makes the same draws whatever order it runs LPs in.
	draw := func(ctx *sim.Ctx, ttl int) *dice {
		d := dice(uint64(seed)<<48 ^ uint64(ctx.Node())<<32 ^ uint64(ctx.Now())<<8 ^ uint64(ttl))
		return &d
	}
	var chain func(ttl int) sim.Proc
	// hop continues a chain from the running event: over a link, at exactly
	// the link's delay or later, or on the same node, inside the window.
	hop := func(ctx *sim.Ctx, d *dice, ttl int) {
		if nbrs := g.Neighbors(ctx.Node()); d.n(3) > 0 && len(nbrs) > 0 {
			to := nbrs[d.n(len(nbrs))]
			link := g.Links[g.LinkBetween(ctx.Node(), to)]
			at := ctx.Now() + link.Delay + sim.Time(d.n(2)*d.n(3*la))
			if remote == nil || !remote(ctx, at, to, ttl) {
				ctx.ScheduleAtDesc(at, to, chain(ttl), chainDesc(ttl))
			}
		} else {
			ctx.ScheduleDesc(sim.Time(d.n(2*la)), ctx.Node(), chain(ttl), chainDesc(ttl))
		}
	}
	chain = func(ttl int) sim.Proc {
		return func(ctx *sim.Ctx) {
			sm.log.note(ctx, int32(ttl))
			if ttl == 0 {
				return
			}
			d := draw(ctx, ttl)
			hop(ctx, d, ttl-1)
			if d.n(8) == 0 {
				hop(ctx, d, ttl/3)
			}
		}
	}
	var global func(ttl int) sim.Proc
	global = func(ttl int) sim.Proc {
		return func(ctx *sim.Ctx) {
			sm.log.note(ctx, int32(-ttl))
			d := draw(ctx, ttl)
			for i := d.n(3); i >= 0; i-- {
				ctx.Schedule(sim.Time(d.n(la)), sim.NodeID(d.n(n)), chain(1+d.n(40)))
			}
			if ttl > 0 {
				ctx.ScheduleGlobal(ctx.Now()+sim.Time(1+d.n(60*la)), global(ttl-1))
			}
		}
	}
	s := sim.NewSetup()
	for i := 1 + r.Intn(2); i > 0; i-- {
		ttl := 20 + r.Intn(100)
		s.AtDesc(sim.Time(r.Intn(30*la)), sim.NodeID(r.Intn(n)), chain(ttl), chainDesc(ttl))
	}
	for i := r.Intn(3); i > 0 && remote == nil; i-- {
		s.Global(sim.Time(1+r.Intn(100*la)), global(r.Intn(4)))
	}
	sm.Model, sm.chain = &sim.Model{Nodes: n, Links: g.LinkInfos, Init: s.Events()}, chain
	return sm
}

// TestSparseActivityEqualsDES: on seeded random models where few LPs are
// active in a round, every driver and shape of the round engine, under
// every scheduling metric, executes the events the sequential kernel does.
func TestSparseActivityEqualsDES(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		ref := genModel(seed)
		want, err := des.New().Run(ref.Model)
		if err != nil {
			t.Fatal(err)
		}
		n := ref.Nodes
		r := rand.New(rand.NewSource(-seed))
		random := func(k int) []int32 {
			of := make([]int32, n)
			for i := range of {
				of[i] = int32(r.Intn(k))
			}
			return of
		}
		metric := core.Metric(r.Intn(3))
		period := r.Intn(4)
		kernels := []struct {
			name string
			run  func(m *sim.Model) (*sim.RunStats, error)
		}{
			{"unison", core.New(core.Config{Threads: 1 + r.Intn(3), Metric: metric, Period: period}).Run},
			{"hybrid", core.NewHybrid(core.HybridConfig{HostOf: random(2 + r.Intn(2)), ThreadsPerHost: 1 + r.Intn(2),
				Metric: metric, Period: period}).Run},
			{"barrier", (&pdes.BarrierKernel{LPOf: random(2 + r.Intn(3))}).Run},
			{"v-unison", func(m *sim.Model) (*sim.RunStats, error) {
				return vtime.Run(m, vtime.Config{Algo: vtime.Unison, Cores: 1 + r.Intn(4), Metric: metric, Period: period})
			}},
			{"v-hybrid", func(m *sim.Model) (*sim.RunStats, error) {
				return vtime.Run(m, vtime.Config{Algo: vtime.Hybrid, HostOf: random(2), CoresPerHost: 2, Metric: metric, Period: period})
			}},
		}
		for k := range kernels {
			got := genModel(seed)
			st, err := kernels[k].run(got.Model)
			if err == nil {
				err = got.log.equals(ref.log, st, want)
			}
			if err != nil {
				t.Fatalf("seed %d, %d nodes, %s (%v, period %d): %v", seed, n, kernels[k].name, metric, period, err)
			}
		}
		threads := 1 + int(seed%2) // ranks of one worker and of two, on alternate seeds
		if err := rankRow(seed, random(2+r.Intn(3)), threads, uint64(2+r.Intn(24))); err != nil {
			t.Fatalf("seed %d, %d nodes, ranks of %d threads over an in-memory wire: %v", seed, n, threads, err)
		}
	}
}

// The rank row: the engine as internal/dist runs it — one hybrid kernel per
// rank, each with the whole model and only its own host resident — but
// joined by the smallest wire there is instead of sockets and a coordinator.

// hub is that wire: each round one barrier of all ranks, where every rank
// deposits its outbound events and its minimum and reads what the last
// arriver of the same meeting published.
type hub struct {
	rankOf []int32
	mu     sync.Mutex
	cond   *sync.Cond
	waits  int
	gen    int

	nextIn, in   [][]sim.Event // per destination rank
	nextMin, min sim.Time      // every rank's minimum and every routed event's time
}

func newHub(rankOf []int32) *hub {
	h := &hub{rankOf: rankOf, nextMin: sim.MaxTime}
	h.cond = sync.NewCond(&h.mu)
	h.nextIn = make([][]sim.Event, 1+slices.Max(rankOf))
	return h
}

// meet runs deposit under the lock and returns once every rank has.
func (h *hub) meet(deposit func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	deposit()
	if h.waits++; h.waits < len(h.nextIn) {
		for gen := h.gen; gen == h.gen; {
			h.cond.Wait()
		}
		return
	}
	h.in, h.nextIn = h.nextIn, make([][]sim.Event, len(h.nextIn))
	h.min, h.nextMin = h.nextMin, sim.MaxTime
	h.waits = 0
	h.gen++
	h.cond.Broadcast()
}

// fakeRank is one rank's end of the hub, and its model's data plane: out
// holds each worker's outbound events.
type fakeRank struct {
	h   *hub
	id  int32
	sm  *sparseModel
	out [][]sim.Event
}

func (w *fakeRank) Resident() int { return int(w.id) }

func (w *fakeRank) remote(ctx *sim.Ctx, at sim.Time, to sim.NodeID, ttl int) bool {
	if w.h.rankOf[to] == w.id {
		return false
	}
	ev := ctx.Stamp(at, to)
	ev.Desc = chainDesc(ttl)
	w.out[ctx.Worker] = append(w.out[ctx.Worker], ev)
	return true
}

func (w *fakeRank) Sync(lbts, local sim.Time) ([]sim.Event, sim.Time, sim.Time, error) {
	w.h.meet(func() {
		w.h.nextMin = min(w.h.nextMin, local)
		for i, out := range w.out {
			for _, ev := range out {
				if ev.Time < lbts {
					panic(fmt.Sprintf("rank %d sends an event at %v inside the window ending %v", w.id, ev.Time, lbts))
				}
				dst := w.h.rankOf[ev.Node]
				w.h.nextIn[dst] = append(w.h.nextIn[dst], ev)
				w.h.nextMin = min(w.h.nextMin, ev.Time)
			}
			w.out[i] = out[:0]
		}
	})
	in := w.h.in[w.id]
	w.sm.bind(in)
	return in, w.h.min, sim.MaxTime, nil
}

// bind gives events that crossed a wire or a snapshot the handlers their
// descriptors name, in this copy of the model.
func (sm *sparseModel) bind(evs []sim.Event) {
	for i := range evs {
		evs[i].Fn = sm.chain(int(evs[i].Desc.(chainDesc)))
	}
}

// rankRun runs the model of seed as len(restore) ranks of threads workers
// each and returns the merged event log and totals. snapAt > 0 keeps every
// rank's snapshot of that round in snaps; a non-nil restore[i] resumes rank
// i from it.
func rankRun(seed int64, rankOf []int32, threads int, snapAt uint64, restore []*sim.KernelState) (*evLog, *sim.RunStats, []*sim.KernelState, error) {
	h := newHub(rankOf)
	ranks := make([]*fakeRank, len(restore))
	stats := make([]*sim.RunStats, len(ranks))
	snaps := make([]*sim.KernelState, len(ranks))
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i := range ranks {
		w := &fakeRank{h: h, id: int32(i), out: make([][]sim.Event, threads)}
		w.sm = genRankModel(seed, w.remote)
		ranks[i] = w
		if snapAt > 0 {
			w.sm.Pauses = []sim.Pause{saveFunc(snapAt, func(ks *sim.KernelState) error {
				if ks.Round == snapAt {
					cp := *ks
					cp.Seqs, cp.Queue = slices.Clone(ks.Seqs), slices.Clone(ks.Queue)
					snaps[w.id] = &cp
				}
				return nil
			})}
		}
		if ks := restore[i]; ks != nil {
			cp := *ks
			cp.Queue = slices.Clone(ks.Queue)
			w.sm.bind(cp.Queue)
			w.sm.Restore = &cp
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[w.id], errs[w.id] = core.NewHybrid(core.HybridConfig{HostOf: rankOf, ThreadsPerHost: threads, Wire: w}).Run(w.sm.Model)
		}()
	}
	wg.Wait()
	n := len(rankOf)
	log, total := newEvLog(n), &sim.RunStats{Rounds: stats[0].Rounds}
	for i, w := range ranks {
		if errs[i] != nil {
			return nil, nil, nil, errs[i]
		}
		if stats[i].Rounds != total.Rounds || len(stats[i].Workers) != threads {
			return nil, nil, nil, fmt.Errorf("rank %d: %d rounds on %d workers, rank 0 ran %d on %d", i, stats[i].Rounds, len(stats[i].Workers), total.Rounds, threads)
		}
		total.Events += stats[i].Events
		total.EndTime = max(total.EndTime, stats[i].EndTime)
		for node, evs := range w.sm.log.node {
			if len(evs) > 0 && rankOf[node] != w.id {
				return nil, nil, nil, fmt.Errorf("rank %d ran events of node %d, which rank %d owns", i, node, rankOf[node])
			}
			log.node[node] = append(log.node[node], evs...)
		}
	}
	return log, total, snaps, nil
}

// rankRow checks ranks of threads workers on one seed: against des event
// for event, taking a snapshot on the way, and again restored from that
// snapshot.
func rankRow(seed int64, rankOf []int32, threads int, snapAt uint64) error {
	ref := genRankModel(seed, func(*sim.Ctx, sim.Time, sim.NodeID, int) bool { return false })
	want, err := des.New().Run(ref.Model)
	if err != nil {
		return err
	}
	fresh := make([]*sim.KernelState, 1+slices.Max(rankOf))
	log, st, snaps, err := rankRun(seed, rankOf, threads, snapAt, fresh)
	if err == nil {
		err = log.equals(ref.log, st, want)
	}
	if err != nil || st.Rounds <= snapAt {
		return err // too short a run to have a round snapAt to resume from
	}
	var before uint64
	for i, ks := range snaps {
		if ks == nil {
			return fmt.Errorf("rank %d took no snapshot at round %d of %d", i, snapAt, st.Rounds)
		}
		before += ks.Events
	}
	rlog, rst, _, err := rankRun(seed, rankOf, threads, 0, snaps)
	if err == nil {
		err = rlog.endsWith(ref.log)
	}
	if err == nil && (before+rlog.total() != want.Events || rst.Events != want.Events || rst.EndTime != want.EndTime || rst.Rounds != st.Rounds) {
		err = fmt.Errorf("%d events before the snapshot + %d after, stats say events=%d end=%v rounds=%d; want events=%d end=%v rounds=%d",
			before, rlog.total(), rst.Events, rst.EndTime, rst.Rounds, want.Events, want.EndTime, st.Rounds)
	}
	if err != nil {
		return fmt.Errorf("restored from round %d: %w", snapAt, err)
	}
	return nil
}
