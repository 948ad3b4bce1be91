package tcp

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unison/internal/ckpt"
	"unison/internal/eventq"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/topology"
	"unison/internal/trace"
)

// The start chain (chain.go) must run every flow start where, when and in
// the order the all-at-init layout did. These tests compare it with that
// layout, kept here as attachAll, event for event.

// attachAll is the reference: every flow's start an init event of its own,
// as Attach placed them before it chained them.
func attachAll(s *Stack, setup *sim.Setup, flows []FlowSpec) {
	for _, f := range flows {
		e := &flowStartEvt{s: s, f: f}
		e.fn = e.run
		setup.AtDesc(f.Start, f.Src, e.fn, e)
	}
}

// twice attaches flows as two workloads, the way a scenario with a
// collective does, so a host can have a pending start in each.
func twice(attach func(*Stack, *sim.Setup, []FlowSpec)) func(*Stack, *sim.Setup, []FlowSpec) {
	return func(s *Stack, setup *sim.Setup, flows []FlowSpec) {
		attach(s, setup, flows[:len(flows)/2])
		setup.At(0, 0, func(*sim.Ctx) {}) // a setup event between the two blocks
		attach(s, setup, flows[len(flows)/2:])
	}
}

// kindTestStop is the stop event's descriptor kind in these tests.
const kindTestStop uint16 = 0x02ff

type testStop struct{}

func (testStop) CkptKind() uint16             { return kindTestStop }
func (testStop) CkptEncode(buf []byte) []byte { return buf }

type testStopDecoder struct{}

func (testStopDecoder) DecodeEvent(kind uint16, _ sim.NodeID, _ *ckpt.Dec) (sim.Proc, sim.EvDesc, bool, error) {
	if kind != kindTestStop {
		return nil, nil, false, nil
	}
	return func(ctx *sim.Ctx) { ctx.Stop() }, testStop{}, true, nil
}

// chainNet is a k=4 fat-tree (16 hosts) with the transport, a packet tracer
// and a per-node log of completions.
type chainNet struct {
	ft    *topology.FatTree
	net   *netdev.Network
	stack *Stack
	mon   *flowmon.Monitor
	done  [][]doneRec
}

type doneRec struct {
	at     sim.Time
	id     packet.FlowID
	sender bool
}

func newChainNet(flows int) *chainNet {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond))
	net := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, 1),
		netdev.Config{Queue: netdev.DropTailConfig(16), Seed: 1})
	net.Tracer = trace.NewCollector(ft.N(), 0)
	mon := flowmon.NewMonitor(flows)
	c := &chainNet{ft: ft, net: net, stack: NewStack(net, DefaultConfig(), mon), mon: mon, done: make([][]doneRec, ft.N())}
	c.stack.OnFlowDone(func(ctx *sim.Ctx, id packet.FlowID, sender bool) {
		n := ctx.Node()
		c.done[n] = append(c.done[n], doneRec{ctx.Now(), id, sender})
	})
	return c
}

const chainStop = 50 * sim.Millisecond

func (c *chainNet) model(attach func(*Stack, *sim.Setup, []FlowSpec), flows []FlowSpec) *sim.Model {
	setup := sim.NewSetup()
	attach(c.stack, setup, flows)
	setup.GlobalDesc(chainStop, func(ctx *sim.Ctx) { ctx.Stop() }, testStop{})
	return &sim.Model{Nodes: c.ft.N(), Links: c.ft.LinkInfos, Init: setup.Events(), StopAt: chainStop}
}

func (c *chainNet) target() *ckpt.Target {
	return &ckpt.Target{
		Layers:   []ckpt.Checkpointer{c.net, c.stack, c.mon, c.net.Tracer},
		Decoders: []ckpt.EventDecoder{c.net, c.stack, testStopDecoder{}},
	}
}

// outcome is what a run leaves that every kernel must agree on.
type outcome struct {
	events uint64
	fp     uint64
	trace  []trace.Record
	done   [][]doneRec
}

func (c *chainNet) outcome(st *sim.RunStats) outcome {
	return outcome{events: st.Events, fp: c.mon.Fingerprint(), trace: c.net.Tracer.Merged(), done: c.done}
}

// evID is an executed event's place in the total order.
type evID struct {
	Time      sim.Time
	Src, Node sim.NodeID
	Seq       uint64
}

// logSink is the FEL of logRun; it counts every put of each setup identity,
// at set-up and during the run.
type logSink struct {
	fel   *eventq.Queue
	setup map[uint64]int
}

func (s *logSink) Put(ev sim.Event) {
	if ev.Src == sim.SetupSrc {
		s.setup[ev.Seq]++
	}
	s.fel.Push(ev)
}

func (s *logSink) PutGlobal(ev sim.Event) { s.Put(ev) }

// logRun runs m sequentially, as des does, and returns the identity of every
// event executed and how often each setup identity was put.
func logRun(m *sim.Model) ([]evID, map[uint64]int) {
	sink := &logSink{fel: eventq.New(64), setup: map[uint64]int{}}
	for _, ev := range m.Init {
		sink.Put(ev)
	}
	seqs := sim.NewSeqTable(m.Nodes)
	ctx := sim.NewCtx(sink, 0)
	var log []evID
	for !sink.fel.Empty() && !ctx.Stopped() {
		ev := sink.fel.Pop()
		ctx.Begin(&ev, seqs.Of(ev.Node))
		ev.Fn(ctx)
		log = append(log, evID{ev.Time, ev.Src, ev.Node, ev.Seq})
	}
	return log, sink.setup
}

// chainCases are the workloads: a hand-written one with every shape the
// chain sorts, and a generated one with many ties.
func chainCases() map[string][]FlowSpec {
	h := topology.BuildFatTree(topology.FatTreeK(4, 1e9, sim.Microsecond)).Hosts()
	us := sim.Microsecond
	hand := []FlowSpec{
		{Src: h[0], Dst: h[5], Start: 40 * us},  // host 0, out of Start order in the slice
		{Src: h[1], Dst: h[9], Start: 10 * us},  // one-flow host, equal Start across hosts
		{Src: h[2], Dst: h[7], Start: 20 * us},  // host 2, equal Start within the host
		{Src: h[0], Dst: h[12], Start: 10 * us}, // host 0
		{Src: h[2], Dst: h[3], Start: 20 * us},  // host 2
		{Src: h[0], Dst: h[1], Start: 10 * us},  // host 0, equal to the one before it
		{Src: h[3], Dst: h[0], Start: 0},        // one-flow host
		{Src: h[4], Dst: h[8], Start: 30 * us},  // host 4, out of order across the two workloads
		{Src: h[0], Dst: h[15], Start: 0},       // host 0, the earliest, last in the slice half
		{Src: h[4], Dst: h[11], Start: 5 * us},  // host 4
		{Src: h[0], Dst: h[6], Start: 25 * us},  // host 0 again, in the second workload
		{Src: h[2], Dst: h[14], Start: 20 * us}, // host 2
	}
	r := rand.New(rand.NewPCG(7, 11))
	var gen []FlowSpec
	for k := range 64 {
		// Hosts 10…15 start nothing; host 0 starts every other flow, enough
		// ties in one list for an unstable sort to reorder them.
		src, dst := h[1+r.IntN(9)], h[r.IntN(len(h))]
		if k%2 == 0 {
			src = h[0]
		}
		if dst == src {
			dst = h[15]
		}
		gen = append(gen, FlowSpec{Src: src, Dst: dst, Start: sim.Time(r.IntN(8)) * 5 * us})
	}
	cases := map[string][]FlowSpec{"hand": hand, "generated": gen}
	for _, flows := range cases {
		for i := range flows {
			flows[i].ID = packet.FlowID(i)
			flows[i].Bytes = int64(2000 + 3000*(i%5))
		}
	}
	return cases
}

// hostsWithFlows counts the distinct sources of each half, as twice attaches.
func hostsWithFlows(flows []FlowSpec) int {
	n := 0
	for _, half := range [][]FlowSpec{flows[:len(flows)/2], flows[len(flows)/2:]} {
		seen := map[sim.NodeID]bool{}
		for _, f := range half {
			seen[f.Src] = true
		}
		n += len(seen)
	}
	return n
}

func TestChainedStartsMatchAllAtInit(t *testing.T) {
	kernels := map[string]func(*sim.Model) (*sim.RunStats, error){
		"des":      desRun,
		"unison-4": func(m *sim.Model) (*sim.RunStats, error) { return coreRun(m, 4) },
	}
	for name, flows := range chainCases() {
		t.Run(name, func(t *testing.T) {
			chained := newChainNet(len(flows)).model(twice((*Stack).Attach), flows)
			// The set-up events: one start per host and workload, the one
			// between the workloads, and the stop.
			if got, want := len(chained.Init), hostsWithFlows(flows)+2; got != want {
				t.Errorf("chained Model.Init holds %d events, want %d", got, want)
			}
			log, setup := logRun(chained)
			refLog, refSetup := logRun(newChainNet(len(flows)).model(twice(attachAll), flows))
			if !reflect.DeepEqual(log, refLog) {
				for i := range min(len(log), len(refLog)) {
					if log[i] != refLog[i] {
						t.Fatalf("event %d: chained %+v, all-at-init %+v", i, log[i], refLog[i])
					}
				}
				t.Fatalf("chained run executed %d events, all-at-init %d", len(log), len(refLog))
			}
			// Every setup identity is put exactly once: each start's at
			// set-up or by the start before it, never twice.
			if !reflect.DeepEqual(setup, refSetup) {
				t.Errorf("setup identities put: chained %v, all-at-init %v", setup, refSetup)
			}
			for seq, n := range setup {
				if n != 1 {
					t.Errorf("setup identity %d put %d times", seq, n)
				}
			}
			if len(setup) != len(flows)+2 {
				t.Errorf("%d setup identities put, want %d", len(setup), len(flows)+2)
			}

			for kname, run := range kernels {
				got, want := newChainNet(len(flows)), newChainNet(len(flows))
				st, err := run(got.model(twice((*Stack).Attach), flows))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := run(want.model(twice(attachAll), flows))
				if err != nil {
					t.Fatal(err)
				}
				if st.Events != uint64(len(log)) {
					t.Errorf("%s: %d events, the logged sequential run %d", kname, st.Events, len(log))
				}
				if g, w := got.outcome(st), want.outcome(ref); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: chained run (events %d, fingerprint %x, %d trace records) differs from all-at-init (%d, %x, %d)",
						kname, g.events, g.fp, len(g.trace), w.events, w.fp, len(w.trace))
				}
				if got.mon.Completed() != len(flows) {
					t.Errorf("%s: %d of %d flows completed", kname, got.mon.Completed(), len(flows))
				}
			}
		})
	}
}

// TestChainRestoreBetweenStarts restores from every snapshot in which a host
// has started some of its flows and has the next pending, under des and
// Unison-4, and requires what the uninterrupted run left.
func TestChainRestoreBetweenStarts(t *testing.T) {
	flows := chainCases()["hand"]
	attach := twice((*Stack).Attach)
	dir := t.TempDir()
	ref := newChainNet(len(flows))
	m := ref.model(attach, flows)
	m.Pauses = []sim.Pause{{Every: 20, New: ref.target().Saver(func(r uint64) string {
		return filepath.Join(dir, fmt.Sprintf("r%06d", r))
	}, nil)}}
	st, err := desRun(m)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.outcome(st)
	want.done = nil // completions before the snapshot are not logged again

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// load rebuilds the run and restores the snapshot at path into it.
	load := func(path string) (*chainNet, *sim.Model, *sim.KernelState) {
		c := newChainNet(len(flows))
		model := c.model(attach, flows)
		ks, err := c.target().Load(path)
		if err != nil {
			t.Fatal(err)
		}
		model.Restore = ks
		return c, model, ks
	}
	between := 0
	for _, f := range files {
		path := filepath.Join(dir, f.Name())
		if _, _, ks := load(path); !startedAndPending(ks.Queue) {
			continue
		}
		between++
		for kname, run := range map[string]func(*sim.Model) (*sim.RunStats, error){
			"des":      desRun,
			"unison-4": func(m *sim.Model) (*sim.RunStats, error) { return coreRun(m, 4) },
		} {
			c, model, ks := load(path)
			st, err := run(model)
			if err != nil {
				t.Fatal(err)
			}
			got := c.outcome(st)
			got.done = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s restored from %s (t=%v): events %d fingerprint %x, want %d %x",
					kname, f.Name(), ks.Now, got.events, got.fp, want.events, want.fp)
			}
		}
	}
	if between == 0 {
		t.Fatalf("none of %d snapshots falls between two starts of one host", len(files))
	}
}

// startedAndPending reports whether queue holds a host's start that is not
// the first of its chain: the host started a flow and has another to go.
func startedAndPending(queue []sim.Event) bool {
	for _, ev := range queue {
		e, ok := ev.Desc.(*chainEvt)
		if !ok {
			continue
		}
		for _, f := range e.c.flows {
			if f.Src == ev.Node && (f.Start < ev.Time || f.Start == ev.Time && f.ID < e.c.flows[e.i].ID) {
				return true
			}
		}
	}
	return false
}

// TestDecodeChainRejects feeds the chain descriptor's decoder payloads and
// nodes a garbled file could hold: each must be an error, not a panic.
func TestDecodeChainRejects(t *testing.T) {
	flows := chainCases()["hand"]
	c := newChainNet(len(flows))
	c.model(twice((*Stack).Attach), flows)
	idx := func(g int32) []byte {
		e := ckpt.AppendEnc(nil)
		e.I32(g)
		return e.Bytes()
	}
	last := int32(len(flows) - 1)
	for _, tc := range []struct {
		name    string
		node    sim.NodeID
		payload []byte
		ok      bool
	}{
		{"first workload", flows[0].Src, idx(0), true},
		{"second workload", flows[last].Src, idx(last), true},
		{"index below the list", flows[0].Src, idx(-1), false},
		{"index past the list", flows[0].Src, idx(last + 1), false},
		{"index far past the list", flows[0].Src, idx(1 << 30), false},
		{"flow of another node", flows[1].Src, idx(0), false},
		{"node outside the topology", -5, idx(0), false},
		{"truncated payload", flows[0].Src, idx(0)[:2], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn, desc, ok, err := c.stack.DecodeEvent(kindChain, tc.node, ckpt.NewDec(tc.payload))
			if !ok {
				t.Fatal("the stack disowned its own kind")
			}
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && (fn == nil || desc.(*chainEvt).c.flows[desc.(*chainEvt).i].Src != tc.node) {
				t.Fatalf("decoded %+v", desc)
			}
		})
	}
}

// FuzzDecodeEvent drives the transport's event decoders with arbitrary
// kinds, nodes and payloads: any may be an error, none may panic.
func FuzzDecodeEvent(f *testing.F) {
	flows := chainCases()["hand"]
	c := newChainNet(len(flows))
	c.model(twice((*Stack).Attach), flows)
	f.Add(kindChain, int32(flows[0].Src), []byte{0, 0, 0, 0})
	f.Add(kindChain, int32(flows[1].Src), []byte{0, 0, 0, 0})             // another node's flow
	f.Add(kindChain, int32(flows[0].Src), []byte{0xff, 0xff, 0xff, 0xff}) // index -1
	f.Add(kindChain, int32(flows[0].Src), []byte{12, 0, 0, 0})            // one past the list
	f.Add(kindChain, int32(-1), []byte{0, 0})
	f.Add(kindTimer, int32(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(kindFlowStart, int32(0), make([]byte, flowSpecBytes))
	f.Fuzz(func(t *testing.T, kind uint16, node int32, payload []byte) {
		_, _, _, _ = c.stack.DecodeEvent(kind, sim.NodeID(node), ckpt.NewDec(payload))
	})
}
