package app

import (
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/netdev"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/trace"
)

// TestLinkDownMidFrame: a frame is lost when its link is down at the instant
// its serialisation ends, and only then. One flow of a single data segment
// crosses a — s — b; a dry run finds when that segment starts (t) and ends
// (end) on a's transmitter, and three flaps of the a—s link are placed
// around it. The lost frame is the sending device's drop and comes back by
// retransmission; a frame the flap only overlaps is delivered as if nothing
// had happened.
func TestLinkDownMidFrame(t *testing.T) {
	const delay = 5 * sim.Microsecond
	type outcome struct {
		hops        []sim.Time // when s took the data segment in
		drops, retx uint64
		done        bool
	}
	run := func(k sim.Kernel, flaps func(s *Sim, set func(at sim.Time, up bool))) (outcome, sim.Time, sim.Time) {
		g := topology.New()
		a, sw, b := g.AddNode(topology.Host, "a"), g.AddNode(topology.Switch, "s"), g.AddNode(topology.Host, "b")
		l := g.AddLink(a, sw, 100_000_000, delay)
		g.AddLink(sw, b, 100_000_000, delay)
		s := New(g, routing.NewECMP(g, routing.Hops, 1), Config{
			Seed: 1, NetCfg: netdev.DefaultConfig(1), TCPCfg: tcp.DefaultConfig(), StopAt: 50 * sim.Millisecond,
			Flows: []tcp.FlowSpec{{ID: 0, Src: a, Dst: b, Bytes: 1000}},
		})
		tracer, _ := s.EnableNetObs(0, 0)
		if flaps != nil {
			flaps(s, func(at sim.Time, up bool) {
				s.ScheduleTopoChange(at, func() { g.SetLinkUp(l, up) })
			})
		}
		if _, err := k.Run(s.Model()); err != nil {
			t.Fatal(err)
		}
		var o outcome
		var start, end sim.Time
		for _, r := range tracer.Merged() {
			data := r.Flow == 0 && r.Size > 1000
			switch {
			case data && r.Node == a && r.Kind == trace.Dequeue && start == 0:
				start, end = r.Time, r.Time+netdev.TxTime(int64(r.Size), 100_000_000)
			case data && r.Node == sw && r.Kind == trace.Enqueue:
				o.hops = append(o.hops, r.Time)
			}
		}
		o.drops, o.retx, o.done = s.Net.Device(a, l).Drops, s.Mon.TotalRetransmits(), s.Mon.Sender(0).Done
		return o, start, end
	}

	clean, start, end := run(des.New(), nil)
	if start == 0 || end-start < 50*sim.Microsecond || len(clean.hops) != 1 || clean.hops[0] != end+delay {
		t.Fatalf("dry run: segment on the wire %v–%v, at s %v", start, end, clean.hops)
	}
	mid := (start + end) / 2
	cases := []struct {
		name  string
		flaps func(set func(at sim.Time, up bool))
		want  outcome
	}{
		// Down mid-frame and still down when it ends: lost, counted on a's
		// device at that instant, resent after the timeout once the link is
		// back.
		{"down across the end of the frame", func(set func(sim.Time, bool)) {
			set(mid, false)
			set(end+200*sim.Microsecond, true)
		}, outcome{drops: 1, retx: 1, done: true}},
		// Down only while the frame propagates: it had left the transmitter.
		{"down during propagation", func(set func(sim.Time, bool)) {
			set(end+1, false)
			set(end+delay-1, true)
		}, outcome{hops: clean.hops, done: true}},
		// Down and up again inside the frame: up at its end.
		{"down and up inside one frame", func(set func(sim.Time, bool)) {
			set(mid, false)
			set(mid+sim.Microsecond, true)
		}, outcome{hops: clean.hops, done: true}},
		// Down at the very instant the frame ends: a global event runs
		// before any node's event of its timestamp.
		{"down at the end instant", func(set func(sim.Time, bool)) {
			set(end, false)
			set(end+200*sim.Microsecond, true)
		}, outcome{drops: 1, retx: 1, done: true}},
	}
	for _, tc := range cases {
		for _, k := range []sim.Kernel{des.New(), core.New(core.Config{Threads: 2})} {
			got, _, _ := run(k, func(_ *Sim, set func(sim.Time, bool)) { tc.flaps(set) })
			if tc.want.hops == nil {
				// The original never reaches s; the retransmission does.
				if len(got.hops) != 1 || got.hops[0] <= end+delay {
					t.Errorf("%s under %s: segment at s %v, want only a retransmission after %v", tc.name, k.Name(), got.hops, end+delay)
				}
				got.hops = nil
			}
			if len(got.hops) != len(tc.want.hops) || (len(got.hops) == 1 && got.hops[0] != tc.want.hops[0]) ||
				got.drops != tc.want.drops || got.retx != tc.want.retx || got.done != tc.want.done {
				t.Errorf("%s under %s: %+v, want %+v", tc.name, k.Name(), got, tc.want)
			}
		}
	}
}
