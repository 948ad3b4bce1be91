package app

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/packet"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// The model oracle: testdata/model_fingerprints.golden was recorded by this
// test on the commit before events that do nothing stopped being scheduled
// (PR 20), and is never regenerated for a change that claims to keep
// results. A row is everything a small seeded scenario produces under the
// sequential kernel; a model change that moves any of them has changed what
// the simulator computes, not how fast.

var updateOracle = flag.Bool("update-oracle", false, "rewrite testdata/model_fingerprints.golden (only for a change that means to move results)")

const oracleSeed = 20

type oracleCase struct {
	name  string
	build func() *Sim
}

// oracleOpts are the axes most cases vary.
type oracleOpts struct {
	queue  netdev.QueueConfig
	tcp    tcp.Config
	stop   sim.Time
	flows  []tcp.FlowSpec
	stream *traffic.Config
	// extra runs against the assembled Sim before Model: UDP sources, link
	// flaps.
	extra func(*Sim)
}

func oracleSim(g *topology.Graph, o oracleOpts) *Sim {
	cfg := Config{
		Seed:           oracleSeed,
		NetCfg:         netdev.Config{Queue: o.queue, ChecksumWork: true, Seed: oracleSeed},
		TCPCfg:         o.tcp,
		StopAt:         o.stop,
		Flows:          o.flows,
		ExtraFlowSlots: 4,
	}
	if o.stream != nil {
		cfg.FlowSrc = traffic.NewStream(*o.stream)
		cfg.FlowCount = traffic.Count(*o.stream)
	}
	s := New(g, routing.NewECMP(g, routing.Hops, oracleSeed), cfg)
	if o.extra != nil {
		o.extra(s)
	}
	return s
}

func withDelack(c tcp.Config) tcp.Config { c.DelayedAck = true; return c }

func genFlows(hosts []sim.NodeID, bisection int64, load float64, end sim.Time, incast float64) traffic.Config {
	return traffic.Config{
		Seed: oracleSeed, Hosts: hosts, Sizes: traffic.GRPCCDF(), Load: load,
		BisectionBps: bisection, Start: 0, End: end, IncastRatio: incast,
	}
}

// pairFlows starts n flows of the given size between a and b, alternating
// direction, the first at t = 0.
func pairFlows(a, b sim.NodeID, n int, bytes int64, gap sim.Time) []tcp.FlowSpec {
	var fs []tcp.FlowSpec
	for i := 0; i < n; i++ {
		f := tcp.FlowSpec{ID: packet.FlowID(i), Src: a, Dst: b, Bytes: bytes + int64(i)*517, Start: sim.Time(i) * gap}
		if i%2 == 1 {
			f.Src, f.Dst = b, a
		}
		fs = append(fs, f)
	}
	return fs
}

func oracleCases() []oracleCase {
	const gbps = 1_000_000_000
	red := netdev.REDConfig(30)
	redECN := netdev.REDConfig(30)
	redECN.ECN = true
	step := netdev.DCTCPConfig(40, 8)
	drop := netdev.DropTailConfig(24)

	fatTree := func(q netdev.QueueConfig, t tcp.Config, stream bool, extra func(*Sim)) func() *Sim {
		return func() *Sim {
			ft := topology.BuildFatTree(topology.FatTreeK(4, gbps, 3*sim.Microsecond))
			tc := genFlows(ft.Hosts(), ft.BisectionBandwidth(), 2.5, 750*sim.Microsecond, 0.4)
			o := oracleOpts{queue: q, tcp: t, stop: 4 * sim.Millisecond, extra: extra}
			if stream {
				o.stream = &tc
			} else {
				o.flows = traffic.Generate(tc)
			}
			return oracleSim(ft.Graph, o)
		}
	}
	torus := func(q netdev.QueueConfig, t tcp.Config) func() *Sim {
		return func() *Sim {
			tr := topology.BuildTorus2D(4, 4, gbps, 2*sim.Microsecond)
			tc := genFlows(tr.Hosts(), tr.BisectionBandwidth(), 2.5, 600*sim.Microsecond, 0.3)
			return oracleSim(tr.Graph, oracleOpts{queue: q, tcp: t, stop: 4 * sim.Millisecond, flows: traffic.Generate(tc)})
		}
	}
	// dumbbell has a bottleneck at half the edge rate, so the left switch
	// always has a packet waiting when a frame ends.
	dumbbell := func(q netdev.QueueConfig, t tcp.Config, extra func(*Sim, *topology.Dumbbell)) func() *Sim {
		return func() *Sim {
			d := topology.BuildDumbbell(4, gbps, gbps/2, 2*sim.Microsecond, 10*sim.Microsecond)
			var fs []tcp.FlowSpec
			for i := range d.Senders {
				fs = append(fs, tcp.FlowSpec{ID: packet.FlowID(i), Src: d.Senders[i], Dst: d.Receivers[i],
					Bytes: 150_000 + int64(i)*1013, Start: sim.Time(i) * 7 * sim.Microsecond})
			}
			o := oracleOpts{queue: q, tcp: t, stop: 12 * sim.Millisecond, flows: fs}
			if extra != nil {
				o.extra = func(s *Sim) { extra(s, d) }
			}
			return oracleSim(d.Graph, o)
		}
	}
	// parallel joins two switches by two stateless links of unequal delay,
	// the slower one longer by exactly one MSS frame time, with data and
	// ACKs crossing both ways: arrivals from the two links can tie.
	parallel := func(t tcp.Config) func() *Sim {
		return func() *Sim {
			g := topology.New()
			a, s1 := g.AddNode(topology.Host, "a"), g.AddNode(topology.Switch, "s1")
			s2, b := g.AddNode(topology.Switch, "s2"), g.AddNode(topology.Host, "b")
			a2, b2 := g.AddNode(topology.Host, "a2"), g.AddNode(topology.Host, "b2")
			g.AddLink(a, s1, gbps, sim.Microsecond)
			g.AddLink(a2, s1, gbps, sim.Microsecond)
			g.AddLink(s1, s2, gbps, 3*sim.Microsecond)
			g.AddLink(s1, s2, gbps, 3*sim.Microsecond+netdev.TxTime(int64(packet.MSS+packet.HeaderBytes), gbps))
			g.AddLink(s2, b, gbps, sim.Microsecond)
			g.AddLink(s2, b2, gbps, sim.Microsecond)
			fs := pairFlows(a, b, 6, 40_000, 5*sim.Microsecond)
			for i, f := range pairFlows(a2, b2, 6, 30_000, 3*sim.Microsecond) {
				f.ID = packet.FlowID(6 + i)
				fs = append(fs, f)
			}
			return oracleSim(g, oracleOpts{queue: drop, tcp: t, stop: 4 * sim.Millisecond, flows: fs})
		}
	}
	lan := func(t tcp.Config) func() *Sim {
		return func() *Sim {
			g := topology.New()
			a, s, b, c := g.AddNode(topology.Host, "a"), g.AddNode(topology.Switch, "hub"), g.AddNode(topology.Host, "b"), g.AddNode(topology.Host, "c")
			g.AddHalfDuplexLink(a, s, gbps/10, sim.Microsecond)
			g.AddHalfDuplexLink(b, s, gbps/10, sim.Microsecond)
			g.AddLink(c, s, gbps/10, sim.Microsecond)
			fs := pairFlows(a, b, 4, 20_000, 11*sim.Microsecond)
			fs = append(fs, tcp.FlowSpec{ID: 4, Src: c, Dst: a, Bytes: 25_000, Start: 3 * sim.Microsecond})
			return oracleSim(g, oracleOpts{queue: drop, tcp: t, stop: 20 * sim.Millisecond, flows: fs})
		}
	}
	// incast sends 24 flows at one host through an 8-packet buffer: SYNs
	// and whole windows are lost, so retransmission timers fire live and
	// back off.
	incast := func(q netdev.QueueConfig, t tcp.Config) func() *Sim {
		return func() *Sim {
			ft := topology.BuildFatTree(topology.FatTreeK(4, gbps, 3*sim.Microsecond))
			hosts := ft.Hosts()
			var fs []tcp.FlowSpec
			for i := 0; i < 24; i++ {
				fs = append(fs, tcp.FlowSpec{ID: packet.FlowID(i), Src: hosts[1+i%(len(hosts)-1)], Dst: hosts[0],
					Bytes: 60_000, Start: sim.Time(i%3) * sim.Microsecond})
			}
			return oracleSim(ft.Graph, oracleOpts{queue: q, tcp: t, stop: 60 * sim.Millisecond, flows: fs})
		}
	}
	udp := func(q netdev.QueueConfig, cross bool) func() *Sim {
		return func() *Sim {
			d := topology.BuildDumbbell(3, gbps, gbps/2, 2*sim.Microsecond, 10*sim.Microsecond)
			var fs []tcp.FlowSpec
			if cross {
				fs = []tcp.FlowSpec{{ID: 0, Src: d.Senders[2], Dst: d.Receivers[2], Bytes: 60_000}}
			}
			return oracleSim(d.Graph, oracleOpts{queue: q, tcp: tcp.DefaultConfig(), stop: 6 * sim.Millisecond, flows: fs,
				extra: func(s *Sim) {
					// Both sources start at t = 0: the first Send of the run
					// finds a transmitter that has never transmitted.
					s.Stack.AttachOnOff(s.Setup, tcp.OnOffSpec{Flow: 1, Src: d.Senders[0], Dst: d.Receivers[0],
						RateBps: 400_000_000, PktBytes: 1000, OnTime: 300 * sim.Microsecond, OffTime: 100 * sim.Microsecond, Stop: 5 * sim.Millisecond})
					s.Stack.AttachOnOff(s.Setup, tcp.OnOffSpec{Flow: 2, Src: d.Senders[1], Dst: d.Receivers[1],
						RateBps: 300_000_000, PktBytes: 1400, OnTime: sim.Millisecond, Stop: 5 * sim.Millisecond})
				}})
		}
	}
	// flap downs the dumbbell's bottleneck mid-frame three times: to stay
	// down across the end of the frame, during a propagation, and down and
	// up again inside one frame (that frame is delivered).
	flap := func(s *Sim, d *topology.Dumbbell) {
		at := func(t sim.Time, up bool) {
			s.ScheduleTopoChange(t, func() { d.SetLinkUp(d.Bottleneck, up) })
		}
		at(400*sim.Microsecond+7, false)
		at(900*sim.Microsecond, true)
		at(2*sim.Millisecond+3, false)
		at(2*sim.Millisecond+9, true)
		at(3*sim.Millisecond+1, false)
		at(3*sim.Millisecond+2, true)
		at(5*sim.Millisecond, false)
		at(5*sim.Millisecond+40*sim.Microsecond, true)
	}
	coreFlap := func(s *Sim) {
		for i, t := range []sim.Time{200*sim.Microsecond + 5, 333 * sim.Microsecond, 600*sim.Microsecond + 1} {
			l := topology.LinkID(len(s.G.Links) - 1 - 3*i)
			s.ScheduleTopoChange(t, func() { s.G.SetLinkUp(l, false) })
			s.ScheduleTopoChange(t+150*sim.Microsecond, func() { s.G.SetLinkUp(l, true) })
		}
	}
	rcvBuf := tcp.DefaultConfig()
	rcvBuf.RcvBuf = 16_000
	rcvBuf.DelayedAck = true

	nr, dc := tcp.DefaultConfig(), tcp.DCTCPConfig()
	return []oracleCase{
		{"ft4-droptail-newreno", fatTree(drop, nr, false, nil)},
		{"ft4-droptail-newreno-delack", fatTree(drop, withDelack(nr), false, nil)},
		{"ft4-red-newreno", fatTree(red, nr, false, nil)},
		{"ft4-red-newreno-delack", fatTree(red, withDelack(nr), false, nil)},
		{"ft4-redecn-dctcp", fatTree(redECN, dc, false, nil)},
		{"ft4-step-dctcp", fatTree(step, dc, false, nil)},
		{"ft4-step-dctcp-delack", fatTree(step, withDelack(dc), false, nil)},
		{"ft4-droptail-dctcp-delack", fatTree(drop, withDelack(dc), false, nil)},
		{"ft4-codel-newreno", fatTree(netdev.CoDelConfig(30), nr, false, nil)},
		{"ft4-pfifo-newreno-delack", fatTree(netdev.PfifoFastConfig(24), withDelack(nr), false, nil)},
		{"ft4-droptail-rcvbuf-delack", fatTree(drop, rcvBuf, false, nil)},
		{"ft4-stream-droptail-newreno", fatTree(drop, nr, true, nil)},
		{"ft4-stream-step-dctcp-delack", fatTree(step, withDelack(dc), true, nil)},
		{"ft4-coreflap-step-dctcp", fatTree(step, dc, false, coreFlap)},
		{"torus-droptail-newreno", torus(drop, nr)},
		{"torus-red-newreno-delack", torus(red, withDelack(nr))},
		{"torus-step-dctcp-delack", torus(step, withDelack(dc))},
		{"dumbbell-halfrate-droptail-newreno", dumbbell(drop, nr, nil)},
		{"dumbbell-halfrate-red-newreno-delack", dumbbell(red, withDelack(nr), nil)},
		{"dumbbell-halfrate-step-dctcp", dumbbell(step, dc, nil)},
		{"dumbbell-flap-droptail-newreno", dumbbell(drop, nr, flap)},
		{"dumbbell-flap-step-dctcp-delack", dumbbell(step, withDelack(dc), flap)},
		{"parallel-links-newreno", parallel(nr)},
		{"parallel-links-dctcp-delack", parallel(withDelack(dc))},
		{"halfduplex-lan-newreno", lan(nr)},
		{"halfduplex-lan-dctcp-delack", lan(withDelack(dc))},
		{"incast-rto-droptail-newreno", incast(netdev.DropTailConfig(8), nr)},
		{"incast-rto-step-dctcp-delack", incast(netdev.DCTCPConfig(12, 4), withDelack(dc))},
		{"udp-t0-droptail", udp(drop, false)},
		{"udp-t0-red-tcpcross", udp(red, true)},
	}
}

// oracleRow runs s under k and renders its row.
func oracleRow(t *testing.T, name string, s *Sim, k sim.Kernel) string {
	t.Helper()
	tracer, sampler := s.EnableNetObs(0, 0)
	if _, err := k.Run(s.Model()); err != nil {
		t.Fatalf("%s under %s: %v", name, k.Name(), err)
	}
	sampler.Flush()
	var csv, pcap bytes.Buffer
	if err := netobs.WriteCSV(&csv, sampler.Rows(), sampler.Interval()); err != nil {
		t.Fatal(err)
	}
	if err := netobs.WritePcapng(&pcap, tracer.Merged(), netobs.FlowTable(s.Mon)); err != nil {
		t.Fatal(err)
	}
	var marks, tx uint64
	s.Net.Devices(func(d *netdev.Device) { marks += d.MarkCount; tx += d.TxPackets })
	return fmt.Sprintf("%s fp=%016x flows=%d drops=%d marks=%d retx=%d tx=%d series=%x trace=%x",
		name, s.Mon.Fingerprint(), s.Mon.Completed(), s.Net.Drops(), marks, s.Mon.TotalRetransmits(), tx,
		sha256.Sum256(csv.Bytes()), sha256.Sum256(pcap.Bytes()))
}

func TestModelFingerprints(t *testing.T) {
	const path = "testdata/model_fingerprints.golden"
	var got []string
	for _, c := range oracleCases() {
		got = append(got, oracleRow(t, c.name, c.build(), des.New()))
	}
	if *updateOracle {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestModelFingerprintsAcrossKernels holds the rows where identities are
// reserved or redeemed in unusual places — parallel links, whose receive
// events are stamped a frame time earlier than an eager transmitter stamped
// them, link flaps, live timeouts, half-duplex — to the same row under
// Unison and, where the topology has no global events, the null-message
// kernel.
func TestModelFingerprintsAcrossKernels(t *testing.T) {
	for _, c := range oracleCases() {
		flapped := strings.Contains(c.name, "flap")
		if !flapped && !strings.HasPrefix(c.name, "parallel") && !strings.HasPrefix(c.name, "incast") &&
			!strings.HasPrefix(c.name, "halfduplex") && !strings.HasPrefix(c.name, "udp") {
			continue
		}
		want := oracleRow(t, c.name, c.build(), des.New())
		kernels := []sim.Kernel{core.New(core.Config{Threads: 2}), core.New(core.Config{Threads: 4})}
		if s := c.build(); !flapped {
			kernels = append(kernels, &pdes.NullMessageKernel{Part: core.FineGrained(s.G.N(), s.G.LinkInfos())})
		}
		for _, k := range kernels {
			if got := oracleRow(t, c.name, c.build(), k); got != want {
				t.Errorf("%s disagrees with sequential:\n got %s\nwant %s", k.Name(), got, want)
			}
		}
	}
}
