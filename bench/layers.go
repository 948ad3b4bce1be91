package main

import (
	"sync"
	"time"

	"unison/internal/app"
	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/eventq"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/obs"
	"unison/internal/packet"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/syncx"
	"unison/internal/tcp"
	"unison/internal/topology"
)

// The layer drivers time one package each from outside, through its public
// functions, on a fixed input. They run in the traced pass only. Each
// returns nanoseconds per operation; the ledger multiplies that by the
// number of such operations the workload's run performed.

// mix is a splitmix64 step: the drivers' own deterministic number stream.
func mix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

// driveEventqHold is the classic hold model on the future-event list: at a
// steady depth, pop the earliest event and push one a random increment
// later. One operation is one pop+push pair.
func driveEventqHold(depth, ops int) float64 {
	q := eventq.New(depth)
	state := uint64(depth)
	var seq uint64
	push := func(base sim.Time) {
		seq++
		q.Push(sim.Event{Time: base + sim.Time(mix(&state)%10_000), Src: sim.NodeID(seq % 64), Seq: seq})
	}
	for i := 0; i < depth; i++ {
		push(0)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		ev := q.Pop()
		push(ev.Time)
	}
	return perOp(time.Since(start), ops)
}

// driveEventqPushBatch bulk-loads batches of 4096 events into an empty
// queue, as the kernels do with a round's received events.
func driveEventqPushBatch(batches int) float64 {
	const n = 4096
	q := eventq.New(n)
	state := uint64(7)
	evs := make([]sim.Event, n)
	for i := range evs {
		evs[i] = sim.Event{Time: sim.Time(mix(&state) % 1_000_000), Src: sim.NodeID(i % 64), Seq: uint64(i)}
	}
	start := time.Now()
	for i := 0; i < batches; i++ {
		q.PushBatch(evs)
		q.Clear()
	}
	return perOp(time.Since(start), batches*n)
}

// model finishes a driver's model: the kernels stop at a global stop
// event, which the model has to schedule itself.
func model(nodes int, links func() []sim.LinkInfo, setup *sim.Setup, stop sim.Time) *sim.Model {
	setup.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	return &sim.Model{Nodes: nodes, Links: links, Init: setup.Events(), StopAt: stop}
}

// desRun runs m under the sequential kernel and returns wall and events.
func desRun(m *sim.Model) (time.Duration, uint64) {
	start := time.Now()
	st, err := des.New().Run(m)
	if err != nil {
		panic(err) // a driver model is fixed; only a bug can make it invalid
	}
	return time.Since(start), st.Events
}

// driveDesEvent times the sequential kernel's own cost per event: 16
// chains of events that do nothing but reschedule themselves, so the
// future-event list stays 16 deep and no model code runs.
func driveDesEvent(events int) float64 {
	const chains = 16
	setup := sim.NewSetup()
	var tick sim.Proc
	tick = func(ctx *sim.Ctx) { ctx.Schedule(chains, ctx.Node(), tick) }
	for i := 0; i < chains; i++ {
		setup.At(sim.Time(i+1), sim.NodeID(i), tick)
	}
	wall, n := desRun(model(chains, func() []sim.LinkInfo { return nil }, setup, sim.Time(events)))
	return perOp(wall, int(n))
}

// hopCost is the data plane's own time for one hop, as a line through two
// measured points: a header-only packet and a full MSS packet. The slope is
// the per-byte work (the checksum model); the intercept is queue, transmit
// and deliver bookkeeping.
type hopCost struct{ minNS, mssNS float64 }

// of estimates the data plane's time for the given transmissions.
func (h hopCost) of(packets, bytes uint64) float64 {
	payload := float64(bytes) - float64(packets)*packet.HeaderBytes
	return float64(packets)*h.minNS + payload*(h.mssNS-h.minNS)/packet.MSS
}

// driveNetdevHop sends packets of one size down a two-host line, one per
// serialization time of a full packet so none queues or drops, with the
// workload's own queue configuration. One operation is one hop: enqueue,
// transmit, propagate, deliver. The kernel's per-event cost is subtracted,
// leaving the data plane's own time.
func driveNetdevHop(s *spec, payload int32, packets int, desEventNS float64) float64 {
	g := topology.New()
	a := g.AddNode(topology.Host, "a")
	b := g.AddNode(topology.Host, "b")
	g.AddLink(a, b, 10e9, s.Delay)
	net := netdev.New(g, routing.NewECMP(g, routing.Hops, 1), s.netConfig(1))
	net.SetHandler(a, func(*sim.Ctx, packet.Packet) {})
	net.SetHandler(b, func(*sim.Ctx, packet.Packet) {})

	p := packet.Packet{Flow: 1, Src: a, Dst: b, Payload: payload, ECT: s.DCTCP}
	const gap = sim.Time((packet.MSS + packet.HeaderBytes) * 8 * int64(sim.Second) / 10e9)
	sent := 0
	var send sim.Proc
	send = func(ctx *sim.Ctx) {
		p.Seq = uint32(sent)
		net.Inject(ctx, p)
		if sent++; sent < packets {
			ctx.Schedule(gap, a, send)
		}
	}
	setup := sim.NewSetup()
	setup.At(0, a, send)
	wall, events := desRun(model(g.N(), g.LinkInfos, setup, sim.Time(packets+2)*gap+s.Delay))
	var tx uint64
	net.Devices(func(d *netdev.Device) { tx += d.TxPackets })
	return (float64(wall.Nanoseconds()) - float64(events)*desEventNS) / float64(tx)
}

// driveTCPSegment runs one long flow across a dumbbell whose bottleneck
// is half the edge rate, with the workload's transport and queue
// configuration. One operation is one data segment end to end: send,
// receive, acknowledge, process the acknowledgement. The kernel's
// per-event cost and the data plane's per-hop cost are subtracted.
func driveTCPSegment(s *spec, bytes int64, desEventNS float64, hop hopCost) float64 {
	d := topology.BuildDumbbell(1, 10e9, 5e9, s.Delay, s.Delay)
	sm := app.New(d.Graph, routing.NewECMP(d.Graph, routing.Hops, 1), app.Config{
		Seed: 1, NetCfg: s.netConfig(1), TCPCfg: s.tcpConfig(), StopAt: sim.Second,
		Flows: []tcp.FlowSpec{{ID: 0, Src: d.Senders[0], Dst: d.Receivers[0], Bytes: bytes}},
	})
	wall, events := desRun(sm.Model())
	st := monStats(sm.Mon, events, sm.Net)
	segments := float64(st.RxBytes) / packet.MSS
	return (float64(wall.Nanoseconds()) - float64(events)*desEventNS - hop.of(st.TxPackets, st.TxBytes)) / segments
}

// driveNextLink walks the workload's own flows hop by hop through its own
// routing tables, as forwarding does, until it has made the given number
// of lookups. One operation is one NextLink call.
func driveNextLink(b *built, flows []tcp.FlowSpec, atLeast int) float64 {
	lookups := 0
	start := time.Now()
	for lookups < atLeast {
		for i := range flows {
			f := &flows[i]
			p := packet.Packet{Flow: f.ID, Src: f.Src, Dst: f.Dst}
			for at := f.Src; at != f.Dst; {
				l, ok := b.router.NextLink(at, &p)
				if !ok {
					break
				}
				at = b.ft.Peer(l, at)
				lookups++
			}
		}
	}
	return perOp(time.Since(start), lookups)
}

// driveFlowmonRecord does what the transport does per data segment: fetch
// the flow's sender and receiver records and update them.
func driveFlowmonRecord(ops int) float64 {
	const flows = 8192
	mon := flowmon.NewMonitor(flows)
	state := uint64(3)
	start := time.Now()
	for i := 0; i < ops; i++ {
		id := packet.FlowID(mix(&state) % flows)
		r := mon.Recv(id)
		r.BytesRcvd += packet.MSS
		r.LastRxT = sim.Time(i)
		mon.Sender(id).RTT.Add(float64(i & 1023))
	}
	return perOp(time.Since(start), ops)
}

// driveEmptyRound runs Unison on the workload's own topology, so with its
// own logical processes, with a single event bouncing over one link. Every
// round executes at most one event, so the time per round is the kernel's
// fixed cost: two barrier episodes, the LBTS reduction, the mailbox
// exchange, and the scan over every LP.
func driveEmptyRound(b *built, delay sim.Time, rounds int) float64 {
	host := b.ft.Hosts()[0]
	peer := b.ft.Neighbors(host)[0]
	var bounce sim.Proc
	bounce = func(ctx *sim.Ctx) { ctx.Schedule(delay, host+peer-ctx.Node(), bounce) }
	setup := sim.NewSetup()
	setup.At(0, host, bounce)
	m := model(b.ft.N(), b.ft.LinkInfos, setup, sim.Time(rounds)*delay)
	start := time.Now()
	st, err := core.New(core.Config{Threads: threads}).Run(m)
	if err != nil {
		panic(err)
	}
	return perOp(time.Since(start), int(st.Rounds))
}

// driveBarrier times one barrier episode between the kernel's workers.
func driveBarrier(episodes int) float64 {
	b := syncx.NewBarrier(threads)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < episodes; i++ {
				b.Wait()
			}
		}()
	}
	wg.Wait()
	return perOp(time.Since(start), episodes)
}

// driveRoundRecord times the standard probe taking one round record.
func driveRoundRecord(ops int) float64 {
	reg := obs.NewRegistry(0)
	reg.BeginRun(obs.RunMeta{Kernel: "driver", Workers: threads, LPs: threads})
	rec := obs.RoundRecord{Events: 100, ProcNS: 1000, SyncNS: 100, MsgNS: 10}
	start := time.Now()
	for i := 0; i < ops; i++ {
		rec.Round, rec.Worker = uint64(i/threads), int32(i%threads)
		reg.OnRound(&rec)
	}
	return perOp(time.Since(start), ops)
}
