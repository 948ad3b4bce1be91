package dist

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unison/internal/des"
	"unison/internal/flowmon"
	"unison/internal/netdev"
	"unison/internal/netobs"
	"unison/internal/pdes"
	"unison/internal/routing"
	"unison/internal/sim"
	"unison/internal/tcp"
	"unison/internal/topology"
	"unison/internal/traffic"
)

// buildPieces constructs the deterministic fat-tree scenario every host
// (and the reference run) builds independently from the same seed.
func buildPieces(seed uint64, stop sim.Time) (*sim.Model, *netdev.Network, *flowmon.Monitor, *topology.FatTree, int) {
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	flows := traffic.Generate(traffic.Config{
		Seed: seed, Hosts: ft.Hosts(), Sizes: traffic.GRPCCDF(), Load: 0.4,
		BisectionBps: ft.BisectionBandwidth(), Start: 0, End: stop / 2,
	})
	mon := flowmon.NewMonitor(len(flows))
	network := netdev.New(ft.Graph, routing.NewECMP(ft.Graph, routing.Hops, seed), netdev.DefaultConfig(seed))
	stack := tcp.NewStack(network, tcp.DefaultConfig(), mon)
	s := sim.NewSetup()
	stack.Attach(s, flows)
	s.Global(stop, func(ctx *sim.Ctx) { ctx.Stop() })
	m := &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}
	return m, network, mon, ft, len(flows)
}

// runDistributed launches a coordinator and `hosts` simulation hosts over
// loopback TCP and returns the merged monitor.
func runDistributed(t *testing.T, seed uint64, stop sim.Time, hosts int) (*flowmon.Monitor, uint64, uint64) {
	t.Helper()
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, hosts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	_, _, _, _, flows := buildPieces(seed, stop)

	type coordOut struct {
		mon    *flowmon.Monitor
		rounds uint64
		err    error
	}
	coordCh := make(chan coordOut, 1)
	go func() {
		mon, rounds, err := RunCoordinator(ln, CoordConfig{
			Hosts: hosts, StopAt: stop, Flows: flows, MaxRounds: 10_000_000,
			Timeout: 30 * time.Second,
		})
		coordCh <- coordOut{mon, rounds, err}
	}()

	var wg sync.WaitGroup
	var totalEvents uint64
	var mu sync.Mutex
	errs := make(chan error, hosts)
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int32) {
			defer wg.Done()
			m, network, mon, _, _ := buildPieces(seed, stop)
			st, err := RunHost(HostConfig{
				ID: h, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop,
				Timeout: 30 * time.Second, DialAttempts: 3,
			}, m, network, mon)
			if err != nil {
				errs <- err
				return
			}
			// A host spends most of a loopback run waiting for the coordinator:
			// that is S, and the decomposition may not exceed the wall time.
			if w := st.Workers[0]; w.S <= 0 || w.P <= 0 || w.T() > st.WallNS {
				errs <- fmt.Errorf("host %d: P=%d S=%d M=%d of wall %d ns", h, w.P, w.S, w.M, st.WallNS)
				return
			}
			mu.Lock()
			totalEvents += st.Events
			mu.Unlock()
		}(int32(h))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	out := <-coordCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.mon, out.rounds, totalEvents
}

// TestDistributedMatchesSequential is the capstone equivalence check:
// hosts connected by REAL TCP sockets produce bit-identical results to
// the in-process sequential kernel.
func TestDistributedMatchesSequential(t *testing.T) {
	const seed = 77
	stop := sim.Time(2 * sim.Millisecond)

	mRef, _, monRef, _, _ := buildPieces(seed, stop)
	refStats, err := des.New().Run(mRef)
	if err != nil {
		t.Fatal(err)
	}
	if monRef.Completed() == 0 {
		t.Fatal("reference run completed no flows")
	}

	for _, hosts := range []int{2, 4} {
		mon, rounds, events := runDistributed(t, seed, stop, hosts)
		if mon.Fingerprint() != monRef.Fingerprint() {
			t.Errorf("hosts=%d: distributed results diverge from sequential", hosts)
		}
		if mon.Completed() != monRef.Completed() {
			t.Errorf("hosts=%d: completed %d vs %d", hosts, mon.Completed(), monRef.Completed())
		}
		if rounds == 0 {
			t.Errorf("hosts=%d: no rounds", hosts)
		}
		// The distributed run executes every event the reference did minus
		// the stop global event.
		if events != refStats.Events-1 {
			t.Errorf("hosts=%d: events %d, want %d", hosts, events, refStats.Events-1)
		}
	}
}

// TestLiveSidebandCarriesEveryRound: the telemetry hosts send under Live
// reaches the coordinator whole. Every host's records cover every (round,
// worker) once, the last round included and each in its host's lane of
// workers, so their events fold to the run's; and the rows add up to the
// hosts' samplers', the final flush's included.
func TestLiveSidebandCarriesEveryRound(t *testing.T) {
	const seed, hosts, threads = 77, 2, 2
	stop := sim.Time(sim.Millisecond)
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, hosts)
	_, _, _, _, flows := buildPieces(seed, stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type slot struct {
		round  uint64
		worker int32
	}
	records := make([]map[slot]int, hosts)
	for h := range records {
		records[h] = map[slot]int{}
	}
	var events uint64
	var rows int
	cfg := CoordConfig{
		Hosts: hosts, StopAt: stop, Flows: flows, Timeout: 30 * time.Second,
		Stats: &sim.RunStats{},
		OnSideband: func(h int, side *Sideband) {
			for _, rec := range side.Recs {
				records[h][slot{rec.Round, rec.Worker}]++
				events += rec.Events
			}
			rows += len(side.Rows)
		},
	}
	errs := make([]error, 1+hosts)
	samplers := make([]*netobs.Sampler, hosts)
	var wg sync.WaitGroup
	wg.Add(1 + hosts)
	go func() {
		defer wg.Done()
		_, _, errs[0] = RunCoordinator(ln, cfg)
	}()
	for h := range int32(hosts) {
		go func() {
			defer wg.Done()
			m, network, mon, _, _ := buildPieces(seed, stop)
			samplers[h] = netobs.NewSampler(netobs.SamplerConfig{Interval: 50 * sim.Microsecond})
			network.AttachSampler(samplers[h])
			_, errs[1+h] = RunHost(HostConfig{
				ID: h, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop, Threads: threads,
				Timeout: 30 * time.Second, DialAttempts: 3, Live: true,
			}, m, network, mon)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := cfg.Stats
	if len(st.Workers) != hosts*threads {
		t.Errorf("the merged stats have %d workers; %d hosts ran %d each", len(st.Workers), hosts, threads)
	}
	for h, got := range records {
		for r := range st.Rounds {
			for w := range int32(threads) {
				if n := got[slot{r, int32(h)*threads + w}]; n != 1 {
					t.Fatalf("host %d: round %d of worker %d reached the coordinator %d times", h, r, w, n)
				}
			}
		}
		if want := int(st.Rounds) * threads; len(got) != want {
			t.Errorf("host %d: %d (round, worker) records reached the coordinator; the run had %d rounds of %d workers", h, len(got), st.Rounds, threads)
		}
	}
	if events != st.Events || st.Events == 0 {
		t.Errorf("the round records count %d events; the run executed %d", events, st.Events)
	}
	closed := 0
	for _, s := range samplers {
		closed += len(s.Rows())
	}
	if rows != closed || rows == 0 {
		t.Errorf("the sidebands carried %d rows; the hosts' samplers closed %d", rows, closed)
	}
}

func TestHostRejectsCrossHostScheduling(t *testing.T) {
	// A model that schedules a raw event onto a remote node must panic
	// with a clear message rather than corrupt the simulation.
	const stop = 100 * sim.Microsecond
	_, network, mon, ft, _ := buildPieces(1, stop)
	hostOf := pdes.FatTreeManual(ft, 2)
	remote := sim.NodeID(slices.Index(hostOf, 1))
	s := sim.NewSetup()
	s.At(0, sim.NodeID(slices.Index(hostOf, 0)), func(ctx *sim.Ctx) {
		ctx.Schedule(10*sim.Microsecond, remote, func(*sim.Ctx) {})
	})
	m := &sim.Model{Nodes: ft.N(), Links: ft.LinkInfos, Init: s.Events(), StopAt: stop}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := make(chan error, 1)
	go func() {
		_, _, err := RunCoordinator(ln, CoordConfig{Hosts: 1, StopAt: stop, Timeout: 10 * time.Second})
		coord <- err
	}()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-host raw scheduling did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "data plane") || !strings.Contains(msg, fmt.Sprint("node ", remote)) {
			t.Errorf("panic does not say what went wrong: %v", r)
		}
		if err := <-coord; err == nil {
			t.Error("coordinator finished a run whose only host panicked")
		}
	}()
	_, _ = RunHost(HostConfig{ID: 0, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop, Timeout: 10 * time.Second}, m, network, mon)
}

func TestHostConfigValidation(t *testing.T) {
	m, network, mon, _, _ := buildPieces(1, sim.Millisecond)
	if _, err := RunHost(HostConfig{ID: 0, Addr: "127.0.0.1:1", HostOf: nil, StopAt: sim.Millisecond}, m, network, mon); err == nil {
		t.Error("short HostOf accepted")
	}
	hostOf := make([]int32, m.Nodes)
	if _, err := RunHost(HostConfig{ID: 0, Addr: "127.0.0.1:1", HostOf: hostOf, StopAt: 0}, m, network, mon); err == nil {
		t.Error("zero StopAt accepted")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, _, err := RunCoordinator(ln, CoordConfig{Hosts: 0, StopAt: 1}); err == nil {
		t.Error("zero hosts accepted")
	}
	if _, _, err := RunCoordinator(ln, CoordConfig{Hosts: 1, StopAt: 0}); err == nil {
		t.Error("zero StopAt accepted")
	}
}
