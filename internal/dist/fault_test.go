package dist

import (
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unison/internal/des"
	"unison/internal/faults"
	"unison/internal/flowmon"
	"unison/internal/obs"
	"unison/internal/pdes"
	"unison/internal/sim"
	"unison/internal/topology"
)

// checkGoroutines asserts the test leaked no goroutines: every fault must
// unwind the coordinator, its per-host readers, and all hosts.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

// distResult is everything a faulted distributed run produced.
type distResult struct {
	mon      *flowmon.Monitor
	rounds   uint64
	coordErr error
	hostErrs []error
	elapsed  time.Duration
	// probes are what the coordinator (index 0) and host h (index 1+h) told
	// their probe: a Registry or record stream hangs off these calls.
	probes []pairProbe
}

// pairProbe counts the run boundaries an endpoint reported.
type pairProbe struct{ begins, ends int }

func (p *pairProbe) BeginRun(obs.RunMeta)     { p.begins++ }
func (p *pairProbe) EndRun(*sim.RunStats)     { p.ends++ }
func (p *pairProbe) OnRound(*obs.RoundRecord) {}

// checkProbesClosed asserts that every endpoint that began a run ended it,
// however the run went, and that the coordinator got as far as beginning.
func (r *distResult) checkProbesClosed(t *testing.T) {
	t.Helper()
	if r.probes[0].begins != 1 {
		t.Errorf("coordinator began %d runs, want 1", r.probes[0].begins)
	}
	for i, p := range r.probes {
		if p.begins != p.ends {
			t.Errorf("endpoint %d (0 = coordinator, 1+h = host h): %d BeginRun, %d EndRun", i, p.begins, p.ends)
		}
	}
}

// runFaulted drives a full coordinator + hosts run over ln (typically a
// faults.Listener) and returns every outcome. It fails the test if the
// whole ensemble has not unwound within hardCap — the "no hangs" half of
// the fault-matrix contract.
func runFaulted(t *testing.T, ln net.Listener, hosts int, stop sim.Time, timeout time.Duration, maxRounds uint64, hardCap time.Duration) distResult {
	t.Helper()
	const seed = 77
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, hosts)
	_, _, _, _, flows := buildPieces(seed, stop)

	var res distResult
	res.hostErrs = make([]error, hosts)
	res.probes = make([]pairProbe, 1+hosts)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.mon, res.rounds, res.coordErr = RunCoordinator(ln, CoordConfig{
				Hosts: hosts, StopAt: stop, Flows: flows, MaxRounds: maxRounds, Timeout: timeout,
				Observe: &res.probes[0],
			})
		}()
		for h := 0; h < hosts; h++ {
			wg.Add(1)
			go func(h int32) {
				defer wg.Done()
				m, network, mon, _, _ := buildPieces(seed, stop)
				_, res.hostErrs[h] = RunHost(HostConfig{
					ID: h, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop,
					Timeout: timeout, DialAttempts: 3, DialBackoff: 20 * time.Millisecond,
					Observe: &res.probes[1+h],
				}, m, network, mon)
			}(int32(h))
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(hardCap):
		t.Fatalf("distributed run still alive after %v — a fault produced a hang", hardCap)
	}
	res.elapsed = time.Since(start)
	return res
}

// TestFaultMatrix injects every faults.Action into one host's coordinator
// connection mid-run and asserts the whole ensemble — coordinator and all
// hosts, faulty and surviving alike — returns a descriptive error within
// the configured deadline, leaking nothing.
func TestFaultMatrix(t *testing.T) {
	const stop = 300 * sim.Microsecond
	cases := []struct {
		name    string
		plan    faults.Plan
		timeout time.Duration
	}{
		{"drop", faults.Plan{Action: faults.Drop, After: 2}, 1 * time.Second},
		{"delay", faults.Plan{Action: faults.Delay, After: 0, Latency: 1500 * time.Millisecond}, 500 * time.Millisecond},
		{"close", faults.Plan{Action: faults.Close, After: 1}, 1 * time.Second},
		{"garble", faults.Plan{Action: faults.Garble, After: 1, Seed: 7}, 1 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			base, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			ln := faults.WrapListener(base, 0, tc.plan)

			res := runFaulted(t, ln, 2, stop, tc.timeout, 0, 60*time.Second)
			if res.coordErr == nil {
				t.Errorf("%s: coordinator returned success through an injected fault", tc.name)
			} else if !strings.Contains(res.coordErr.Error(), "dist:") {
				t.Errorf("%s: coordinator error not descriptive: %v", tc.name, res.coordErr)
			}
			for h, err := range res.hostErrs {
				if err == nil {
					t.Errorf("%s: host %d returned success through an injected fault", tc.name, h)
				}
			}
			if tc.name == "close" {
				res.checkProbesClosed(t)
			}
			t.Logf("%s: coord=%v hosts=%v elapsed=%v", tc.name, res.coordErr, res.hostErrs, res.elapsed)
		})
	}
}

// TestFaultFreeWithTimeoutsMatchesSequential is the control arm of the
// matrix: the same wrapped listener with a no-op plan, deadlines armed on
// every message, must stay bit-identical to the sequential kernel.
func TestFaultFreeWithTimeoutsMatchesSequential(t *testing.T) {
	checkGoroutines(t)
	const seed = 77
	stop := sim.Time(1 * sim.Millisecond)

	mRef, _, monRef, _, _ := buildPieces(seed, stop)
	if _, err := des.New().Run(mRef); err != nil {
		t.Fatal(err)
	}

	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	ln := faults.WrapListener(base, -1, faults.Plan{}) // wraps nothing

	res := runFaulted(t, ln, 2, stop, 20*time.Second, 0, 120*time.Second)
	if res.coordErr != nil {
		t.Fatal(res.coordErr)
	}
	for h, err := range res.hostErrs {
		if err != nil {
			t.Fatalf("host %d: %v", h, err)
		}
	}
	if res.mon.Fingerprint() != monRef.Fingerprint() {
		t.Error("fault-free run with deadlines diverges from sequential")
	}
}

// fakeHost is a raw protocol endpoint for scripting misbehaving peers.
func fakeDial(t *testing.T, addr string) *conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return newConn(nc, 5*time.Second, "coordinator")
}

// TestHostDeathMidRound kills one host after its first min report; the
// coordinator must blame that host and the survivor must abort too.
func TestHostDeathMidRound(t *testing.T) {
	checkGoroutines(t)
	const seed, stop = 77, 300 * sim.Microsecond
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, 2)
	_, _, _, _, flows := buildPieces(seed, stop)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type out struct {
		coordErr, hostErr error
	}
	ch := make(chan out, 1)
	go func() {
		var o out
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _, o.coordErr = RunCoordinator(ln, CoordConfig{
				Hosts: 2, StopAt: stop, Flows: flows, Timeout: time.Second,
			})
		}()
		go func() {
			defer wg.Done()
			m, network, mon, _, _ := buildPieces(seed, stop)
			_, o.hostErr = RunHost(HostConfig{
				ID: 0, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop, Timeout: time.Second,
			}, m, network, mon)
		}()
		wg.Wait()
		ch <- o
	}()

	// Host 1 dies after one round of participation.
	fake := fakeDial(t, ln.Addr().String())
	if err := fake.send(&envelope{Kind: kHello, Host: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fake.send(&envelope{Kind: kMin, Host: 1, Min: 1}); err != nil {
		t.Fatal(err)
	}
	fake.close()

	select {
	case o := <-ch:
		if o.coordErr == nil || !strings.Contains(o.coordErr.Error(), "host 1") {
			t.Errorf("coordinator error does not blame host 1: %v", o.coordErr)
		}
		if o.hostErr == nil {
			t.Error("surviving host returned success after a peer died")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("host death produced a hang")
	}
}

// TestTruncatedHello feeds the coordinator a few garbage bytes and EOF.
func TestTruncatedHello(t *testing.T) {
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan error, 1)
	go func() {
		_, _, err := RunCoordinator(ln, CoordConfig{Hosts: 1, StopAt: 1, Timeout: time.Second})
		ch <- err
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte{0x01, 0x02, 0x03})
	nc.Close()
	select {
	case err := <-ch:
		if err == nil || !strings.Contains(err.Error(), "hello") {
			t.Errorf("truncated hello not diagnosed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("truncated hello produced a hang")
	}
}

// TestWrongKindHello checks the kind-mismatch diagnostic names both kinds
// and the peer.
func TestWrongKindHello(t *testing.T) {
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan error, 1)
	go func() {
		_, _, err := RunCoordinator(ln, CoordConfig{Hosts: 1, StopAt: 1, Timeout: time.Second})
		ch <- err
	}()
	fake := fakeDial(t, ln.Addr().String())
	if err := fake.send(&envelope{Kind: kMin, Host: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if err == nil || !strings.Contains(err.Error(), "expected hello, got min") {
			t.Errorf("kind mismatch not diagnosed by name: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wrong-kind hello produced a hang")
	}
}

// TestDuplicateHostID: two hosts claiming the same id must fail the
// handshake, and the host that registered first must receive the abort
// (not hang waiting for a round that will never start).
func TestDuplicateHostID(t *testing.T) {
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan error, 1)
	go func() {
		_, _, err := RunCoordinator(ln, CoordConfig{Hosts: 2, StopAt: 1, Timeout: 2 * time.Second})
		ch <- err
	}()
	a := fakeDial(t, ln.Addr().String())
	if err := a.send(&envelope{Kind: kHello, Host: 0}); err != nil {
		t.Fatal(err)
	}
	b := fakeDial(t, ln.Addr().String())
	if err := b.send(&envelope{Kind: kHello, Host: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if err == nil || !strings.Contains(err.Error(), "duplicate host id 0") {
			t.Errorf("duplicate id not diagnosed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("duplicate hello produced a hang")
	}
	// One of the two fakes was registered first; it must be told why the
	// run died rather than left hanging.
	aborted := 0
	for _, f := range []*conn{a, b} {
		if e, err := f.recvAny(); err == nil && e.Kind == kAbort && strings.Contains(e.Err, "duplicate") {
			aborted++
		}
	}
	if aborted == 0 {
		t.Error("no fake host received the abort broadcast")
	}
}

// TestAbsentHost: a host that never connects must bound the handshake by
// the accept deadline, and the host that DID connect must learn of the
// abort.
func TestAbsentHost(t *testing.T) {
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := RunCoordinator(ln, CoordConfig{Hosts: 2, StopAt: 1, Timeout: 400 * time.Millisecond})
		ch <- err
	}()
	fake := fakeDial(t, ln.Addr().String())
	if err := fake.send(&envelope{Kind: kHello, Host: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if err == nil || !strings.Contains(err.Error(), "accept (1 of 2 hosts connected)") {
			t.Errorf("absent host not diagnosed: %v", err)
		}
		if e := time.Since(start); e > 5*time.Second {
			t.Errorf("accept deadline took %v, want ~400ms", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("absent host produced a hang")
	}
	if e, err := fake.recvAny(); err != nil || e.Kind != kAbort {
		t.Errorf("connected host did not receive the abort: %v %v", e, err)
	}
}

// TestMaxRoundsAborts: exceeding MaxRounds is an error on the coordinator
// AND every host, mirroring the core kernel's contract.
func TestMaxRoundsAborts(t *testing.T) {
	checkGoroutines(t)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	res := runFaulted(t, base, 2, 2*sim.Millisecond, 10*time.Second, 3, 60*time.Second)
	if res.coordErr == nil || !strings.Contains(res.coordErr.Error(), "MaxRounds exceeded") {
		t.Errorf("coordinator: %v, want MaxRounds exceeded", res.coordErr)
	}
	for h, err := range res.hostErrs {
		if err == nil || !strings.Contains(err.Error(), "MaxRounds exceeded") {
			t.Errorf("host %d: %v, want the abort to carry MaxRounds exceeded", h, err)
		}
	}
	res.checkProbesClosed(t)
}

// TestDialRetryCoversStartupRace: hosts launched before the coordinator
// listens must connect once it appears, within the backoff budget.
func TestDialRetryCoversStartupRace(t *testing.T) {
	checkGoroutines(t)
	const seed, stop = 77, 200 * sim.Microsecond
	// Reserve an address, then release it so the first dial attempts fail.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	tmp.Close()

	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, 1)
	_, _, _, _, flows := buildPieces(seed, stop)

	hostCh := make(chan error, 1)
	go func() {
		m, network, mon, _, _ := buildPieces(seed, stop)
		_, err := RunHost(HostConfig{
			ID: 0, Addr: addr, HostOf: hostOf, StopAt: stop,
			Timeout: 10 * time.Second, DialAttempts: 8, DialBackoff: 30 * time.Millisecond,
		}, m, network, mon)
		hostCh <- err
	}()

	time.Sleep(150 * time.Millisecond) // the startup race window
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	_, _, coordErr := RunCoordinator(ln, CoordConfig{
		Hosts: 1, StopAt: stop, Flows: flows, Timeout: 10 * time.Second,
	})
	if coordErr != nil {
		t.Fatal(coordErr)
	}
	select {
	case err := <-hostCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("host never finished")
	}
}

// TestDialRetryBounded: with nobody listening, the host gives up after
// exactly DialAttempts and says so.
func TestDialRetryBounded(t *testing.T) {
	checkGoroutines(t)
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	tmp.Close()

	_, _, err = dialCoordinator(HostConfig{ID: 3, Addr: addr, DialAttempts: 2, DialBackoff: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "2 attempts") {
		t.Errorf("retry budget not reported: %v", err)
	}
}

// TestKindString pins the diagnostic names on the wire constants.
func TestKindString(t *testing.T) {
	want := map[msgKind]string{
		kHello: "hello", kMin: "min", kWindow: "window", kFlush: "flush",
		kEvents: "events", kDone: "done", kGather: "gather", kAbort: "abort",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d: %q, want %q", byte(k), k.String(), s)
		}
	}
	if got := msgKind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind: %q", got)
	}
}

// TestHostRejectsBadInbox: the events message is wire input. A coordinator
// (or whatever sits on its port) delivering an event for a node that does
// not exist, that another host owns, or at a time inside the window the
// host already executed gets a bounded, descriptive error — not an index
// panic, and not a quietly corrupted event order.
func TestHostRejectsBadInbox(t *testing.T) {
	const seed, stop = 77, 300 * sim.Microsecond
	ft := topology.BuildFatTree(topology.FatTreeK(4, 1_000_000_000, 3*sim.Microsecond))
	hostOf := pdes.FatTreeManual(ft, 2)
	mine, theirs := sim.NodeID(slices.Index(hostOf, 0)), sim.NodeID(slices.Index(hostOf, 1))
	for _, tc := range []struct {
		name string
		ev   RemoteEvent
	}{
		{"node past the end", RemoteEvent{Time: stop, Node: sim.NodeID(len(hostOf))}},
		{"negative node", RemoteEvent{Time: stop, Node: -7}},
		{"another host's node", RemoteEvent{Time: stop, Node: theirs}},
		{"inside the window", RemoteEvent{Time: 0, Node: mine}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			// The fake coordinator plays one honest round up to the inbox.
			coord := make(chan error, 1)
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					coord <- err
					return
				}
				defer nc.Close()
				c := newConn(nc, 5*time.Second, "host 0")
				script := func() error {
					if _, err := c.recv(kHello); err != nil {
						return err
					}
					min, err := c.recv(kMin)
					if err != nil {
						return err
					}
					if err := c.send(&envelope{Kind: kWindow, Min: min.Min}); err != nil {
						return err
					}
					if _, err := c.recv(kFlush); err != nil {
						return err
					}
					return c.send(&envelope{Kind: kEvents, Events: []RemoteEvent{tc.ev}})
				}
				err = script()
				for err == nil { // the host hangs up; until then say nothing more
					_, err = c.recvAny()
				}
				coord <- nil
			}()
			m, network, mon, _, _ := buildPieces(seed, stop)
			_, err = RunHost(HostConfig{
				ID: 0, Addr: ln.Addr().String(), HostOf: hostOf, StopAt: stop, Timeout: 5 * time.Second,
			}, m, network, mon)
			if err == nil || !strings.Contains(err.Error(), "dist: host 0: coordinator delivered") {
				t.Errorf("host error %v, want it to say what the coordinator delivered", err)
			}
			if err := <-coord; err != nil {
				t.Fatal(err)
			}
		})
	}
}
