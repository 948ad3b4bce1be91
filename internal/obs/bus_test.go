package obs

import (
	"sync"
	"testing"

	"unison/internal/sim"
)

func TestBusFanOut(t *testing.T) {
	inner := &captureProbe{}
	b := NewBus(inner)
	s1 := b.Subscribe(8)
	s2 := b.Subscribe(8)

	b.BeginRun(RunMeta{Kernel: "k", Workers: 2, LPs: 4})
	rec := RoundRecord{Round: 3, Worker: 1, Events: 7, ProcNS: 11}
	b.OnRound(&rec)
	// Mutate the kernel-owned record after the call: subscribers must have
	// received a copy, not a reference.
	rec.Events = 999
	st := &sim.RunStats{Kernel: "k", Events: 7}
	b.EndRun(st)

	for i, s := range []*Sub{s1, s2} {
		ev := <-s.C()
		if ev.Kind != EvBegin || ev.Meta.Kernel != "k" || ev.Meta.Workers != 2 {
			t.Fatalf("sub %d: begin event = %+v", i, ev)
		}
		ev = <-s.C()
		if ev.Kind != EvRound || ev.Rec.Round != 3 || ev.Rec.Events != 7 {
			t.Fatalf("sub %d: round event = %+v (want copy with Events=7)", i, ev)
		}
		ev = <-s.C()
		if ev.Kind != EvEnd || ev.Final != st {
			t.Fatalf("sub %d: end event = %+v", i, ev)
		}
	}

	// The inner probe saw every call, synchronously.
	if len(inner.recs) != 1 || inner.recs[0].Round != 3 {
		t.Fatalf("inner probe records = %+v", inner.recs)
	}
	if inner.begins != 1 || inner.ends != 1 {
		t.Fatalf("inner begins/ends = %d/%d", inner.begins, inner.ends)
	}
}

func TestBusDropsWhenSubscriberFull(t *testing.T) {
	b := NewBus(nil)
	s := b.Subscribe(2)
	for i := 0; i < 5; i++ {
		b.OnRound(&RoundRecord{Round: uint64(i)})
	}
	if got := s.Drops(); got != 3 {
		t.Fatalf("sub drops = %d, want 3", got)
	}
	if got := b.Drops(); got != 3 {
		t.Fatalf("bus drops = %d, want 3", got)
	}
	// The buffered events are the first two; nothing blocked.
	ev := <-s.C()
	if ev.Rec.Round != 0 {
		t.Fatalf("first buffered round = %d", ev.Rec.Round)
	}
}

func TestBusUnsubscribe(t *testing.T) {
	b := NewBus(nil)
	s := b.Subscribe(1)
	s.Close()
	s.Close() // idempotent
	if _, ok := <-s.C(); ok {
		t.Fatal("channel still open after Close")
	}
	// Publishing after unsubscribe neither panics nor counts drops.
	b.OnRound(&RoundRecord{Round: 1})
	if b.Drops() != 0 {
		t.Fatalf("drops after unsubscribe = %d", b.Drops())
	}
}

func TestBusUnattachedPublishesNothing(t *testing.T) {
	b := NewBus(nil)
	// No subscriber: all three callbacks must be safe no-ops.
	b.BeginRun(RunMeta{})
	b.OnRound(&RoundRecord{})
	b.EndRun(&sim.RunStats{})
	if b.Drops() != 0 {
		t.Fatalf("drops = %d", b.Drops())
	}
}

// TestBusConcurrentPublishSubscribe exercises publish racing with
// subscribe/unsubscribe under -race: a publisher may still hold a Sub that
// Close removed, and must neither send on a closed channel nor keep the
// channel from closing.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus(nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.OnRound(&RoundRecord{Round: uint64(i)})
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s := b.Subscribe(4)
		for j := 0; j < 3; j++ {
			select {
			case <-s.C():
			default:
			}
		}
		s.Close()
		for range s.C() { // returns once the channel is closed
		}
	}
	close(stop)
	wg.Wait()
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("all-nil Tee should be nil")
	}
	a := &captureProbe{}
	if got := Tee(nil, a); got != Probe(a) {
		t.Fatal("single-probe Tee should return the probe itself")
	}
	bProbe := &captureProbe{}
	tee := Tee(a, nil, bProbe)
	tee.BeginRun(RunMeta{Workers: 1})
	tee.OnRound(&RoundRecord{Round: 9})
	tee.EndRun(&sim.RunStats{})
	for i, p := range []*captureProbe{a, bProbe} {
		if p.begins != 1 || p.ends != 1 || len(p.recs) != 1 || p.recs[0].Round != 9 {
			t.Fatalf("probe %d missed calls: %+v", i, p)
		}
	}
}

// captureProbe records every callback for assertions.
type captureProbe struct {
	begins, ends int
	recs         []RoundRecord
}

func (c *captureProbe) BeginRun(RunMeta)         { c.begins++ }
func (c *captureProbe) OnRound(rec *RoundRecord) { c.recs = append(c.recs, *rec) }
func (c *captureProbe) EndRun(st *sim.RunStats)  { c.ends++ }
