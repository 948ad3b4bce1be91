package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1000, "1µs"},
		{1500, "1.5µs"},
		{3 * Microsecond, "3µs"},
		{Millisecond, "1ms"},
		{2500 * Microsecond, "2.5ms"},
		{Second, "1s"},
		{MaxTime, "∞"},
		{-1500, "-1.5µs"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Fatal("Second.Seconds() != 1")
	}
	if (500 * Millisecond).Seconds() != 0.5 {
		t.Fatal("500ms != 0.5s")
	}
}

func TestEventBeforeTotalOrder(t *testing.T) {
	f := func(t1, t2 uint16, s1, s2 int8, q1, q2 uint8) bool {
		a := Event{Time: Time(t1), Src: NodeID(s1), Seq: uint64(q1)}
		b := Event{Time: Time(t2), Src: NodeID(s2), Seq: uint64(q2)}
		ab, ba := a.Before(&b), b.Before(&a)
		same := a.Time == b.Time && a.Src == b.Src && a.Seq == b.Seq
		if same {
			return !ab && !ba
		}
		return ab != ba // strict total order: exactly one direction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type recordSink struct {
	events  []Event
	globals []Event
}

func (r *recordSink) Put(ev Event)       { r.events = append(r.events, ev) }
func (r *recordSink) PutGlobal(ev Event) { r.globals = append(r.globals, ev) }

func TestCtxScheduleStampsIdentity(t *testing.T) {
	sink := &recordSink{}
	ctx := NewCtx(sink, 3)
	seqs := NewSeqTable(4)
	ev := Event{Time: 100, Node: 2}
	ctx.Begin(&ev, seqs.Of(2))
	ctx.Schedule(50, 1, func(*Ctx) {})
	ctx.ScheduleAt(200, 3, func(*Ctx) {})
	ctx.ScheduleGlobal(300, func(*Ctx) {})
	if len(sink.events) != 2 || len(sink.globals) != 1 {
		t.Fatalf("events=%d globals=%d", len(sink.events), len(sink.globals))
	}
	if sink.events[0].Time != 150 || sink.events[0].Src != 2 || sink.events[0].Seq != 0 {
		t.Fatalf("first event stamped %+v", sink.events[0])
	}
	if sink.events[1].Seq != 1 {
		t.Fatalf("seq not incremented: %+v", sink.events[1])
	}
	if sink.globals[0].Node != GlobalNode || sink.globals[0].Seq != 2 {
		t.Fatalf("global stamped %+v", sink.globals[0])
	}
	if *seqs.Of(2) != 3 {
		t.Fatalf("seq table cell = %d, want 3", *seqs.Of(2))
	}
}

func TestCtxSchedulePastPanics(t *testing.T) {
	sink := &recordSink{}
	ctx := NewCtx(sink, 0)
	seqs := NewSeqTable(1)
	ev := Event{Time: 100, Node: 0}
	ctx.Begin(&ev, seqs.Of(0))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	ctx.ScheduleAt(50, 0, func(*Ctx) {})
}

func TestCtxStop(t *testing.T) {
	ctx := NewCtx(&recordSink{}, 0)
	if ctx.Stopped() {
		t.Fatal("fresh ctx stopped")
	}
	ctx.Stop()
	if !ctx.Stopped() {
		t.Fatal("Stop did not stick")
	}
	ctx.ClearStopped()
	if ctx.Stopped() {
		t.Fatal("ClearStopped did not clear")
	}
}

func TestSeqTableGlobalSlot(t *testing.T) {
	seqs := NewSeqTable(3)
	*seqs.Of(GlobalNode) = 7
	if *seqs.Of(GlobalNode) != 7 {
		t.Fatal("global slot lost its value")
	}
	for n := NodeID(0); n < 3; n++ {
		if *seqs.Of(n) != 0 {
			t.Fatal("node slots polluted")
		}
	}
}

func TestModelValidate(t *testing.T) {
	links := func() []LinkInfo { return nil }
	good := &Model{Nodes: 2, Links: links}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []*Model{
		{Nodes: 0, Links: links},
		{Nodes: 2},
		{Nodes: 2, Links: links, Init: []Event{{Src: 0, Node: 0, Fn: func(*Ctx) {}}}},        // Src != SetupSrc
		{Nodes: 2, Links: links, Init: []Event{{Src: SetupSrc, Node: 5, Fn: func(*Ctx) {}}}}, // node out of range
		{Nodes: 2, Links: links, Init: []Event{{Src: SetupSrc, Node: 0}}},                    // nil Fn
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestSetupOrdering(t *testing.T) {
	s := NewSetup()
	s.At(10, 1, func(*Ctx) {})
	s.Global(20, func(*Ctx) {})
	s.At(5, 0, func(*Ctx) {})
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("events=%d", len(evs))
	}
	for i, ev := range evs {
		if ev.Src != SetupSrc || ev.Seq != uint64(i) {
			t.Fatalf("event %d stamped (%d,%d)", i, ev.Src, ev.Seq)
		}
	}
	if evs[1].Node != GlobalNode {
		t.Fatal("Global did not target GlobalNode")
	}
}

// TestSetupReserve: a reserved block keeps every later setup event's
// identity, and a reserved identity is placed at set-up or redeemed, from
// its own node only, under SetupSrc.
func TestSetupReserve(t *testing.T) {
	s := NewSetup()
	s.At(0, 1, func(*Ctx) {})
	base := s.Reserve(3)
	s.At(0, 1, func(*Ctx) {})
	s.AtReserved(7, 2, base+1, func(*Ctx) {}, nil)
	evs := s.Events()
	if base != 1 || evs[1].Seq != 4 || evs[2].Seq != base+1 || evs[2].Src != SetupSrc || evs[2].Node != 2 {
		t.Fatalf("base %d, events %+v", base, evs)
	}

	sink := &recordSink{}
	ctx := NewCtx(sink, 0)
	seqs := NewSeqTable(3)
	ctx.Begin(&Event{Time: 7, Src: SetupSrc, Seq: base + 1, Node: 2}, seqs.Of(2))
	ctx.RedeemSetup(9, 2, base+2, func(*Ctx) {}, nil)
	if got := sink.events[0]; got.Time != 9 || got.Src != SetupSrc || got.Seq != base+2 || got.Node != 2 || *seqs.Of(2) != 0 {
		t.Fatalf("redeemed %+v, node counter %d", got, *seqs.Of(2))
	}
	for name, f := range map[string]func(){
		"redeem from another node": func() { ctx.RedeemSetup(9, 1, base, func(*Ctx) {}, nil) },
		"redeem into the past":     func() { ctx.RedeemSetup(6, 2, base, func(*Ctx) {}, nil) },
		"place an unreserved one":  func() { s.AtReserved(0, 1, 5, func(*Ctx) {}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunStatsAccounting(t *testing.T) {
	st := &RunStats{Workers: []WorkerStats{
		{P: 60, S: 30, M: 10},
		{P: 40, S: 50, M: 10},
	}}
	if st.TotalP() != 100 || st.TotalS() != 80 || st.TotalM() != 20 {
		t.Fatalf("totals P=%d S=%d M=%d", st.TotalP(), st.TotalS(), st.TotalM())
	}
	if got := st.SRatio(); got != 0.4 {
		t.Fatalf("SRatio=%v", got)
	}
	if (WorkerStats{P: 1, S: 2, M: 3}).T() != 6 {
		t.Fatal("WorkerStats.T wrong")
	}
	empty := &RunStats{}
	if empty.SRatio() != 0 {
		t.Fatal("empty SRatio not 0")
	}
}

func TestTimeStringNoSpaces(t *testing.T) {
	for _, v := range []Time{1, 999, 12345, 99 * Millisecond, 3 * Second} {
		if strings.ContainsAny(v.String(), " \t") {
			t.Fatalf("Time string %q contains whitespace", v.String())
		}
	}
}
