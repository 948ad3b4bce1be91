package des

import (
	"testing"

	"unison/internal/sim"
)

// chainModel schedules a chain of n events hopping between two nodes.
func chainModel(n int) (*sim.Model, *[]sim.Time) {
	times := &[]sim.Time{}
	s := sim.NewSetup()
	var hop func(ctx *sim.Ctx)
	remaining := n
	hop = func(ctx *sim.Ctx) {
		*times = append(*times, ctx.Now())
		remaining--
		if remaining > 0 {
			next := sim.NodeID(0)
			if ctx.Node() == 0 {
				next = 1
			}
			ctx.Schedule(10, next, hop)
		}
	}
	s.At(0, 0, hop)
	return &sim.Model{
		Nodes: 2,
		Links: func() []sim.LinkInfo { return nil },
		Init:  s.Events(),
	}, times
}

func TestRunChain(t *testing.T) {
	m, times := chainModel(100)
	st, err := New().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 100 {
		t.Fatalf("events=%d", st.Events)
	}
	if st.EndTime != 990 {
		t.Fatalf("end=%v", st.EndTime)
	}
	for i, tm := range *times {
		if tm != sim.Time(i*10) {
			t.Fatalf("event %d at %v", i, tm)
		}
	}
	if st.LPs != 1 || len(st.Workers) != 1 {
		t.Fatal("sequential stats shape wrong")
	}
	if st.Workers[0].P != st.WallNS {
		t.Fatalf("P=%d != WallNS=%d: the one worker's processing time is the run's wall time", st.Workers[0].P, st.WallNS)
	}
}

func TestStopTerminatesEarly(t *testing.T) {
	m, _ := chainModel(1000)
	s := sim.NewSetup()
	s.Global(55, func(ctx *sim.Ctx) { ctx.Stop() })
	m.Init = append(m.Init, s.Events()...)
	// Re-stamp: the stop event must carry a fresh setup sequence; simplest
	// is to rebuild Init deterministically.
	for i := range m.Init {
		m.Init[i].Seq = uint64(i)
	}
	st, err := New().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	// Events at 0..50 plus the stop event itself.
	if st.Events != 7 {
		t.Fatalf("events=%d, want 7", st.Events)
	}
	if st.EndTime != 55 {
		t.Fatalf("end=%v", st.EndTime)
	}
}

func TestSameTimestampOrderedBySrcSeq(t *testing.T) {
	var order []int
	s := sim.NewSetup()
	// Three events at the same timestamp from setup: executed in Seq order.
	for i := 0; i < 3; i++ {
		i := i
		s.At(100, sim.NodeID(i%2), func(*sim.Ctx) { order = append(order, i) })
	}
	m := &sim.Model{Nodes: 2, Links: func() []sim.LinkInfo { return nil }, Init: s.Events()}
	if _, err := New().Run(m); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order=%v", order)
	}
}

func TestInvalidModelRejected(t *testing.T) {
	if _, err := New().Run(&sim.Model{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestEmptyModelTerminates(t *testing.T) {
	m := &sim.Model{Nodes: 1, Links: func() []sim.LinkInfo { return nil }}
	st, err := New().Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 {
		t.Fatal("phantom events")
	}
}
