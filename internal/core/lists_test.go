package core

import (
	"fmt"
	"slices"
	"testing"

	"unison/internal/sim"
)

// tokenModel is n nodes in a line (every link the same delay, so every node
// its own LP) with one token bouncing over the link 0–1 until `until`. A
// sleeper event waits far in the future on the last node, and at wake a
// global event schedules directly onto node n-2, which has been idle since
// the start; both just run and die.
func tokenModel(n int, delay, wake, until sim.Time) *sim.Model {
	links := make([]sim.LinkInfo, n-1)
	for i := range links {
		links[i] = sim.LinkInfo{A: sim.NodeID(i), B: sim.NodeID(i + 1), Delay: delay, Stateless: true, Up: true}
	}
	var bounce sim.Proc
	bounce = func(ctx *sim.Ctx) {
		if ctx.Now() < until {
			ctx.Schedule(delay, 1-ctx.Node(), bounce)
		}
	}
	nop := func(*sim.Ctx) {}
	s := sim.NewSetup()
	s.At(0, 0, bounce)
	s.At(wake+delay/2, sim.NodeID(n-1), nop)
	s.Global(wake, func(ctx *sim.Ctx) { ctx.Schedule(1, sim.NodeID(n-2), nop) })
	return &sim.Model{Nodes: n, Links: func() []sim.LinkInfo { return links }, Init: s.Events()}
}

// TestIdleLPsAreSkipped drives the engine's steps the way both drivers do —
// Process what Group lists to run, Receive what it lists to receive,
// nothing else — and checks against a scan of every FEL that the lists were
// exactly right: the run list is the LPs with an event inside the window,
// every listed LP had one, and after phase 3 every LP's cached next time is
// its FEL's, the unvisited ones included. The step calls therefore number
// Σ|run| + Σ|recv|; for one token that is a few per round, whether the
// model has 64 LPs or 4096.
func TestIdleLPsAreSkipped(t *testing.T) {
	const delay, rounds = 500, 300
	calls := map[int]int{}
	for _, n := range []int{64, 4096} {
		m := tokenModel(n, delay, 100*delay+delay/2, rounds*delay)
		part := FineGrained(n, m.Links())
		if part.Count != n {
			t.Fatalf("%d LPs for %d nodes", part.Count, n)
		}
		e, err := NewEngine(m, Shape{Name: "steps", Part: part, PerGroup: 1, Cfg: Config{Period: 3}})
		if err != nil {
			t.Fatal(err)
		}
		th := e.NewThread()
		for !e.Done() {
			run, _ := e.Group(0)
			var want []int32
			for _, lp := range e.groups[0].order {
				if e.lps[lp].fel.NextTime() < e.lbts {
					want = append(want, lp)
				}
			}
			if !slices.Equal(run, want) {
				t.Fatalf("n=%d round %d: run list %v, FELs say %v", n, e.round, run, want)
			}
			th.StartRound()
			for _, lp := range run {
				if nev, _ := th.Process(0, lp); nev == 0 {
					t.Fatalf("n=%d round %d: LP %d was listed to run and had no event", n, e.round, lp)
				}
			}
			th.Globals()
			_, recv := e.Group(0)
			if !slices.IsSorted(recv) {
				t.Fatalf("n=%d round %d: recv list %v not in index order", n, e.round, recv)
			}
			for _, lp := range recv {
				th.Receive(lp)
			}
			for lp := range e.lps {
				if got, want := e.next[lp], e.lps[lp].fel.NextTime(); got != want {
					t.Fatalf("n=%d round %d: LP %d cached next %v, FEL has %v (on recv list: %v)",
						n, e.round, lp, got, want, slices.Contains(recv, int32(lp)))
				}
			}
			calls[n] += len(run) + len(recv)
			e.Advance()
		}
		if e.round < rounds {
			t.Fatalf("n=%d: only %d rounds", n, e.round)
		}
		if ev, _ := e.totals(); ev != rounds+1+3 {
			t.Fatalf("n=%d: %d events, want the token's %d, the sleeper, the global and its insert", n, ev, rounds+1)
		}
		if max := 4 * int(e.round); calls[n] > max {
			t.Fatalf("n=%d: %d step calls in %d rounds, want at most %d", n, calls[n], e.round, max)
		}
	}
	if calls[64] != calls[4096] {
		t.Fatalf("step calls depend on the LP count: %d with 64 LPs, %d with 4096", calls[64], calls[4096])
	}
}

// BenchmarkEmptyRound is the fixed cost of a round: Unison with 2 threads
// and one event bouncing over one link, so a round is (almost) no work —
// what bench's core.empty_round_ns driver measures from outside, where every
// such round is fused. "shared" makes it two barrier episodes instead. The
// LP count is the variable: the cost must not follow it.
func BenchmarkEmptyRound(b *testing.B) {
	for _, rule := range []struct {
		name string
		rule int
	}{{"fused", fuseByCount}, {"shared", fuseNever}} {
		for _, n := range []int{208, 1344, 8192} {
			b.Run(fmt.Sprintf("%s/lps=%d", rule.name, n), func(b *testing.B) {
				defer func(old int) { fuseRule = old }(fuseRule)
				fuseRule = rule.rule
				m := tokenModel(n, 500, sim.MaxTime/2, sim.Time(b.N)*500)
				b.ResetTimer()
				st, err := New(Config{Threads: 2}).Run(m)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(st.Rounds), "ns/round")
			})
		}
	}
}
