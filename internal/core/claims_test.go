package core_test

import (
	"fmt"
	"testing"

	"unison/internal/core"
	"unison/internal/des"
	"unison/internal/sim"
)

// pingModel is a chain of n nodes, one LP each, where a single token
// bounces over the link 0–1 and nothing else happens: with fewer than n/2
// homes, every LP a round lists is in the first, and every other worker
// gets work only by stealing.
func pingModel(n int, d sim.Time) *sparseModel {
	sm := &sparseModel{log: newEvLog(n)}
	var ping sim.Proc
	ping = func(ctx *sim.Ctx) {
		sm.log.note(ctx, 1)
		if ctx.Now() < 200*d {
			ctx.ScheduleDesc(d, 1-ctx.Node(), ping, testDesc{})
		}
	}
	s := sim.NewSetup()
	s.AtDesc(0, 0, ping, testDesc{})
	sm.Model = &sim.Model{Nodes: n, Links: lineTopo(n, d).LinkInfos, Init: s.Events()}
	return sm
}

// TestClaimsExactlyOnce: under the live driver's claim protocol — each
// worker its own home's share first, then the others' — every LP on a
// round's run list is processed exactly once and every LP on its recv list
// received exactly once (core.RunClaims checks both, and the shares, every
// phase), whether the workers claim concurrently or one after another, and
// the run executes the events the sequential kernel does. The models cover
// lists shorter than the group's workers, homes with no LP (5 LPs, 8
// workers), every listed LP on one home (ping-64), and random sparse
// activity with global events inserting anywhere.
func TestClaimsExactlyOnce(t *testing.T) {
	models := []struct {
		name string
		mk   func() *sparseModel
	}{
		{"ping-64", func() *sparseModel { return pingModel(64, 500) }},
		{"ping-5", func() *sparseModel { return pingModel(5, 500) }},
		{"sparse-64", func() *sparseModel { return newSparseModel(64, 500) }},
	}
	for seed := int64(1); seed <= 40; seed++ {
		models = append(models, struct {
			name string
			mk   func() *sparseModel
		}{fmt.Sprintf("gen-%d", seed), func() *sparseModel { return genModel(seed) }})
	}
	unison := func(per int) func(m *sim.Model, c core.Config) core.Shape {
		return func(m *sim.Model, c core.Config) core.Shape {
			return core.Shape{Name: "unison", Part: core.FineGrained(m.Nodes, m.Links()), PerGroup: per, Cfg: c}
		}
	}
	hybrid := func(hosts, per int) func(m *sim.Model, c core.Config) core.Shape {
		return func(m *sim.Model, c core.Config) core.Shape {
			sh, err := core.HybridShape(m.Nodes, spread(m.Nodes, hosts), m.Links(), per, c)
			if err != nil {
				t.Fatal(err)
			}
			sh.Name = "hybrid"
			return sh
		}
	}
	shapes := []struct {
		name  string
		shape func(m *sim.Model, c core.Config) core.Shape
	}{
		{"unison-1x2", unison(2)}, {"unison-1x3", unison(3)}, {"unison-1x4", unison(4)}, {"unison-1x8", unison(8)},
		{"hybrid-2x2", hybrid(2, 2)}, {"hybrid-3x3", hybrid(3, 3)},
	}
	for i, mod := range models {
		ref := mod.mk()
		want, err := des.New().Run(ref.Model)
		if err != nil {
			t.Fatal(err)
		}
		c := core.Config{Metric: core.Metric(i % 3), Period: i % 4}
		for _, sh := range shapes {
			for _, serial := range []bool{false, true} {
				got := mod.mk()
				st, err := core.RunClaims(got.Model, sh.shape(got.Model, c), serial)
				if err == nil {
					err = got.log.equals(ref.log, st, want)
				}
				if err != nil {
					t.Fatalf("%s, %s (%v, period %d, serial %v): %v", mod.name, sh.name, c.Metric, c.Period, serial, err)
				}
			}
		}
	}
}
