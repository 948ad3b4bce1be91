package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"unison/internal/sim"
	"unison/internal/topology"
)

// RunClaims runs m under sh through the live driver's homes and claim
// protocol, but one phase at a time: every worker claims on a goroutine of
// its own or, if serial, the workers claim one after another, last worker
// first, so that the first of each group takes all of its group's listed
// LPs — its own home's share, then the others' by stealing, in order. Before
// a phase it checks that each home's share is exactly its LPs of the list,
// in list order; after it, that every listed LP was claimed exactly once,
// and nothing else was.
func RunClaims(m *sim.Model, sh Shape, serial bool) (*sim.RunStats, error) {
	start := time.Now()
	e, err := NewEngine(m, sh)
	if err != nil {
		return nil, err
	}
	l := newLive(e)
	threads := make([]*Thread, len(e.workers))
	for w := range threads {
		threads[w] = e.NewThread()
	}
	claimed := make([]atomic.Int32, sh.Part.Count)
	order := make([][]int32, len(threads)) // what each worker claimed, in order
	phase := func(list int, step func(w int, lp int32)) error {
		whole := func(g *group) []int32 {
			if list == runList {
				return g.run
			}
			return g.recv
		}
		for i := range e.groups {
			g := &e.groups[i]
			for h := range g.homes {
				var want []int32
				for _, lp := range whole(g) {
					if l.homeOf[lp] == int32(h) {
						want = append(want, lp)
					}
				}
				if got := g.homes[h].share[list]; !slices.Equal(got, want) {
					return fmt.Errorf("round %d, list %d: home %d shares %v, its LPs on the list are %v", e.round, list, h, got, want)
				}
			}
		}
		var wg sync.WaitGroup
		for w := len(threads) - 1; w >= 0; w-- {
			g := &e.groups[e.first+w/sh.PerGroup]
			order[w] = order[w][:0]
			work := func() {
				claim(g.homes, w%sh.PerGroup, list, whole(g), func(lp int32) {
					claimed[lp].Add(1)
					order[w] = append(order[w], lp)
					step(w, lp)
				})
			}
			if serial {
				work()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
		for i := range e.groups {
			for _, lp := range whole(&e.groups[i]) {
				if n := claimed[lp].Swap(0); n != 1 {
					return fmt.Errorf("round %d, list %d: LP %d claimed %d times", e.round, list, lp, n)
				}
			}
		}
		for lp := range claimed {
			if n := claimed[lp].Load(); n != 0 {
				return fmt.Errorf("round %d, list %d: LP %d is not on it and was claimed %d times", e.round, list, lp, n)
			}
		}
		if !serial {
			return nil
		}
		for w := range threads {
			g, mine := &e.groups[e.first+w/sh.PerGroup], w%sh.PerGroup
			want := whole(g)
			if mine != sh.PerGroup-1 {
				want = nil // the group's first claimer left nothing
			} else if g.homes != nil {
				want = nil
				for k := range g.homes {
					want = append(want, g.homes[(mine+k)%len(g.homes)].share[list]...)
				}
			}
			if !slices.Equal(order[w], want) {
				return fmt.Errorf("round %d, list %d: worker %d claimed %v, want %v", e.round, list, w, order[w], want)
			}
		}
		return nil
	}
	for !e.Done() {
		for _, t := range threads {
			t.StartRound()
		}
		if err := phase(runList, func(w int, lp int32) { threads[w].Process(w, lp) }); err != nil {
			return nil, err
		}
		threads[0].Globals()
		l.shareRecv()
		if err := phase(recvList, func(w int, lp int32) { threads[w].Receive(lp) }); err != nil {
			return nil, err
		}
		e.Advance()
		if e.Saving() {
			for _, t := range threads {
				t.Save()
			}
			e.EndSave()
		}
		l.shareRun()
	}
	return e.Stats(start, make([]sim.WorkerStats, len(threads))), e.Err()
}

// TestHomeIsOneCacheLine: a claim on one home never touches another's line.
func TestHomeIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(home{}); size != 64 {
		t.Fatalf("a home is %d bytes, want one 64-byte cache line", size)
	}
}

// TestHomeChunks: homes cut each group's LPs, in index order, into PerGroup
// contiguous chunks that cover the group and differ in size by at most one —
// also when the group has fewer LPs than workers, and when a group's LPs are
// not contiguous in the engine's numbering (hybrid).
func TestHomeChunks(t *testing.T) {
	for _, c := range []struct {
		lps, groups, per int
	}{
		{208, 1, 2}, {208, 1, 3}, {208, 1, 8}, {10, 1, 3}, {5, 1, 8}, {1, 1, 4},
		{208, 2, 2}, {100, 3, 3}, {7, 3, 4},
	} {
		sh := &Shape{Part: &Partition{Count: c.lps}, PerGroup: c.per}
		if c.groups > 1 {
			sh.GroupOf = make([]int32, c.lps)
			for lp := range sh.GroupOf {
				sh.GroupOf[lp] = int32(lp % c.groups) // interleaved groups
			}
		}
		of := homes(sh)
		for g := 0; g < sh.Groups(); g++ {
			size := make([]int, c.per)
			last := int32(0)
			for lp, h := range of {
				if sh.GroupOf != nil && int(sh.GroupOf[lp]) != g {
					continue
				}
				if h < last || int(h) >= c.per {
					t.Fatalf("%+v, group %d: LP %d has home %d after home %d: chunks not contiguous in index order", c, g, lp, h, last)
				}
				last = h
				size[h]++
			}
			if slices.Max(size)-slices.Min(size) > 1 {
				t.Fatalf("%+v, group %d: chunk sizes %v differ by more than one", c, g, size)
			}
		}
	}
}

// TestHomesKeepLinksLocal measures locality without a clock: the share of
// cross-LP links that join LPs with different homes, which is the share of
// packet hops that hand an event to another worker's cache when nothing is
// stolen. Fat-tree builders number nodes pod by pod, so index chunks are
// pods: well below the 1 − 1/W of homes dealt out at random or interleaved.
func TestHomesKeepLinksLocal(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		ft := topology.BuildFatTree(topology.FatTreeK(k, 10e9, 1000))
		links := ft.LinkInfos()
		part := FineGrained(ft.N(), links)
		for _, w := range []int{2, 4, 8} {
			of := homes(&Shape{Part: part, PerGroup: w})
			var cross, cut int
			for _, l := range links {
				if a, b := part.LPOf[l.A], part.LPOf[l.B]; a != b {
					cross++
					if of[a] != of[b] {
						cut++
					}
				}
			}
			share, random := float64(cut)/float64(cross), 1-1/float64(w)
			t.Logf("k=%d, %d homes: %d of %d cross-LP links cut (%.3f; random %.3f)", k, w, cut, cross, share, random)
			if share >= random || k == 8 && w == 2 && share > 0.20 {
				t.Fatalf("k=%d, %d homes: %d of %d cross-LP links join different homes (%.3f), want below %.3f (and 0.20 at k=8, 2 homes)",
					k, w, cut, cross, share, random)
			}
		}
	}
}
