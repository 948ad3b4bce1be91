package tcp

import (
	"math/rand"
	"testing"
)

// runs returns the maximal runs of set bytes in covered: the one sorted,
// disjoint, non-touching interval list that covers exactly those bytes.
func runs(covered []bool) []interval {
	var out []interval
	for i := 0; i < len(covered); i++ {
		if !covered[i] {
			continue
		}
		j := i
		for j < len(covered) && covered[j] {
			j++
		}
		out = append(out, interval{uint32(i), uint32(j)})
		i = j
	}
	return out
}

// checkOOO fails unless c.ooo is exactly the runs of covered: sorted,
// disjoint, merged where intervals touch, and covering what was inserted.
func checkOOO(t *testing.T, c *conn, covered []bool, after string) {
	t.Helper()
	want := runs(covered)
	if len(c.ooo) != len(want) {
		t.Fatalf("after %s: ooo = %v, want %v", after, c.ooo, want)
	}
	for i := range want {
		if c.ooo[i] != want[i] {
			t.Fatalf("after %s: ooo = %v, want %v", after, c.ooo, want)
		}
	}
}

func TestInsertOOOKeepsSortedDisjoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		ins  []interval
	}{
		{"before every interval", []interval{{100, 200}, {300, 400}, {10, 20}}},
		{"between two", []interval{{100, 200}, {300, 400}, {250, 260}}},
		{"after every interval", []interval{{100, 200}, {300, 400}, {500, 600}}},
		{"bridges two", []interval{{100, 200}, {300, 400}, {150, 350}}},
		{"touches both ends", []interval{{100, 200}, {300, 400}, {200, 300}}},
		{"inside one", []interval{{100, 200}, {300, 400}, {120, 130}}},
		{"covers all", []interval{{100, 200}, {300, 400}, {500, 600}, {50, 650}}},
		{"before many", []interval{{100, 200}, {300, 400}, {500, 600}, {700, 800}, {10, 20}, {30, 40}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &conn{}
			covered := make([]bool, 1024)
			for _, iv := range tc.ins {
				c.insertOOO(iv.lo, iv.hi)
				for b := iv.lo; b < iv.hi; b++ {
					covered[b] = true
				}
				checkOOO(t, c, covered, "inserting "+tc.name)
			}
		})
	}

	r := rand.New(rand.NewSource(1))
	for range 200 {
		c := &conn{}
		covered := make([]bool, 512)
		for range 20 {
			lo := uint32(r.Intn(500))
			hi := lo + 1 + uint32(r.Intn(12))
			c.insertOOO(lo, hi)
			for b := lo; b < hi; b++ {
				covered[b] = true
			}
			checkOOO(t, c, covered, "a random insert")
		}
	}
}
