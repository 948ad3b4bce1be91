package pdes

import (
	_ "embed"
	"fmt"
	"strings"

	"unison/internal/sim"
	"unison/internal/topology"
)

// This file codifies the static manual partition recipes that adapting a
// DES model to classic PDES requires (§3.1, Table 1). Each recipe embeds
// topology-specific knowledge — which is exactly the configuration burden
// Unison's automatic partition removes. The recipes are used by the
// baseline kernels and by the Table 1 reproduction, which counts the
// source lines they add.

// FatTreeRecipe partitions a clustered fat-tree into `ranks` LPs the way
// Figure 3 prescribes: clusters are grouped contiguously and the core
// switches are distributed evenly among the ranks. ranks must divide the
// cluster count.
func FatTreeRecipe(ft *topology.FatTree, ranks int) ([]int32, error) {
	clusters := len(ft.Clusters)
	if ranks <= 0 || clusters%ranks != 0 {
		return nil, fmt.Errorf("pdes: %d ranks do not evenly divide %d clusters", ranks, clusters)
	}
	lpOf := make([]int32, ft.N())
	perRank := clusters / ranks
	assign := func(nodes []sim.NodeID, rank int32) {
		for _, n := range nodes {
			lpOf[n] = rank
		}
	}
	for c := 0; c < clusters; c++ {
		rank := int32(c / perRank)
		assign(ft.Clusters[c], rank)
		assign(ft.ToRs[c], rank)
		assign(ft.Aggs[c], rank)
	}
	for i, core := range ft.CoreSw {
		lpOf[core] = int32(i * ranks / len(ft.CoreSw))
	}
	return lpOf, nil
}

// BCubeRecipe partitions a BCube by its BCube0 groups ("treat each BCube0
// as an LP", §6.1) and distributes every switch level evenly.
func BCubeRecipe(b *topology.BCube, ranks int) ([]int32, error) {
	groups := len(b.BCube0)
	if ranks <= 0 || groups%ranks != 0 {
		return nil, fmt.Errorf("pdes: %d ranks do not evenly divide %d BCube0 groups", ranks, groups)
	}
	lpOf := make([]int32, b.N())
	perRank := groups / ranks
	for g, hosts := range b.BCube0 {
		rank := int32(g / perRank)
		for _, h := range hosts {
			lpOf[h] = rank
		}
	}
	for _, level := range b.Level {
		for i, sw := range level {
			lpOf[sw] = int32(i * ranks / len(level))
		}
	}
	return lpOf, nil
}

// TorusRecipe partitions a 2D torus by linear node index ranges, exactly
// as §6.1 describes ("assign an ID of i+R·j ... evenly divide the range"):
// grid point (i,j) gets index i + rows·j, and the index space is split
// into `ranks` contiguous sub-arrays. A host is assigned with its switch.
func TorusRecipe(t *topology.Torus, ranks int) ([]int32, error) {
	total := t.Rows * t.Cols
	if ranks <= 0 || ranks > total {
		return nil, fmt.Errorf("pdes: invalid rank count %d for %d torus nodes", ranks, total)
	}
	lpOf := make([]int32, t.N())
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			idx := i + t.Rows*j
			rank := int32(idx * ranks / total)
			lpOf[t.SwitchAt[i][j]] = rank
			lpOf[t.HostAt[i][j]] = rank
		}
	}
	return lpOf, nil
}

// SpineLeafRecipe partitions a spine-leaf fabric by leaf groups, with the
// spines distributed evenly.
func SpineLeafRecipe(s *topology.SpineLeaf, ranks int) ([]int32, error) {
	leaves := len(s.Leaves)
	if ranks <= 0 || leaves%ranks != 0 {
		return nil, fmt.Errorf("pdes: %d ranks do not evenly divide %d leaves", ranks, leaves)
	}
	lpOf := make([]int32, s.N())
	perRank := leaves / ranks
	for l, leaf := range s.Leaves {
		rank := int32(l / perRank)
		lpOf[leaf] = rank
		for _, h := range s.HostsPer[l] {
			lpOf[h] = rank
		}
	}
	for i, sp := range s.Spines {
		lpOf[sp] = int32(i * ranks / len(s.Spines))
	}
	return lpOf, nil
}

// FatTreeManual, BCubeManual, TorusManual and SpineLeafManual are the
// recipes for callers whose rank count is known to fit; they panic on any
// other.
func FatTreeManual(ft *topology.FatTree, ranks int) []int32 { return must(FatTreeRecipe(ft, ranks)) }
func BCubeManual(b *topology.BCube, ranks int) []int32      { return must(BCubeRecipe(b, ranks)) }
func TorusManual(t *topology.Torus, ranks int) []int32      { return must(TorusRecipe(t, ranks)) }
func SpineLeafManual(s *topology.SpineLeaf, ranks int) []int32 {
	return must(SpineLeafRecipe(s, ranks))
}

func must(lpOf []int32, err error) []int32 {
	if err != nil {
		panic(err)
	}
	return lpOf
}

// DumbbellManual splits a dumbbell across the bottleneck: senders with the
// left switch, receivers with the right (the only symmetric 2-way cut).
func DumbbellManual(d *topology.Dumbbell) []int32 {
	lpOf := make([]int32, d.N())
	lpOf[d.Left] = 0
	lpOf[d.Right] = 1
	for _, s := range d.Senders {
		lpOf[s] = 0
	}
	for _, r := range d.Receivers {
		lpOf[r] = 1
	}
	return lpOf
}

//go:embed partition.go
var partitionSource string

// PartitionSourceLines returns the number of source lines of the named
// manual-partition recipe in this package. The Table 1 reproduction uses
// it to measure the code a user must write to adapt each topology to
// static PDES — the adaptation cost Unison's automatic partition removes.
func PartitionSourceLines(funcName string) int {
	lines := strings.Split(partitionSource, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "func "+funcName+"(") {
			start = i
			break
		}
	}
	if start < 0 {
		return 0
	}
	for i := start; i < len(lines); i++ {
		if lines[i] == "}" {
			return i - start + 1
		}
	}
	return 0
}
