package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"sgb"
)

// The oracles share no code with the layers they check: the union-find below
// is the benchmark's own, not internal/unionfind.

type dsu []int

func newDSU(n int) dsu {
	d := make(dsu, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (d dsu) find(x int) int {
	for d[x] != x {
		d[x] = d[d[x]]
		x = d[x]
	}
	return x
}

func (d dsu) union(a, b int) { d[d.find(a)] = d.find(b) }

// naiveComponentSizes returns the ascending sizes of the connected components
// of the graph joining every pair of 2-D points within L2 distance eps: the
// definition of DISTANCE-TO-ANY, evaluated over all n(n-1)/2 pairs.
func naiveComponentSizes(pts []sgb.Point, eps float64) []int {
	d := newDSU(len(pts))
	e2 := eps * eps
	for i, p := range pts {
		for j := i + 1; j < len(pts); j++ {
			dx, dy := p[0]-pts[j][0], p[1]-pts[j][1]
			if dx*dx+dy*dy <= e2 {
				d.union(i, j)
			}
		}
	}
	count := map[int]int{}
	for i := range pts {
		count[d.find(i)]++
	}
	sizes := make([]int, 0, len(count))
	for _, n := range count {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}

// canonicalPartition renders a set of groups as a string that is equal for
// equal partitions whatever the group or member order: members ascending,
// groups by smallest member.
func canonicalPartition(groups [][]int64) string {
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return fmt.Sprint(groups)
}

//go:embed testdata/tpch_golden.json
var goldenJSON []byte

func goldenKey(seed int64, sf float64) string { return fmt.Sprintf("seed=%d sf=%v", seed, sf) }

// loadGolden returns the recorded Table 2 digests for this seed and scale, or
// nil when none were recorded (any seed but 1).
func loadGolden(seed int64, sf float64) ([]stmtDigest, error) {
	all := map[string][]stmtDigest{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/tpch_golden.json: %w", err)
	}
	g := all[goldenKey(seed, sf)]
	if g != nil && len(g) != len(table2()) {
		return nil, fmt.Errorf("testdata/tpch_golden.json: %q has %d digests, want %d", goldenKey(seed, sf), len(g), len(table2()))
	}
	return g, nil
}
