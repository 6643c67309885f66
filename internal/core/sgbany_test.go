package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
	"sgb/internal/unionfind"
)

// TestFigure2Any reproduces Example 2: a5 bridges both groups, so SGB-Any
// outputs one group of 5.
func TestFigure2Any(t *testing.T) {
	for _, alg := range []Algorithm{AllPairs, IndexBounds} {
		res, err := SGBAny(figure2Points(), Options{Metric: geom.LInf, Eps: 3, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Groups) != 1 || len(res.Groups[0].IDs) != 5 {
			t.Errorf("%v: groups = %v, want one group of 5", alg, res.Groups)
		}
	}
}

// TestFigure1Chain reproduces Figure 1b: a chain a–h connected pairwise
// within ε=3 forms a single SGB-Any group even though the extremes are far
// apart.
func TestFigure1Chain(t *testing.T) {
	pts := []geom.Point{
		{1, 1}, {3.5, 1}, {6, 1}, {8.5, 1}, {11, 1}, {13.5, 1}, {16, 1}, {18.5, 1},
	}
	for _, m := range []geom.Metric{geom.LInf, geom.L2, geom.L1} {
		for _, alg := range []Algorithm{AllPairs, IndexBounds} {
			res, err := SGBAny(pts, Options{Metric: m, Eps: 3, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, alg, err)
			}
			if len(res.Groups) != 1 || len(res.Groups[0].IDs) != len(pts) {
				t.Errorf("%v/%v: groups = %v, want one chain group", m, alg, res.Groups)
			}
		}
	}
	// An SGB-All on the same chain must not produce a single clique.
	resAll, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 3, Overlap: JoinAny, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resAll.Groups) == 1 {
		t.Error("SGB-All grouped a long chain into one clique")
	}
}

// referenceComponents computes the connected components of the
// ε-neighbourhood graph by brute force.
func referenceComponents(pts []geom.Point, m geom.Metric, eps float64) []Group {
	uf := unionfind.New(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if geom.Within(m, pts[i], pts[j], eps) {
				uf.Union(i, j)
			}
		}
	}
	var groups []Group
	for _, ids := range uf.Groups() {
		groups = append(groups, Group{IDs: ids})
	}
	sortGroups(groups)
	return groups
}

func sortGroups(groups []Group) {
	for i := range groups {
		ids := groups[i].IDs
		for j := 1; j < len(ids); j++ {
			for k := j; k > 0 && ids[k] < ids[k-1]; k-- {
				ids[k], ids[k-1] = ids[k-1], ids[k]
			}
		}
	}
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j].IDs[0] < groups[j-1].IDs[0]; j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}

// anyWithCap is SGBAny under IndexBounds with the grid/R-tree cut-over forced:
// +Inf runs every input on the ε-grid, 0 on the R-tree of points.
func anyWithCap(pts []geom.Point, m geom.Metric, eps, blockCap float64) (*Result, error) {
	g, err := newAnyGrouper(Options{Metric: m, Eps: eps, Algorithm: IndexBounds}, blockCap)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if _, err := g.Add(p); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}

// anyIndexes names every physical SGB-Any path: All-Pairs, IndexBounds as
// NewAnyGrouper picks it for the (metric, dimensionality), and IndexBounds
// with each of its two point indexes forced.
var anyIndexes = []struct {
	name string
	run  func(pts []geom.Point, m geom.Metric, eps float64) (*Result, error)
}{
	{"all-pairs", func(pts []geom.Point, m geom.Metric, eps float64) (*Result, error) {
		return SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
	}},
	{"index", func(pts []geom.Point, m geom.Metric, eps float64) (*Result, error) {
		return SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: IndexBounds})
	}},
	{"grid", func(pts []geom.Point, m geom.Metric, eps float64) (*Result, error) {
		return anyWithCap(pts, m, eps, math.Inf(1))
	}},
	{"rtree", func(pts []geom.Point, m geom.Metric, eps float64) (*Result, error) {
		return anyWithCap(pts, m, eps, 0)
	}},
}

// checkAnyAgainstOracle runs every SGB-Any path over pts and compares each
// with the brute-force connected components.
func checkAnyAgainstOracle(t *testing.T, label string, pts []geom.Point, m geom.Metric, eps float64) {
	t.Helper()
	want := referenceComponents(pts, m, eps)
	for _, ix := range anyIndexes {
		res, err := ix.run(pts, m, eps)
		if err != nil {
			t.Fatalf("%s/%v/%s: %v", label, m, ix.name, err)
		}
		if !reflect.DeepEqual(res.Groups, want) {
			t.Fatalf("%s/%v/%s: SGB-Any disagrees with connected components:\n got %v\nwant %v", label, m, ix.name, res.Groups, want)
		}
	}
}

// TestAnyMatchesConnectedComponents is the defining SGB-Any property: the
// output must equal the connected components of the ε-neighbourhood graph,
// independent of insertion order and algorithm. Dimensions 1–6 cross
// gridBlockCap in both directions for L2 and L1.
func TestAnyMatchesConnectedComponents(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for _, m := range []geom.Metric{geom.LInf, geom.L2, geom.L1} {
		for dim := 1; dim <= 6; dim++ {
			for trial := 0; trial < 6; trial++ {
				n := 30 + r.Intn(200)
				eps := 0.3 + r.Float64()
				// Shrink the box with the dimension so ε-edges stay common.
				pts := randomPoints(r, n, dim, 10/float64(dim))
				checkAnyAgainstOracle(t, fmt.Sprintf("dim%d", dim), pts, m, eps)
			}
		}
	}
}

// TestAnyIndexChoice pins what IndexBounds means for SGB-Any: the ε-grid while
// the probe block is within gridBlockCap, the R-tree of points — and nothing
// else reaches internal/rtree — above it.
func TestAnyIndexChoice(t *testing.T) {
	wantGrid := map[geom.Metric]int{geom.L2: 4, geom.LInf: 6, geom.L1: 3} // highest grid dimension
	for m, top := range wantGrid {
		for dim := 1; dim <= 8; dim++ {
			g, err := NewAnyGrouper(Options{Metric: m, Eps: 1, Algorithm: IndexBounds})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Add(make(geom.Point, dim)); err != nil {
				t.Fatal(err)
			}
			if onGrid := g.grid != nil; onGrid != (dim <= top) || onGrid == (g.tree != nil) {
				t.Errorf("%v/dim%d: grid=%v rtree=%v, want the grid up to dim %d", m, dim, g.grid != nil, g.tree != nil, top)
			}
		}
	}
	g, err := NewAnyGrouper(Options{Metric: geom.L2, Eps: 1, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if g.grid != nil || g.tree != nil {
		t.Error("All-Pairs built a point index")
	}
}

// TestAnyGridEdgeCases feeds every path the inputs where a grid can go wrong:
// cell walls, the predicate's boundary, coordinates far from the origin.
func TestAnyGridEdgeCases(t *testing.T) {
	const eps = 0.25
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	var multiples, onePerCell []geom.Point
	for i := -6; i <= 6; i++ {
		for j := -6; j <= 6; j++ {
			multiples = append(multiples, geom.Point{float64(i) * eps, float64(j) * eps})
			onePerCell = append(onePerCell, geom.Point{float64(i) * 3 * eps, float64(j) * 3 * eps})
		}
	}
	dup := make([]geom.Point, 300)
	for i := range dup {
		dup[i] = geom.Point{-7.5, 1e-9}
	}
	cases := []struct {
		name string
		pts  []geom.Point
	}{
		{"exact multiples of eps", multiples},
		{"one point per cell", onePerCell},
		{"all duplicates", dup},
		{"exactly eps apart", []geom.Point{{0, 0}, {eps, 0}, {0, -eps}, {3, 3}, {3 + eps, 3}}},
		{"one ulp inside eps", []geom.Point{{0, 0}, {down(eps), 0}, {1, 1}, {1, 1 + down(eps)}}},
		{"one ulp outside eps", []geom.Point{{0, 0}, {up(eps), 0}, {1, 1}, {1, 1 + up(eps)}}},
		{"negative coordinates", []geom.Point{{-0.1, -0.1}, {0.1, 0.1}, {-5, -5}, {-5.2, -5.2}, {-5.2 - eps, -5.2}, {3, 3}}},
		{"huge coordinates", []geom.Point{
			{1e15, 1e15}, {1e15 + eps, 1e15}, {1e15 + 1, 1e15}, // ulp(1e15) = 0.125 < ε
			{-1e18, 0}, {-1e18, eps}, {-1e18, 1}, // ulp(1e18) = 128 ≫ ε on the first axis
			{1e300, -1e300}, {1e300, -1e300}, {-1e300, 1e300},
			{math.MaxFloat64, 0}, {math.MaxFloat64, eps / 2}, {-math.MaxFloat64, 0},
		}},
	}
	for _, c := range cases {
		for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
			checkAnyAgainstOracle(t, c.name, c.pts, m, eps)
		}
	}
}

// TestParallelColsMatchesSerial runs every SGB-Any path against the
// brute-force components on 2-D points on and a few ulps off the cell walls,
// at an ε below and above the cells' side.
func TestParallelColsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, e := range []float64{0.25, 1.5} {
			pts := adversarialPoints(r, 120+r.Intn(80), 2, e)
			checkAnyAgainstOracle(t, fmt.Sprintf("cell walls/eps%g", e), pts, m, e)
		}
	}
}

// TestAnyGridCertificateFailure forces a cell whose members are not mutually
// within ε — coordinates past the grid's index range share the outermost cell
// — and checks that the cell stops being treated as one component: members
// are united only with the members they are actually within ε of.
func TestAnyGridCertificateFailure(t *testing.T) {
	pts := []geom.Point{
		{1e30, 1e30}, {2e30, 1e30}, // same cell, 1e30 apart: the certificate fails here
		{1e30, 1e30}, {2e30, 1e30}, {3e30, 1e30}, // later members are scanned one by one
		{0.1, 0}, {0.3, 0}, // an ordinary certified cell next to it
	}
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		g, err := NewAnyGrouper(Options{Metric: m, Eps: 1, Algorithm: IndexBounds})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if _, err := g.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		if g.grid.Len() != 2 {
			t.Fatalf("%v: %d cells, want the outermost cell and one ordinary cell", m, g.grid.Len())
		}
		if g.grid.Cell(0).Clique() || !g.grid.Cell(1).Clique() {
			t.Fatalf("%v: clique certificates = %v, %v; want false, true", m, g.grid.Cell(0).Clique(), g.grid.Cell(1).Clique())
		}
		res, err := g.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceComponents(pts, m, 1); !reflect.DeepEqual(res.Groups, want) {
			t.Fatalf("%v: groups %v, want %v", m, res.Groups, want)
		}
		if res.Stats.DistanceComps == 0 {
			t.Errorf("%v: an uncertified cell was joined without evaluating the predicate", m)
		}
	}
}

// TestAddLinkedMatchesReplay checks AddLinked's contract on every index —
// exactly one member id per distinct prior component the point is within ε
// of, none for a new singleton — against a brute-force union-find replay, and
// that Snapshot at every prefix is what Finish returns for that prefix.
func TestAddLinkedMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3, 5} {
			for _, blockCap := range []float64{gridBlockCap, math.Inf(1), 0} {
				eps := 0.4 + r.Float64()/2
				pts := append(randomPoints(r, 120, dim, 6/float64(dim)), adversarialPoints(r, 60, dim, eps)...)
				g, err := newAnyGrouper(Options{Metric: m, Eps: eps, Algorithm: IndexBounds}, blockCap)
				if err != nil {
					t.Fatal(err)
				}
				replay := unionfind.New(len(pts))
				for i, p := range pts {
					want := map[int]bool{} // roots of the prior components p touches
					for j := 0; j < i; j++ {
						if geom.Within(m, p, pts[j], eps) {
							want[replay.Find(j)] = true
						}
					}
					id, links, err := g.AddLinked(p)
					if err != nil || id != i {
						t.Fatalf("AddLinked(%d) = %d, %v", i, id, err)
					}
					got := map[int]bool{}
					for _, l := range links {
						if l >= i || !geom.Within(m, p, pts[l], eps) {
							t.Fatalf("%v/dim%d/cap%g: point %d linked to %d, which is not an earlier ε-neighbour", m, dim, blockCap, i, l)
						}
						got[replay.Find(l)] = true
					}
					if len(got) != len(links) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%v/dim%d/cap%g: point %d links %v name components %v, want one each of %v", m, dim, blockCap, i, links, got, want)
					}
					for _, l := range links {
						replay.Union(i, l)
					}
					snap, err := g.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(snap, referenceComponents(pts[:i+1], m, eps)) {
						t.Fatalf("%v/dim%d/cap%g: Snapshot after %d points is not the prefix's grouping", m, dim, blockCap, i+1)
					}
				}
				fin, err := g.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fin.Groups, referenceComponents(pts, m, eps)) {
					t.Fatalf("%v/dim%d/cap%g: Finish differs from the last Snapshot's oracle", m, dim, blockCap)
				}
			}
		}
	}
}

// TestAnyOrderInvariance: unlike SGB-All, the SGB-Any grouping is invariant
// under input permutation (connected components are order-free) — on the
// ε-grid (2-D) and on the R-tree of points (5-D under L2) alike.
func TestAnyOrderInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, dim := range []int{2, 5} {
		pts := randomPoints(r, 120, dim, 8/float64(dim))
		opt := Options{Metric: geom.L2, Eps: 0.8, Algorithm: IndexBounds}
		base, err := SGBAny(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle, regroup, and map ids back through the permutation.
		perm := r.Perm(len(pts))
		shuffled := make([]geom.Point, len(pts))
		orig := make([]int, len(pts)) // shuffled[p] holds original point orig[p]
		for i, p := range perm {
			shuffled[p], orig[p] = pts[i], i
		}
		res, err := SGBAny(shuffled, opt)
		if err != nil {
			t.Fatal(err)
		}
		remapped := make([]Group, len(res.Groups))
		for i, g := range res.Groups {
			ids := make([]int, len(g.IDs))
			for j, id := range g.IDs {
				ids[j] = orig[id]
			}
			remapped[i] = Group{IDs: ids}
		}
		sortGroups(remapped)
		if !reflect.DeepEqual(base.Groups, remapped) {
			t.Fatalf("dim %d: SGB-Any grouping changed under input permutation", dim)
		}
	}
}

func TestAnyRejectsBoundsChecking(t *testing.T) {
	if _, err := SGBAny(nil, Options{Metric: geom.L2, Eps: 1, Algorithm: BoundsChecking}); err == nil {
		t.Fatal("SGB-Any accepted the Bounds-Checking algorithm")
	}
}

func TestAnyDegenerateInputs(t *testing.T) {
	for _, alg := range []Algorithm{AllPairs, IndexBounds} {
		res, err := SGBAny(nil, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil || len(res.Groups) != 0 {
			t.Fatalf("%v: empty input: %v %v", alg, res, err)
		}
		res, err = SGBAny([]geom.Point{{1, 2}}, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil || len(res.Groups) != 1 {
			t.Fatalf("%v: singleton input: %v %v", alg, res, err)
		}
	}
}

func TestAnyLifecycleErrors(t *testing.T) {
	g, err := NewAnyGrouper(Options{Metric: geom.L2, Eps: 1, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{}); err == nil {
		t.Error("accepted zero-dimensional point")
	}
	if _, err := g.Add(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{0, 0, 0}); err != ErrDimensionMismatch {
		t.Errorf("dimension mismatch error = %v", err)
	}
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{1, 1}); err == nil {
		t.Error("Add after Finish succeeded")
	}
	if _, err := g.Finish(); err == nil {
		t.Error("double Finish succeeded")
	}
}

// TestAnyMergeStats: merging k chains into one group performs k-1 merges.
func TestAnyMergeStats(t *testing.T) {
	// Three separate pairs, then one point connecting all of them.
	pts := []geom.Point{
		{0, 0}, {1, 0},
		{10, 0}, {11, 0},
		{5, 8}, {5, 9},
		{5, 2}, // within 6 (LInf) of one point of each pair? Check below.
	}
	res, err := SGBAny(pts, Options{Metric: geom.LInf, Eps: 6, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %v", res.Groups)
	}
	// Every point starts as its own group: n - merges = number of groups.
	if st := res.Stats; st.Points != len(pts) || st.Rounds != 1 || st.GroupsMerged != int64(len(pts)-len(res.Groups)) {
		t.Fatalf("stats = %+v over %d points in %d groups", st, len(pts), len(res.Groups))
	}
}

// TestAnyL2VerifyStep: under L2 the window query needs the verify pass;
// a point at LInf distance < eps but L2 distance > eps must not connect.
func TestAnyL2VerifyStep(t *testing.T) {
	pts := []geom.Point{{0, 0}, {4, 4}}
	res, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 5, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("L2 verify step missed a false positive: %v", res.Groups)
	}
	res, err = SGBAny(pts, Options{Metric: geom.LInf, Eps: 5, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("LInf window query should connect the pair: %v", res.Groups)
	}
}

// TestGrouperAddAllocBudget pins SGB-Any's All-Pairs Add allocation-free in
// steady state: each call appends one point to the grouper's coordinates and
// one union-find slot, whose amortized growth rounds to zero over 200 calls,
// and verifies 2000+ points with Within, which must allocate nothing. The
// budget was 4 while the probe ran through batch kernels; measured 0.
func TestGrouperAddAllocBudget(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g, err := NewAnyGrouper(Options{Metric: geom.L2, Eps: 0.25, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := g.Add(geom.Point{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Point{0.5, 0.5}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AnyGrouper.Add: %.2f allocations per call", avg)
	if avg > 0 {
		t.Fatalf("AnyGrouper.Add allocates %.1f per call in steady state, want 0", avg)
	}
}
