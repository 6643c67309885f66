package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sgb/internal/geom"
)

// figure2Points reproduces the arrival order a1..a5 of Figure 2: two cliques
// {a1,a2} and {a3,a4}, then a5 within ε=3 (L∞) of all four.
func figure2Points() []geom.Point {
	return []geom.Point{
		{1, 1},   // a1
		{2, 2},   // a2
		{6, 1},   // a3
		{7, 2},   // a4
		{4, 1.5}, // a5 — candidate of both groups
	}
}

func sortedSizes(r *Result) []int {
	s := r.Sizes()
	sort.Ints(s)
	return s
}

func allAlgorithms() []Algorithm { return []Algorithm{AllPairs, BoundsChecking, IndexBounds} }

// TestFigure2JoinAny reproduces Example 1: JOIN-ANY yields counts {3,2}.
func TestFigure2JoinAny(t *testing.T) {
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(figure2Points(), Options{Metric: geom.LInf, Eps: 3, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{2, 3}) {
			t.Errorf("%v: sizes = %v, want [2 3]", alg, got)
		}
		if len(res.Dropped) != 0 {
			t.Errorf("%v: JOIN-ANY dropped %v", alg, res.Dropped)
		}
	}
}

// TestFigure2Eliminate reproduces Example 1: ELIMINATE yields counts {2,2}
// with a5 dropped.
func TestFigure2Eliminate(t *testing.T) {
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(figure2Points(), Options{Metric: geom.LInf, Eps: 3, Overlap: Eliminate, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{2, 2}) {
			t.Errorf("%v: sizes = %v, want [2 2]", alg, got)
		}
		if !reflect.DeepEqual(res.Dropped, []int{4}) {
			t.Errorf("%v: dropped = %v, want [4] (a5)", alg, res.Dropped)
		}
	}
}

// TestFigure2FormNewGroup reproduces Example 1: FORM-NEW-GROUP yields counts
// {2,2,1}, the singleton being a5's dedicated group.
func TestFigure2FormNewGroup(t *testing.T) {
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(figure2Points(), Options{Metric: geom.LInf, Eps: 3, Overlap: FormNewGroup, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{1, 2, 2}) {
			t.Errorf("%v: sizes = %v, want [1 2 2]", alg, got)
		}
		var single *Group
		for i := range res.Groups {
			if len(res.Groups[i].IDs) == 1 {
				single = &res.Groups[i]
			}
		}
		if single == nil || single.IDs[0] != 4 {
			t.Errorf("%v: singleton group is %v, want [4]", alg, single)
		}
		if res.Stats.Rounds != 2 {
			t.Errorf("%v: rounds = %d, want 2", alg, res.Stats.Rounds)
		}
	}
}

// TestFigure1Clique reproduces Figure 1a: points a–e form a single clique
// under ε=3, with an L2 check that the same set groups together.
func TestFigure1Clique(t *testing.T) {
	pts := []geom.Point{{1, 2}, {2, 3}, {3, 2.5}, {2, 1}, {3, 1.5}}
	for _, m := range []geom.Metric{geom.LInf, geom.L2} {
		for _, alg := range allAlgorithms() {
			res, err := SGBAll(pts, Options{Metric: m, Eps: 3, Overlap: JoinAny, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, alg, err)
			}
			if len(res.Groups) != 1 || len(res.Groups[0].IDs) != 5 {
				t.Errorf("%v/%v: groups = %v, want one group of 5", m, alg, res.Groups)
			}
		}
	}
}

// TestPartialOverlapEliminate exercises ProcessOverlap: a probe that joins a
// new group while being within ε of *some* members of an existing group
// causes those members to be eliminated (Figure 4's a3).
func TestPartialOverlapEliminate(t *testing.T) {
	// 1-D layout: g1 = {0, 2} is a clique at ε=2; x=3.5 is within ε of 2
	// but not of 0, so g1 partially overlaps. x forms its own group and
	// the overlapped member (point id 1, value 2) is eliminated.
	pts := []geom.Point{{0}, {2}, {3.5}}
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 2, Overlap: Eliminate, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{1, 1}) {
			t.Errorf("%v: sizes = %v, want [1 1]", alg, got)
		}
		if !reflect.DeepEqual(res.Dropped, []int{1}) {
			t.Errorf("%v: dropped = %v, want [1]", alg, res.Dropped)
		}
	}
}

// TestPartialOverlapFormNewGroup: same layout, but the overlapped member is
// diverted to S′ and re-grouped in a second round.
func TestPartialOverlapFormNewGroup(t *testing.T) {
	pts := []geom.Point{{0}, {2}, {3.5}}
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 2, Overlap: FormNewGroup, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{1, 1, 1}) {
			t.Errorf("%v: sizes = %v, want [1 1 1]", alg, got)
		}
		if len(res.Dropped) != 0 {
			t.Errorf("%v: FORM-NEW-GROUP dropped %v", alg, res.Dropped)
		}
		if res.Stats.Rounds < 2 {
			t.Errorf("%v: rounds = %d, want >= 2", alg, res.Stats.Rounds)
		}
	}
}

// TestL2FalsePositiveFiltered reproduces Figure 7b: a point inside the ε-All
// rectangle but outside the ε-circle must not join under L2, on every
// algorithm (with and without the hull refinement).
func TestL2FalsePositiveFiltered(t *testing.T) {
	// a1 at origin, ε=5. a2 at (4,4): L∞ distance 4 (inside rectangle),
	// L2 distance ~5.66 (outside the circle).
	pts := []geom.Point{{0, 0}, {4, 4}}
	for _, alg := range allAlgorithms() {
		for _, disable := range []bool{false, true} {
			res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 5, Overlap: JoinAny, Algorithm: alg, disableHullRefine: disable})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if len(res.Groups) != 2 {
				t.Errorf("%v (hull disabled=%v): L2 false positive joined the group: %v", alg, disable, res.Groups)
			}
		}
	}
	// Under L∞ the same pair is a clique.
	res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 5, Overlap: JoinAny, Algorithm: BoundsChecking})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Errorf("LInf: groups = %v, want one group", res.Groups)
	}
}

// cliqueOK verifies the defining SGB-All invariant on a result: every pair
// inside every group satisfies the similarity predicate.
func cliqueOK(t *testing.T, pts []geom.Point, res *Result, m geom.Metric, eps float64) {
	t.Helper()
	for _, g := range res.Groups {
		for i := 0; i < len(g.IDs); i++ {
			for j := i + 1; j < len(g.IDs); j++ {
				a, b := pts[g.IDs[i]], pts[g.IDs[j]]
				if !geom.Within(m, a, b, eps) {
					t.Fatalf("group %v is not a clique: δ(%v,%v) > %v", g.IDs, a, b, eps)
				}
			}
		}
	}
}

// partitionOK verifies that groups plus dropped points exactly partition the
// input.
func partitionOK(t *testing.T, n int, res *Result) {
	t.Helper()
	seen := make([]bool, n)
	mark := func(id int) {
		if id < 0 || id >= n {
			t.Fatalf("out-of-range point id %d", id)
		}
		if seen[id] {
			t.Fatalf("point %d appears twice in the result", id)
		}
		seen[id] = true
	}
	for _, g := range res.Groups {
		for _, id := range g.IDs {
			mark(id)
		}
	}
	for _, id := range res.Dropped {
		mark(id)
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("point %d missing from the result", id)
		}
	}
}

func randomPoints(r *rand.Rand, n, dim int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = r.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

// gridPoints draws ε-grid-adversarial coordinates: multiples of ε/4 around
// the origin, left exact, shifted by ±1e-9, or moved one ulp either way — the
// inputs on which rounding decides whether two points are within ε.
func gridPoints(r *rand.Rand, n, dim int, eps float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = nudge(float64(r.Intn(17)-8)*eps/4, r.Intn(5))
		}
		pts[i] = p
	}
	return pts
}

// nudge applies shift k mod 5 of gridPoints to v: none, +1e-9, -1e-9, one ulp
// up, one ulp down.
func nudge(v float64, k int) float64 {
	switch k % 5 {
	case 1:
		return v + 1e-9
	case 2:
		return v - 1e-9
	case 3:
		return math.Nextafter(v, math.Inf(1))
	case 4:
		return math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// agreeOK runs every SGB-All algorithm on pts and fails unless each result is
// a partition into cliques and all three are identical.
func agreeOK(t *testing.T, pts []geom.Point, m geom.Metric, ov Overlap, eps float64) {
	t.Helper()
	var results []*Result
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(pts, Options{Metric: m, Eps: eps, Overlap: ov, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v/%v/%v eps=%v: %v", m, ov, alg, eps, err)
		}
		cliqueOK(t, pts, res, m, eps)
		partitionOK(t, len(pts), res)
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0].Groups, results[i].Groups) {
			t.Fatalf("%v/%v n=%d eps=%v: %v and %v disagree:\n%v\nvs\n%v",
				m, ov, len(pts), eps, allAlgorithms()[0], allAlgorithms()[i],
				results[0].Groups, results[i].Groups)
		}
		if !reflect.DeepEqual(results[0].Dropped, results[i].Dropped) {
			t.Fatalf("%v/%v n=%d eps=%v: dropped sets disagree: %v vs %v",
				m, ov, len(pts), eps, results[0].Dropped, results[i].Dropped)
		}
	}
}

// TestAlgorithmsAgree is the central cross-validation property: the three
// SGB-All implementations must produce identical groupings for any input,
// metric, and overlap clause (deterministic JOIN-ANY) — on uniform points
// and on ε-grid-adversarial ones.
func TestAlgorithmsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	adv := rand.New(rand.NewSource(55))
	for _, m := range []geom.Metric{geom.LInf, geom.L2} {
		for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
			for _, dim := range []int{1, 2, 3} {
				for trial := 0; trial < 8; trial++ {
					n := 30 + r.Intn(120)
					eps := 0.5 + r.Float64()*2
					agreeOK(t, randomPoints(r, n, dim, 12), m, ov, eps)
					advEps := []float64{0.25, 1, eps}[trial%3]
					agreeOK(t, gridPoints(adv, n, dim, advEps), m, ov, advEps)
				}
			}
		}
	}
}

// TestEpsBoundaryCounterexample pins the pair that once made SGB-All depend on
// the algorithm: δ∞([-0.750000001 0.375], [-1.000000001 0.25]) computes to
// 0.25000000000000006 > ε = 0.25, but -0.750000001 - 0.25 rounds onto the
// other point's coordinate, so a rectangle test against stored p ± ε put both
// in one group that All-Pairs never forms.
func TestEpsBoundaryCounterexample(t *testing.T) {
	pts := []geom.Point{{-1.000000001, 0.25}, {-0.750000001, 0.375}}
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		for _, order := range [][]geom.Point{pts, {pts[1], pts[0]}} {
			agreeOK(t, order, geom.LInf, ov, 0.25)
			res, err := SGBAll(order, Options{Metric: geom.LInf, Eps: 0.25, Overlap: ov, Algorithm: IndexBounds})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != 2 {
				t.Errorf("%v: %v grouped as %v, want two singletons", ov, order, res.Groups)
			}
		}
	}
}

// TestHullRefineMatchesExact checks the convex hull refinement against its
// reference: it must not change any grouping decision versus exact member
// scans.
func TestHullRefineMatchesExact(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
		for trial := 0; trial < 10; trial++ {
			n := 50 + r.Intn(150)
			eps := 0.5 + r.Float64()*2
			pts := randomPoints(r, n, 2, 10)
			withHull, err := SGBAll(pts, Options{Metric: geom.L2, Eps: eps, Overlap: ov, Algorithm: IndexBounds})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := SGBAll(pts, Options{Metric: geom.L2, Eps: eps, Overlap: ov, Algorithm: IndexBounds, disableHullRefine: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withHull.Groups, exact.Groups) || !reflect.DeepEqual(withHull.Dropped, exact.Dropped) {
				t.Fatalf("%v: hull refinement changed the grouping", ov)
			}
			if withHull.Stats.HullTests == 0 {
				t.Fatalf("%v: hull refinement never exercised", ov)
			}
		}
	}
}

// TestJoinAnyRandomizedStillValid verifies that JOIN-ANY on random points
// yields valid cliques partitioning the input.
func TestJoinAnyRandomizedStillValid(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	pts := randomPoints(r, 200, 2, 8)
	res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 1.0, Overlap: JoinAny, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	cliqueOK(t, pts, res, geom.L2, 1.0)
	partitionOK(t, len(pts), res)
}

// TestEliminatedPointsWereOverlapping: every dropped point must have been
// within ε of members of at least two groups, or removed by ProcessOverlap
// (within ε of a non-member probe). At minimum, a dropped point must be
// within ε of some surviving or dropped point — dropping an isolated point
// would be a bug.
func TestEliminatedPointsNotIsolated(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(r, 150, 2, 10)
		eps := 0.8
		res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: eps, Overlap: Eliminate, Algorithm: IndexBounds})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dropped {
			near := false
			for i := range pts {
				if i != d && geom.Within(geom.L2, pts[d], pts[i], eps) {
					near = true
					break
				}
			}
			if !near {
				t.Fatalf("isolated point %d was eliminated", d)
			}
		}
	}
}

// TestSingletonAndEmptyInputs covers the degenerate cases.
func TestSingletonAndEmptyInputs(t *testing.T) {
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(nil, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 0 {
			t.Fatalf("%v: empty input produced groups", alg)
		}
		res, err = SGBAll([]geom.Point{{1, 1}}, Options{Metric: geom.L2, Eps: 1, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 1 || len(res.Groups[0].IDs) != 1 {
			t.Fatalf("%v: singleton input produced %v", alg, res.Groups)
		}
	}
}

func TestDuplicatePointsGroupTogether(t *testing.T) {
	pts := []geom.Point{{1, 1}, {1, 1}, {1, 1}, {9, 9}}
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 0.5, Overlap: JoinAny, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedSizes(res); !reflect.DeepEqual(got, []int{1, 3}) {
			t.Fatalf("%v: sizes = %v, want [1 3]", alg, got)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := SGBAll(nil, Options{Metric: geom.L2, Eps: 0}); err == nil {
		t.Error("accepted eps = 0")
	}
	if _, err := SGBAll(nil, Options{Metric: geom.L2, Eps: -1}); err == nil {
		t.Error("accepted negative eps")
	}
	// Metric(2) is the retired L1 value: every entry point must refuse it,
	// not panic in Within.
	pts := []geom.Point{{0, 0}, {0.5, 0}}
	for _, m := range []geom.Metric{geom.Metric(2), geom.Metric(7)} {
		opt := Options{Metric: m, Eps: 1}
		if _, err := SGBAll(pts, opt); err == nil {
			t.Errorf("SGBAll accepted unknown metric %v", m)
		}
		if _, err := SGBAny(pts, opt); err == nil {
			t.Errorf("SGBAny accepted unknown metric %v", m)
		}
		if _, err := NewAllGrouper(opt); err == nil {
			t.Errorf("NewAllGrouper accepted unknown metric %v", m)
		}
		if _, err := NewAnyGrouper(opt); err == nil {
			t.Errorf("NewAnyGrouper accepted unknown metric %v", m)
		}
	}
	if _, err := SGBAll(nil, Options{Metric: geom.L2, Eps: 1, Algorithm: Algorithm(9)}); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if _, err := SGBAll(nil, Options{Metric: geom.L2, Eps: 1, Overlap: Overlap(9)}); err == nil {
		t.Error("accepted unknown overlap clause")
	}
}

func TestGrouperLifecycleErrors(t *testing.T) {
	g, err := NewAllGrouper(Options{Metric: geom.L2, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{}); err == nil {
		t.Error("accepted zero-dimensional point")
	}
	if _, err := g.Add(geom.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{1}); err != ErrDimensionMismatch {
		t.Errorf("dimension mismatch error = %v", err)
	}
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{3, 3}); err == nil {
		t.Error("Add after Finish succeeded")
	}
	if _, err := g.Finish(); err == nil {
		t.Error("double Finish succeeded")
	}
}

func TestParseOverlap(t *testing.T) {
	cases := map[string]Overlap{
		"JOIN-ANY": JoinAny, "join_any": JoinAny, "JoinAny": JoinAny,
		"ELIMINATE": Eliminate, "eliminate": Eliminate,
		"FORM-NEW-GROUP": FormNewGroup, "form-new": FormNewGroup, "FORM NEW GROUP": FormNewGroup,
	}
	for in, want := range cases {
		got, err := ParseOverlap(in)
		if err != nil || got != want {
			t.Errorf("ParseOverlap(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseOverlap("merge"); err == nil {
		t.Error("ParseOverlap accepted garbage")
	}
}

func TestEnumStrings(t *testing.T) {
	if JoinAny.String() != "JOIN-ANY" || Eliminate.String() != "ELIMINATE" || FormNewGroup.String() != "FORM-NEW-GROUP" {
		t.Error("overlap names wrong")
	}
	if AllPairs.String() != "All-Pairs" || BoundsChecking.String() != "Bounds-Checking" || IndexBounds.String() != "on-the-fly Index" {
		t.Error("algorithm names wrong")
	}
	if Overlap(9).String() == "" || Algorithm(9).String() == "" {
		t.Error("unknown enum String empty")
	}
}

// TestStatsPopulated sanity-checks the instrumentation counters.
func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	pts := randomPoints(r, 300, 2, 10)
	opt := Options{Metric: geom.L2, Eps: 0.7, Overlap: Eliminate}

	opt.Algorithm = AllPairs
	ap, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = BoundsChecking
	bc, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = IndexBounds
	ix, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Stats.DistanceComps <= bc.Stats.DistanceComps {
		t.Errorf("bounds-checking did not reduce distance computations: %d vs %d",
			bc.Stats.DistanceComps, ap.Stats.DistanceComps)
	}
	if ix.Stats.WindowQueries == 0 || ix.Stats.IndexUpdates == 0 {
		t.Error("index stats not populated")
	}
	if bc.Stats.RectTests == 0 {
		t.Error("rect test count not populated")
	}
	if ap.Stats.Points != 300 || bc.Stats.Points != 300 || ix.Stats.Points != 300 {
		t.Error("point counts wrong")
	}
	// The index prunes the rectangle tests relative to the linear scan.
	if ix.Stats.RectTests > bc.Stats.RectTests {
		t.Errorf("index did not prune rect tests: %d vs %d", ix.Stats.RectTests, bc.Stats.RectTests)
	}
}

// TestManyRoundsFormNewGroup builds a pathological chain that forces several
// FORM-NEW-GROUP rounds and checks termination and validity.
func TestManyRoundsFormNewGroup(t *testing.T) {
	// A tight line of points: each new point overlaps the previous groups,
	// repeatedly deferring points.
	var pts []geom.Point
	for i := 0; i < 60; i++ {
		pts = append(pts, geom.Point{float64(i) * 0.6, 0})
	}
	for _, alg := range allAlgorithms() {
		res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 1, Overlap: FormNewGroup, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		cliqueOK(t, pts, res, geom.LInf, 1)
		partitionOK(t, len(pts), res)
		if res.Stats.Rounds < 2 {
			t.Errorf("%v: expected multiple rounds, got %d", alg, res.Stats.Rounds)
		}
	}
}

// FuzzSGBAllAgree: Index, Bounds-Checking and All-Pairs return one and the
// same partition into ε-cliques. raw holds two bytes per coordinate — a
// multiple of ε/4 (as int8) and a nudge selector — and mode picks the metric
// (mode%2), the ON-OVERLAP clause (mode/2%3) and the dimensionality
// (1+mode/6%3); the random seeds cover all 18 modes. The first seeds are the ε-boundary counterexample of
// TestEpsBoundaryCounterexample under every clause, in both arrival orders:
// -12·ε/4 - 1e-9 and 6·ε/4, then -16·ε/4 - 1e-9 and 4·ε/4, with ε = 0.25, in
// 2-D L∞.
func FuzzSGBAllAgree(f *testing.F) {
	p, q := []byte{0xf4, 2, 6, 0}, []byte{0xf0, 2, 4, 0}
	for _, mode := range []uint8{6, 8, 10} {
		f.Add(append(slices.Clone(p), q...), mode, 0.25)
		f.Add(append(slices.Clone(q), p...), mode, 0.25)
	}
	r := rand.New(rand.NewSource(56))
	for mode := uint8(0); mode < 18; mode++ {
		raw := make([]byte, 2*60*3)
		r.Read(raw)
		f.Add(raw, mode, []float64{0.25, 1, 1.7}[mode%3])
	}
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, eps float64) {
		if !(eps >= 1e-6 && eps <= 1e6) {
			t.Skip("ε outside [1e-6, 1e6]")
		}
		m := []geom.Metric{geom.LInf, geom.L2}[mode%2]
		ov := []Overlap{JoinAny, Eliminate, FormNewGroup}[mode/2%3]
		dim := 1 + int(mode/6%3)
		pts := make([]geom.Point, min(len(raw)/(2*dim), 64))
		for i := range pts {
			p := make(geom.Point, dim)
			for d := range p {
				b := raw[2*(i*dim+d):]
				p[d] = nudge(float64(int8(b[0]))*eps/4, int(b[1]))
			}
			pts[i] = p
		}
		agreeOK(t, pts, m, ov, eps)
	})
}

// FuzzSGBAnyAgree: the ε-grid, the R-tree of points and All-Pairs return one
// and the same SGB-Any grouping. raw holds two bytes per coordinate — a
// multiple of ε/4 (as int8) and a selector — and mode picks the metric
// (mode%2) and the dimensionality (1+mode/2%4). The selector's nudge (k%5)
// puts the coordinate on or an ulp or 1e-9 off a grid wall; selectors from
// 240 up also shift it by a far value (k%4), out of the range whose cell
// indexes are exact, up to ±MaxFloat64, where cells clamp.
func FuzzSGBAnyAgree(f *testing.F) {
	r := rand.New(rand.NewSource(57))
	for mode := uint8(0); mode < 12; mode++ { // every metric × dimension, 1–2-D twice
		raw := make([]byte, 2*60*4)
		r.Read(raw)
		f.Add(raw, mode, []float64{0.25, 1, 1.7}[mode%3])
	}
	far := []float64{1e15, -1e18, 1e300, -math.MaxFloat64}
	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, eps float64) {
		if !(eps >= 1e-6 && eps <= 1e6) {
			t.Skip("ε outside [1e-6, 1e6]")
		}
		m := []geom.Metric{geom.LInf, geom.L2}[mode%2]
		dim := 1 + int(mode/2%4)
		pts := make([]geom.Point, min(len(raw)/(2*dim), 64))
		for i := range pts {
			p := make(geom.Point, dim)
			for d := range p {
				b := raw[2*(i*dim+d):]
				v := float64(int8(b[0])) * eps / 4
				if b[1] >= 240 {
					v += far[b[1]%4]
				}
				p[d] = nudge(v, int(b[1]))
			}
			pts[i] = p
		}
		var want *Result
		for _, ix := range anyIndexes {
			res, err := ix.run(pts, m, eps)
			if err != nil {
				t.Fatalf("%v/%s: %v", m, ix.name, err)
			}
			if want == nil {
				want = res
			} else if !reflect.DeepEqual(res.Groups, want.Groups) {
				t.Fatalf("%v/d%d: %s disagrees with %s:\n got %v\nwant %v", m, dim, ix.name, anyIndexes[0].name, res.Groups, want.Groups)
			}
		}
	})
}
