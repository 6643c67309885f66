package core

import (
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// TestJoinAnyRandSpread: with a seeded Rand, JOIN-ANY actually spreads
// overlapping points across candidate groups rather than always picking the
// first; with nil Rand the choice is deterministic.
func TestJoinAnyRandSpread(t *testing.T) {
	// Two anchor groups, then a stream of bridge points each within ε of
	// both anchors.
	pts := []geom.Point{{0, 0}, {4, 0}}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{2, float64(i) * 0.001})
	}
	baseOpt := Options{Metric: geom.LInf, Eps: 2.5, Overlap: JoinAny, Algorithm: IndexBounds}

	det1, err := SGBAll(pts, baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	det2, err := SGBAll(pts, baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(det1.Groups, det2.Groups) {
		t.Fatal("nil-Rand JOIN-ANY is not deterministic")
	}

	opt := baseOpt
	opt.Rand = rand.New(rand.NewSource(5))
	rnd, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Both anchor groups should have received some bridge points.
	if len(rnd.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(rnd.Groups))
	}
	a, b := len(rnd.Groups[0].IDs), len(rnd.Groups[1].IDs)
	if a < 5 || b < 5 {
		t.Fatalf("randomized arbitration did not spread: sizes %d/%d", a, b)
	}
	// The result is still a valid clique partition.
	cliqueOK(t, pts, rnd, geom.LInf, 2.5)
	partitionOK(t, len(pts), rnd)
}

// TestStreamingMatchesBatch: feeding points through the streaming Add API
// produces the identical result to the batch helpers.
func TestStreamingMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(140))
	pts := randomPoints(r, 400, 2, 10)
	opt := Options{Metric: geom.L2, Eps: 0.9, Overlap: FormNewGroup, Algorithm: IndexBounds}

	batch, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewAllGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		id, err := g.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Add returned id %d for input %d", id, i)
		}
	}
	stream, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, stream) {
		t.Fatal("streaming and batch results differ")
	}
}

// TestStatsMonotonicOverAlgorithms: for the same ELIMINATE input, the
// distance-computation counters must order All-Pairs >= Bounds-Checking >=
// Index (each refinement can only cut work).
func TestStatsMonotonicOverAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	for trial := 0; trial < 5; trial++ {
		pts := randomPoints(r, 400, 2, 6)
		opt := Options{Metric: geom.L2, Eps: 0.5, Overlap: Eliminate}
		var comps [3]int64
		for i, alg := range []Algorithm{AllPairs, BoundsChecking, IndexBounds} {
			opt.Algorithm = alg
			res, err := SGBAll(pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			comps[i] = res.Stats.DistanceComps
		}
		if comps[0] < comps[1] || comps[1] < comps[2] {
			t.Fatalf("distance computations not monotone: AP=%d BC=%d IX=%d",
				comps[0], comps[1], comps[2])
		}
	}
}

// TestFormNewGroupChainRounds pins the round accounting on a known
// structure: groups of near-duplicates with serial bridge points defer one
// batch per round.
func TestFormNewGroupRoundsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(142))
	pts := randomPoints(r, 500, 2, 5)
	res, err := SGBAll(pts, Options{Metric: geom.L2, Eps: 0.8, Overlap: FormNewGroup, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds < 1 || res.Stats.Rounds > len(pts) {
		t.Fatalf("rounds = %d", res.Stats.Rounds)
	}
	// All deferred points eventually landed somewhere: partition holds.
	partitionOK(t, len(pts), res)
}

// TestGroupSizesHelper covers Result.Sizes ordering.
func TestGroupSizesHelper(t *testing.T) {
	res := &Result{Groups: []Group{{IDs: []int{0, 2, 4}}, {IDs: []int{1}}, {IDs: []int{3, 5}}}}
	got := res.Sizes()
	want := []int{3, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sizes = %v, want %v", got, want)
	}
}
