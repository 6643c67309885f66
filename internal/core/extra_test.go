package core

import (
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// TestJoinAnyRandSpread: JOIN-ANY takes the lowest-numbered candidate, so
// bridge points within ε of both anchor groups all join group 0, the same
// way on every run, and the groups stay valid cliques.
func TestJoinAnyRandSpread(t *testing.T) {
	// Two anchor groups, then a stream of bridge points each within ε of
	// both anchors.
	pts := []geom.Point{{0, 0}, {4, 0}}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{2, float64(i) * 0.001})
	}
	opt := Options{Metric: geom.LInf, Eps: 2.5, Overlap: JoinAny, Algorithm: IndexBounds}

	first, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Groups, again.Groups) {
		t.Fatal("JOIN-ANY is not deterministic")
	}
	if len(first.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(first.Groups))
	}
	if a, b := len(first.Groups[0].IDs), len(first.Groups[1].IDs); a != 41 || b != 1 {
		t.Fatalf("sizes %d/%d, want 41/1: every bridge point joins group 0", a, b)
	}
	cliqueOK(t, pts, first, geom.LInf, 2.5)
	partitionOK(t, len(pts), first)
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

// TestAddReusedBuffer: Add copies its point, so a streaming caller may feed
// every point through one reused buffer. For each algorithm × ON-OVERLAP
// mode the answer must equal SGBAll's on distinct slices; before Add copied,
// the first five points below corrupted the groups' rectangles and panicked.
// SGB-Any's Add and AddLinked copy too, on every point index.
func TestAddReusedBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	pts := append([]geom.Point{{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {0.05, 0}},
		randomPoints(r, 300, 2, 10)...)
	for _, m := range []geom.Metric{geom.LInf, geom.L2} {
		for _, alg := range []Algorithm{AllPairs, BoundsChecking, IndexBounds} {
			for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
				opt := Options{Metric: m, Eps: 0.6, Overlap: ov, Algorithm: alg}
				want, err := SGBAll(pts, opt)
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewAllGrouper(opt)
				if err != nil {
					t.Fatal(err)
				}
				buf := make(geom.Point, 2)
				for _, p := range pts {
					copy(buf, p)
					if _, err := g.Add(buf); err != nil {
						t.Fatal(err)
					}
				}
				got, err := g.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%v/%v: reused-buffer feed differs from SGBAll:\n%v\nvs\n%v", m, alg, ov, got, want)
				}
			}
		}
		want := referenceComponents(pts, m, 0.6)
		for _, c := range []struct {
			name     string
			alg      Algorithm
			blockCap float64
			linked   bool
		}{
			{"all-pairs", AllPairs, gridBlockCap, false},
			{"grid", IndexBounds, gridBlockCap, false},
			{"rtree", IndexBounds, 0, false},
			{"grid/AddLinked", IndexBounds, gridBlockCap, true},
		} {
			g, err := newAnyGrouper(Options{Metric: m, Eps: 0.6, Algorithm: c.alg}, c.blockCap)
			if err != nil {
				t.Fatal(err)
			}
			buf := make(geom.Point, 2)
			for _, p := range pts {
				copy(buf, p)
				if c.linked {
					_, _, err = g.AddLinked(buf)
				} else {
					_, err = g.Add(buf)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := g.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, want) {
				t.Fatalf("SGB-Any %v/%s: reused-buffer feed differs from the connected components", m, c.name)
			}
		}
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
