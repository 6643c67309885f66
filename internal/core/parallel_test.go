package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// TestParallelAnyMatchesSequential is the defining property of the parallel
// entry points: byte-for-byte identical groupings to the sequential SGB-Any.
func TestParallelAnyMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2, 8} {
				for trial := 0; trial < 6; trial++ {
					n := 50 + r.Intn(300)
					eps := 0.3 + r.Float64()
					pts := randomPoints(r, n, dim, 10)
					want, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: IndexBounds})
					if err != nil {
						t.Fatal(err)
					}
					got, err := SGBAnyParallel(pts, Options{Metric: m, Eps: eps}, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("%v/dim%d/workers%d: parallel grouping differs", m, dim, workers)
					}
				}
			}
		}
	}
}

func TestParallelAnyNegativeCoordinates(t *testing.T) {
	// Cells around the origin exercise the floor-division boundary.
	pts := []geom.Point{
		{-0.1, -0.1}, {0.1, 0.1}, // adjacent cells across the origin, within eps
		{-5, -5}, {-5.2, -5.2}, // negative-quadrant pair
		{3, 3}, // isolated
	}
	want, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 0.5, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SGBAnyParallel(pts, Options{Metric: geom.L2, Eps: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("parallel %v vs sequential %v", got.Groups, want.Groups)
	}
}

func TestParallelAnyExactCellBoundary(t *testing.T) {
	// Points exactly eps apart land in adjacent cells and must connect
	// (the predicate is <=).
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}}
	got, err := SGBAnyParallel(pts, Options{Metric: geom.L2, Eps: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 1 || len(got.Groups[0].IDs) != 3 {
		t.Fatalf("boundary chain split: %v", got.Groups)
	}
}

func TestParallelAnyDegenerate(t *testing.T) {
	res, err := SGBAnyParallel(nil, Options{Metric: geom.L2, Eps: 1}, 0)
	if err != nil || len(res.Groups) != 0 {
		t.Fatalf("empty input: %v %v", res, err)
	}
	res, err = SGBAnyParallel([]geom.Point{{1, 1}}, Options{Metric: geom.L2, Eps: 1}, 0)
	if err != nil || len(res.Groups) != 1 {
		t.Fatalf("singleton: %v %v", res, err)
	}
	if _, err := SGBAnyParallel([]geom.Point{{1, 1}, {1}}, Options{Metric: geom.L2, Eps: 1}, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("mixed dimensions: err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := SGBAnyParallel(nil, Options{Metric: geom.L2, Eps: 0}, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := SGBAnyParallel([]geom.Point{{}}, Options{Metric: geom.L2, Eps: 1}, 0); err == nil {
		t.Error("zero-dimensional point accepted")
	}
}

func TestParallelAnyStats(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	pts := randomPoints(r, 500, 2, 5)
	opt := Options{Metric: geom.L2, Eps: 0.5}
	res, err := SGBAnyParallel(pts, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points != 500 || res.Stats.DistanceComps == 0 || res.Stats.Rounds != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Groups + merges bookkeeping: n - merges = number of groups.
	if int64(len(res.Groups)) != int64(500)-res.Stats.GroupsMerged {
		t.Fatalf("%d groups but %d merges over 500 points", len(res.Groups), res.Stats.GroupsMerged)
	}
	// The entry point is a shim over the serial grouper: its counters are the
	// serial IndexBounds counters, whatever Algorithm the caller left set.
	opt.Algorithm = IndexBounds
	want, err := SGBAny(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != want.Stats {
		t.Fatalf("shim stats %+v, serial stats %+v", res.Stats, want.Stats)
	}
}

func BenchmarkParallelAnyVsSequential(b *testing.B) {
	r := rand.New(rand.NewSource(102))
	pts := randomPoints(r, 30000, 2, 30)
	opt := Options{Metric: geom.L2, Eps: 0.5}
	b.Run("sequential-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := opt
			o.Algorithm = IndexBounds
			if _, err := SGBAny(pts, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SGBAnyParallel(pts, opt, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
