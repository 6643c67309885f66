package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sgb/internal/geom"
)

// adversarialPoints generates coordinates engineered to sit on or near ε-grid
// cell walls: exact multiples of ε, values a few ULPs either side, negative
// cells, and the origin — the inputs where truncation-based cell flooring
// used to disagree with math.Floor.
func adversarialPoints(r *rand.Rand, n, dim int, eps float64) []geom.Point {
	deltas := []float64{0, 1e-12, -1e-12, eps / 2, -eps / 2, eps * 1e-9, -eps * 1e-9}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			k := float64(r.Intn(9) - 4) // cells -4..4, straddling the origin
			p[d] = k*eps + deltas[r.Intn(len(deltas))]
		}
		pts[i] = p
	}
	return pts
}

// TestParallelAnyAdversarialCellBoundaries runs every SGB-Any path against the
// brute-force components on boundary-straddling inputs across metrics,
// dimensions and ε values.
func TestParallelAnyAdversarialCellBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3} {
			for _, eps := range []float64{0.25, 1, 3.7} {
				for trial := 0; trial < 4; trial++ {
					pts := adversarialPoints(r, 80+r.Intn(120), dim, eps)
					checkAnyAgainstOracle(t, fmt.Sprintf("dim%d/eps%g", dim, eps), pts, m, eps)
				}
			}
		}
	}
}

// TestParallelAnyNegativeCoordinates: cells around the origin exercise the
// floor-division boundary.
func TestParallelAnyNegativeCoordinates(t *testing.T) {
	pts := []geom.Point{
		{-0.1, -0.1}, {0.1, 0.1}, // adjacent cells across the origin, within eps
		{-5, -5}, {-5.2, -5.2}, // negative-quadrant pair
		{3, 3}, // isolated
	}
	checkAnyAgainstOracle(t, "origin", pts, geom.L2, 0.5)
}

// TestParallelAnyExactCellBoundary: points exactly eps apart land in adjacent
// cells and must connect (the predicate is <=).
func TestParallelAnyExactCellBoundary(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}}
	got, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 1, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 1 || len(got.Groups[0].IDs) != 3 {
		t.Fatalf("boundary chain split: %v", got.Groups)
	}
}

// TestParallelAnyDegenerate: bad input is rejected before the grid sees it.
func TestParallelAnyDegenerate(t *testing.T) {
	opt := Options{Metric: geom.L2, Eps: 1, Algorithm: IndexBounds}
	if _, err := SGBAny([]geom.Point{{1, 1}, {1}}, opt); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("mixed dimensions: err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := SGBAny([]geom.Point{{}}, opt); err == nil {
		t.Error("zero-dimensional point accepted")
	}
	opt.Eps = 0
	if _, err := SGBAny(nil, opt); err == nil {
		t.Error("eps=0 accepted")
	}
}

// TestNonFiniteCoordinatesRejected: NaN and ±Inf poison distance comparisons
// and grid hashing; every entry point must reject them with the typed error.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	bad := []geom.Point{{1, 2}, {math.NaN(), 0}}
	opt := Options{Metric: geom.L2, Eps: 1}

	if _, err := SGBAny(bad, opt); !errors.Is(err, ErrNonFiniteCoordinate) {
		t.Fatalf("SGBAny: err = %v, want ErrNonFiniteCoordinate", err)
	}
	if _, err := SGBAll(bad, opt); !errors.Is(err, ErrNonFiniteCoordinate) {
		t.Fatalf("SGBAll: err = %v, want ErrNonFiniteCoordinate", err)
	}
	opt.Algorithm = IndexBounds
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := SGBAny([]geom.Point{{1, 2}, {v, 0}}, opt); !errors.Is(err, ErrNonFiniteCoordinate) {
			t.Fatalf("SGBAny(%v) on the grid: err = %v, want ErrNonFiniteCoordinate", v, err)
		}
	}

	g, err := NewAnyGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add(geom.Point{math.Inf(1), 0}); !errors.Is(err, ErrNonFiniteCoordinate) {
		t.Fatalf("AnyGrouper.Add: err = %v, want ErrNonFiniteCoordinate", err)
	}
	ag, err := NewAllGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ag.Add(geom.Point{0, math.NaN()}); !errors.Is(err, ErrNonFiniteCoordinate) {
		t.Fatalf("AllGrouper.Add: err = %v, want ErrNonFiniteCoordinate", err)
	}
}

// TestGrouperWithContextCancel: once the armed context dies, streaming Add
// fails within one poll stride, under All-Pairs and on the indexes.
func TestGrouperWithContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{AllPairs, IndexBounds} {
		opt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: alg}
		any, err := NewAnyGrouper(opt)
		if err != nil {
			t.Fatal(err)
		}
		any.WithContext(ctx)
		if err := addUntilError(func(p geom.Point) error { _, e := any.Add(p); return e }); !errors.Is(err, context.Canceled) {
			t.Fatalf("AnyGrouper/%v: err = %v, want context.Canceled", alg, err)
		}

		all, err := NewAllGrouper(opt)
		if err != nil {
			t.Fatal(err)
		}
		all.WithContext(ctx)
		if err := addUntilError(func(p geom.Point) error { _, e := all.Add(p); return e }); !errors.Is(err, context.Canceled) {
			t.Fatalf("AllGrouper/%v: err = %v, want context.Canceled", alg, err)
		}
	}

	// A deadline works the same way through the shared context machinery.
	opt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: AllPairs}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	g2, err := NewAnyGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	g2.WithContext(dctx)
	if err := addUntilError(func(p geom.Point) error { _, e := g2.Add(p); return e }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestParallelCtxCancel: the feed the engine uses — Add on the ε-grid — stops
// within one poll stride of the context dying mid-stream instead of grouping
// on, and a live context changes nothing.
func TestParallelCtxCancel(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(7)), 5000, 2, 3)
	opt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: IndexBounds}

	ctx, cancel := context.WithCancel(context.Background())
	g, err := NewAnyGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	g.WithContext(ctx)
	half := len(pts) / 2
	for _, p := range pts[:half] {
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	err = nil
	for _, p := range pts[half : half+ctxCheckStride+1] {
		if _, err = g.Add(p); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d points past the cancel, want context.Canceled", err, ctxCheckStride+1)
	}

	want, err := SGBAny(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewAnyGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	live.WithContext(context.Background())
	for _, p := range pts {
		if _, err := live.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := live.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) || got.Stats != want.Stats {
		t.Fatal("a live context changed the grouping")
	}
}

func addUntilError(add func(geom.Point) error) error {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4*ctxCheckStride; i++ {
		if err := add(geom.Point{r.Float64(), r.Float64()}); err != nil {
			return err
		}
	}
	return nil
}
