package core

import (
	"context"
	"errors"
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

// TestParallelAnyAdversarialCellBoundaries pins SGBAnyParallel == SGBAny on
// boundary-straddling inputs across metrics, dimensions and worker counts.
func TestParallelAnyAdversarialCellBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3} {
			for _, eps := range []float64{0.25, 1, 3.7} {
				for trial := 0; trial < 4; trial++ {
					pts := adversarialPoints(r, 80+r.Intn(120), dim, eps)
					opt := Options{Metric: m, Eps: eps}
					seqOpt := opt
					seqOpt.Algorithm = AllPairs
					want, err := SGBAny(pts, seqOpt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := SGBAnyParallel(pts, opt, 1+r.Intn(7))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("%v/dim%d/eps%g: parallel grouping differs on boundary points",
							m, dim, eps)
					}
				}
			}
		}
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
	if _, err := SGBAnyParallel(bad, opt, 2); !errors.Is(err, ErrNonFiniteCoordinate) {
		t.Fatalf("SGBAnyParallel: err = %v, want ErrNonFiniteCoordinate", err)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		if _, err := SGBAnyParallel([]geom.Point{{v, 0}}, opt, 2); !errors.Is(err, ErrNonFiniteCoordinate) {
			t.Fatalf("SGBAnyParallel(%v): err = %v, want ErrNonFiniteCoordinate", v, err)
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

// TestParallelCtxCancel: a canceled context aborts the parallel grouping and
// surfaces ctx.Err() instead of a partial result.
func TestParallelCtxCancel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := randomPoints(r, 5000, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SGBAnyParallelCtx(ctx, pts, Options{Metric: geom.L2, Eps: 0.5}, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a partial result")
	}
	// Fewer points than one poll stride: only the checks around the grouping
	// can see the cancellation.
	few := geom.ColsFromPoints(pts[:ctxCheckStride/2])
	if res, err := SGBAnyParallelColsCtx(ctx, few, Options{Metric: geom.L2, Eps: 0.5}, 4); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("columnar entry point on a canceled context: %v, %v", res, err)
	}
	// A live context behaves exactly like the ctx-free API.
	want, err := SGBAnyParallel(pts, Options{Metric: geom.L2, Eps: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SGBAnyParallelCtx(context.Background(), pts, Options{Metric: geom.L2, Eps: 0.5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatal("ctx variant diverged from SGBAnyParallel")
	}
}

// TestGrouperWithContextCancel: once the armed context dies, streaming Add
// fails within one poll stride.
func TestGrouperWithContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Metric: geom.L2, Eps: 0.5, Algorithm: AllPairs}

	any, err := NewAnyGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	any.WithContext(ctx)
	if err := addUntilError(func(p geom.Point) error { _, e := any.Add(p); return e }); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnyGrouper: err = %v, want context.Canceled", err)
	}

	all, err := NewAllGrouper(opt)
	if err != nil {
		t.Fatal(err)
	}
	all.WithContext(ctx)
	if err := addUntilError(func(p geom.Point) error { _, e := all.Add(p); return e }); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllGrouper: err = %v, want context.Canceled", err)
	}

	// A deadline works the same way through the shared context machinery.
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

// addUntilError feeds points until the grouper reports an error, bounded by a
// few poll strides so a broken cancellation path fails the test instead of
// spinning.
func addUntilError(add func(geom.Point) error) error {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4*ctxCheckStride; i++ {
		if err := add(geom.Point{r.Float64(), r.Float64()}); err != nil {
			return err
		}
	}
	return nil
}
