package core

import (
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// TestAddColsMatchesAdd pins the columnar entry points to the row-at-a-time
// ones: feeding a batch through AddCols must produce exactly the groups,
// dropped set, and merge counts of an Add loop over the same points, for
// every semantics × algorithm combination, on adversarial cell-boundary
// inputs.
func TestAddColsMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, dim := range []int{1, 2, 3} {
			pts := adversarialPoints(r, 150, dim, 0.5)
			cols := geom.ColsFromPoints(pts)

			for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
				for _, alg := range []Algorithm{AllPairs, BoundsChecking, IndexBounds} {
					opt := Options{Metric: m, Eps: 0.5, Overlap: ov, Algorithm: alg}
					want, err := SGBAll(pts, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := SGBAllCols(cols, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.Dropped, want.Dropped) {
						t.Fatalf("SGB-All %v/%v/dim%d: columnar batch feed differs from Add loop", m, alg, dim)
					}
					if got.Stats != want.Stats {
						t.Fatalf("SGB-All %v/%v/dim%d: stats differ: %+v vs %+v", m, alg, dim, got.Stats, want.Stats)
					}
				}
			}

			for _, alg := range []Algorithm{AllPairs, IndexBounds} {
				opt := Options{Metric: m, Eps: 0.5, Algorithm: alg}
				want, err := SGBAny(pts, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SGBAnyCols(cols, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Groups, want.Groups) {
					t.Fatalf("SGB-Any %v/%v/dim%d: columnar batch feed differs from Add loop", m, alg, dim)
				}
				if got.Stats != want.Stats {
					t.Fatalf("SGB-Any %v/%v/dim%d: stats differ: %+v vs %+v", m, alg, dim, got.Stats, want.Stats)
				}
			}
		}
	}
}

// TestParallelColsMatchesSerial pins the columnar feed of the ε-grid against
// the All-Pairs reference on adversarial cell-boundary inputs.
func TestParallelColsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for _, eps := range []float64{0.25, 1.5} {
			pts := adversarialPoints(r, 120+r.Intn(80), 2, eps)
			want, err := SGBAny(pts, Options{Metric: m, Eps: eps, Algorithm: AllPairs})
			if err != nil {
				t.Fatal(err)
			}
			got, err := SGBAnyCols(geom.ColsFromPoints(pts), Options{Metric: m, Eps: eps, Algorithm: IndexBounds})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Groups, want.Groups) {
				t.Fatalf("%v/eps%g: columnar grid grouping differs from All-Pairs", m, eps)
			}
		}
	}
}

// TestGrouperSteadyStateAllocs pins the kernel probing of the streaming
// groupers allocation-free in steady state: once the scratch buffers have
// grown, Add must not allocate per probe beyond the per-point bookkeeping
// (point storage, union-find slot, index node amortization).
func TestGrouperSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g, err := NewAnyGrouper(Options{Metric: geom.L2, Eps: 0.25, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: grow the columnar store and kernel scratch.
	for i := 0; i < 2000; i++ {
		if _, err := g.Add(geom.Point{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Point{0.5, 0.5}
	// Each Add appends one point (amortized growth) and probes 2000+ points
	// through the kernels. The kernel calls themselves must contribute no
	// allocations; a generous bound of 4 covers amortized slice growth of
	// the stores.
	avg := testing.AllocsPerRun(200, func() {
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("AnyGrouper.Add allocates %.1f per call in steady state, want <= 4", avg)
	}
}
