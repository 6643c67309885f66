package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestWithinEquivalenceSpecialValues is the satellite equivalence test for
// the Within restructure: the accumulate-then-compare predicate must agree
// with `Dist(p,q) <= eps` on every input — NaN and ±Inf coordinates, NaN,
// ±Inf, zero, and negative ε, exact-boundary distances, and dimensionalities
// on both sides of the withinSmallDim split.
func TestWithinEquivalenceSpecialValues(t *testing.T) {
	specials := []float64{0, 1, -1, 0.25, -0.25, 1e-12, -1e-12, 1e154,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	epsVals := []float64{0, 0.25, 1, 2, -1, math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(11))

	check := func(m Metric, p, q Point, eps float64) {
		t.Helper()
		d := Dist(m, p, q)
		got, want := Within(m, p, q, eps), d <= eps
		if got != want {
			// L2's squared compare is allowed to disagree with the
			// sqrt-bearing compare only when ε is within one ulp of the
			// rounded distance — both verdicts are faithful roundings there.
			if m == L2 && math.Nextafter(eps, math.Inf(1)) >= d &&
				math.Nextafter(eps, math.Inf(-1)) <= d {
				return
			}
			t.Fatalf("%s dim=%d: Within(%v,%v,%g)=%v, Dist=%g (want %v)",
				m, len(p), p, q, eps, got, d, want)
		}
	}

	for _, m := range []Metric{L2, LInf, L1} {
		// Exhaustive special-value pairs in 1-D and 2-D.
		for _, a := range specials {
			for _, b := range specials {
				for _, eps := range epsVals {
					check(m, Point{a}, Point{b}, eps)
					check(m, Point{a, b}, Point{b, a}, eps)
					check(m, Point{a, 0.5}, Point{b, 0.5}, eps)
				}
			}
		}
		// Random vectors across the small-dim/large-dim split, with one
		// special value planted at a random position.
		for dim := 1; dim <= 7; dim++ {
			for i := 0; i < 500; i++ {
				p := make(Point, dim)
				q := make(Point, dim)
				for d := range p {
					p[d] = rng.NormFloat64() * 3
					q[d] = rng.NormFloat64() * 3
				}
				if i%5 == 0 {
					p[rng.Intn(dim)] = specials[rng.Intn(len(specials))]
				}
				eps := epsVals[rng.Intn(len(epsVals))]
				check(m, p, q, eps)
				// Exact boundary: ε equal to the distance itself must be
				// inclusive on both paths.
				if d := Dist(m, p, q); !math.IsNaN(d) && !math.IsInf(d, 0) {
					check(m, p, q, d)
				}
			}
		}
	}
}

// TestWithinExactBoundary pins the inclusive boundary on coordinates chosen
// so distance and ε are bit-equal without rounding.
func TestWithinExactBoundary(t *testing.T) {
	cases := []struct {
		m    Metric
		p, q Point
		eps  float64
	}{
		{L2, Point{0, 0}, Point{3, 4}, 5},
		{L2, Point{0, 0}, Point{0.25, 0}, 0.25},
		{LInf, Point{1, 2}, Point{1.25, 2.125}, 0.25},
		{L1, Point{0, 0}, Point{0.125, 0.125}, 0.25},
	}
	for _, c := range cases {
		if !Within(c.m, c.p, c.q, c.eps) {
			t.Errorf("%s: boundary Within(%v,%v,%g) = false, want true", c.m, c.p, c.q, c.eps)
		}
		// A threshold one ulp below the distance must reject.
		below := math.Nextafter(c.eps, 0)
		if Within(c.m, c.p, c.q, below) != (Dist(c.m, c.p, c.q) <= below) {
			t.Errorf("%s: one-ulp-below threshold disagrees with Dist", c.m)
		}
	}
}

// TestKernelMatchesWithin is the kernel↔scalar contract: WithinMask's mask
// must equal a per-row Within call — bit-identical verdicts, not just
// approximately — across metrics, dimensionalities, ε values, and special
// coordinates.
func TestKernelMatchesWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	epsVals := []float64{0, 1e-9, 0.25, 1, 100, -1, math.NaN(), math.Inf(1)}
	for _, m := range []Metric{L2, LInf, L1} {
		for dim := 1; dim <= 6; dim++ {
			const n = 257 // odd, larger than typical vector widths
			pts := make([]Point, n)
			for i := range pts {
				p := make(Point, dim)
				for d := range p {
					p[d] = rng.NormFloat64() * 2
				}
				if i%17 == 0 {
					p[rng.Intn(dim)] = math.NaN()
				}
				if i%23 == 0 {
					p[rng.Intn(dim)] = math.Inf(1 - 2*(i%2))
				}
				pts[i] = p
			}
			cols := ColsFromPoints(pts)
			q := make(Point, dim)
			for d := range q {
				q[d] = rng.NormFloat64()
			}
			dists := make([]float64, n)
			mask := make([]bool, n)
			for _, eps := range epsVals {
				cnt := WithinMask(m, cols, q, eps, dists, mask)
				want := 0
				for i, p := range pts {
					w := Within(m, p, q, eps)
					if mask[i] != w {
						t.Fatalf("%s dim=%d eps=%g row %d: mask=%v Within=%v (p=%v q=%v)",
							m, dim, eps, i, mask[i], w, p, q)
					}
					if w {
						want++
					}
				}
				if cnt != want {
					t.Fatalf("%s dim=%d eps=%g: count=%d want %d", m, dim, eps, cnt, want)
				}
				// distsSquared must be the comparable distance: Dist once
				// mapped through the same scale (and NaN where Dist is NaN).
				for i, p := range pts {
					d := Dist(m, p, q)
					got := dists[i]
					if m == L2 && !math.IsNaN(d) {
						got = math.Sqrt(got)
					}
					if math.IsNaN(d) != math.IsNaN(got) {
						t.Fatalf("%s dim=%d row %d: dists NaN mismatch (%v vs %v)", m, dim, i, got, d)
					}
					if !math.IsNaN(d) && math.Abs(got-d) > 1e-9*math.Max(1, d) {
						t.Fatalf("%s dim=%d row %d: dists=%v Dist=%v", m, dim, i, got, d)
					}
				}
			}
		}
	}
}

// TestColsBasics covers the columnar container: ColsFromPoints transposes
// the points into columns, and an empty input yields an empty set.
func TestColsBasics(t *testing.T) {
	pts := []Point{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	c := ColsFromPoints(pts)
	if len(c.dims) != 2 || c.Len() != 4 {
		t.Fatalf("dim/len = %d/%d", len(c.dims), c.Len())
	}
	for i, p := range pts {
		for d, v := range p {
			if c.dims[d][i] != v {
				t.Fatalf("column %d row %d = %v, want %v", d, i, c.dims[d][i], v)
			}
		}
	}
	if e := ColsFromPoints(nil); e.Len() != 0 {
		t.Fatalf("empty Cols has %d rows", e.Len())
	}
}

// TestKernelScratchAllocs pins the kernel hot path allocation-free: with
// caller-owned scratch buffers, distsSquared and WithinMask must not
// allocate.
func TestKernelScratchAllocs(t *testing.T) {
	const n = 512
	cols, q, dists, mask := kernelBenchData(n)
	for name, fn := range map[string]func(){
		"distsSquared": func() { distsSquared(L2, cols, q, dists) },
		"WithinMask":   func() { WithinMask(L2, cols, q, 0.25, dists, mask) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, a)
		}
	}
}

// kernelBenchData builds a deterministic 2-D workload for the kernel
// benchmarks.
func kernelBenchData(n int) (Cols, Point, []float64, []bool) {
	rng := rand.New(rand.NewSource(99))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 4, rng.Float64() * 4}
	}
	return ColsFromPoints(pts), Point{2, 2}, make([]float64, n), make([]bool, n)
}

// BenchmarkKernelWithinMask measures batch-predicate throughput per metric —
// the quantity the benchmark of record reports as geom.within_mask_ns_per_point
// (geom.within_scalar_ns_per_point for the scalar loop). Compare against
// BenchmarkScalarWithinColumn to see the layout + vectorization gain.
func BenchmarkKernelWithinMask(b *testing.B) {
	const n = 4096
	cols, q, dists, mask := kernelBenchData(n)
	for _, m := range []Metric{L2, LInf, L1} {
		b.Run(m.String(), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			var sink int
			for i := 0; i < b.N; i++ {
				sink += WithinMask(m, cols, q, 0.25, dists, mask)
			}
			_ = sink
		})
	}
}

// BenchmarkKernelDistsSquared measures raw comparable-distance throughput.
func BenchmarkKernelDistsSquared(b *testing.B) {
	const n = 4096
	cols, q, dists, _ := kernelBenchData(n)
	for _, m := range []Metric{L2, LInf, L1} {
		b.Run(m.String(), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			for i := 0; i < b.N; i++ {
				distsSquared(m, cols, q, dists)
			}
		})
	}
}

// BenchmarkScalarWithinColumn is the row-at-a-time reference for the kernel
// benchmarks: the same predicate workload evaluated point-by-point.
func BenchmarkScalarWithinColumn(b *testing.B) {
	const n = 4096
	cols, q, _, _ := kernelBenchData(n)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{cols.dims[0][i], cols.dims[1][i]}
	}
	for _, m := range []Metric{L2, LInf, L1} {
		b.Run(m.String(), func(b *testing.B) {
			b.SetBytes(int64(n * 16))
			var sink int
			for i := 0; i < b.N; i++ {
				cnt := 0
				for _, p := range pts {
					if Within(m, p, q, 0.25) {
						cnt++
					}
				}
				sink += cnt
			}
			_ = sink
		})
	}
}
