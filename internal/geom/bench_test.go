package geom

import (
	"math/rand"
	"testing"
)

// BenchmarkDistWithin pins the relative cost of the sqrt-bearing Dist against
// the squared-distance Within on the predicate hot path. If Within regresses
// toward Dist-level cost (e.g. someone reintroduces a square root), the gap
// this benchmark shows collapses and the regression is visible in the CI
// bench smoke run.
func BenchmarkDistWithin(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(42))
	ps := make([]Point, n)
	qs := make([]Point, n)
	for i := range ps {
		ps[i] = Point{rng.Float64(), rng.Float64()}
		qs[i] = Point{rng.Float64(), rng.Float64()}
	}
	for _, m := range []Metric{L2, LInf} {
		b.Run("Dist/"+m.String(), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				k := i % n
				sink += Dist(m, ps[k], qs[k])
			}
			_ = sink
		})
		b.Run("Within/"+m.String(), func(b *testing.B) {
			var sink bool
			for i := 0; i < b.N; i++ {
				k := i % n
				sink = Within(m, ps[k], qs[k], 0.25) || sink
			}
			_ = sink
		})
	}
}

// TestWithinMatchesDist cross-checks the sqrt-free predicate against the
// plain distance on random pairs, including eps values that land exactly on
// the distance (the boundary must stay inclusive under the squared compare).
func TestWithinMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []Metric{L2, LInf} {
		for i := 0; i < 2000; i++ {
			p := Point{rng.Float64() * 10, rng.Float64() * 10}
			q := Point{rng.Float64() * 10, rng.Float64() * 10}
			eps := rng.Float64() * 5
			if got, want := Within(m, p, q, eps), Dist(m, p, q) <= eps; got != want {
				t.Fatalf("%s: Within(%v,%v,%g)=%v, Dist=%g", m, p, q, eps, got, Dist(m, p, q))
			}
		}
		p := Point{0, 0}
		q := Point{3, 4}
		if !Within(m, p, q, Dist(m, p, q)) {
			t.Fatalf("%s: boundary eps must be inclusive", m)
		}
	}
}
