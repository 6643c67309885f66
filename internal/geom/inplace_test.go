package geom

import (
	"math"
	"math/rand"
	"testing"
)

func randomRect(r *rand.Rand, dim int) Rect {
	min := make(Point, dim)
	max := make(Point, dim)
	for i := 0; i < dim; i++ {
		a := r.Float64()*20 - 10
		min[i], max[i] = a, a+r.Float64()*5
	}
	return Rect{Min: min, Max: max}
}

// TestExpandRectInPlaceMatchesUnion: the in-place fast path must agree with
// the allocating Union.
func TestExpandRectInPlaceMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(130))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(3)
		a := randomRect(r, dim)
		b := randomRect(r, dim)
		want := a.Union(b)
		got := a.Clone()
		got.ExpandRectInPlace(b)
		if !got.Equal(want) {
			t.Fatalf("ExpandRectInPlace %v + %v = %v, want %v", a, b, got, want)
		}
	}
}

// TestUnionAreaMatchesUnion: the allocation-free area must equal the
// materialized union's area.
func TestUnionAreaMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(132))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(3)
		a := randomRect(r, dim)
		b := randomRect(r, dim)
		if got, want := a.UnionArea(b), a.Union(b).Area(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("UnionArea = %v, Union().Area() = %v", got, want)
		}
		if a.Enlargement(b) < -1e-12 {
			t.Fatalf("negative enlargement for %v + %v", a, b)
		}
	}
}

// TestL1DistKnownValues: L1 is not one of the paper's metrics, so its old
// value is an unknown metric, and the two that remain keep the ordering
// L∞ ≤ L2.
func TestL1DistKnownValues(t *testing.T) {
	if got := Metric(2).String(); got != "Metric(2)" {
		t.Fatalf("Metric(2) = %q, want the unknown-metric spelling", got)
	}
	r := rand.New(rand.NewSource(134))
	for trial := 0; trial < 200; trial++ {
		p, q := randomPoint(r, 3), randomPoint(r, 3)
		if dInf, d2 := Dist(LInf, p, q), Dist(L2, p, q); dInf > d2+1e-12 {
			t.Fatalf("metric ordering violated: L∞ %v > L2 %v", dInf, d2)
		}
	}
}
