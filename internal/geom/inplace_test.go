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

// TestIntersectInPlaceMatchesIntersect: same for the shrinking path.
func TestIntersectInPlaceMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(3)
		a := randomRect(r, dim)
		b := randomRect(r, dim)
		want, wantOK := a.Intersect(b)
		got := a.Clone()
		gotOK := got.IntersectInPlace(b)
		if gotOK != wantOK {
			t.Fatalf("IntersectInPlace ok=%v, want %v", gotOK, wantOK)
		}
		if wantOK && !got.Equal(want) {
			t.Fatalf("IntersectInPlace %v ∩ %v = %v, want %v", a, b, got, want)
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

// TestMinDistProperties: MinDist is a valid lower bound on the distance to
// every point inside the rectangle, and zero exactly for contained points.
func TestMinDistProperties(t *testing.T) {
	r := rand.New(rand.NewSource(133))
	for _, m := range []Metric{L2, LInf, L1} {
		for trial := 0; trial < 200; trial++ {
			rect := randomRect(r, 2)
			p := randomPoint(r, 2)
			md := MinDist(m, p, rect)
			if rect.Contains(p) && md != 0 {
				t.Fatalf("%v: contained point has MinDist %v", m, md)
			}
			// Sample interior points: none may be closer than MinDist.
			for s := 0; s < 20; s++ {
				q := Point{
					rect.Min[0] + r.Float64()*(rect.Max[0]-rect.Min[0]),
					rect.Min[1] + r.Float64()*(rect.Max[1]-rect.Min[1]),
				}
				if d := Dist(m, p, q); d < md-1e-9 {
					t.Fatalf("%v: interior point at %v < MinDist %v", m, d, md)
				}
			}
			// The closest corner/projection achieves the bound under L2.
			if m == L2 {
				proj := Point{
					math.Max(rect.Min[0], math.Min(p[0], rect.Max[0])),
					math.Max(rect.Min[1], math.Min(p[1], rect.Max[1])),
				}
				if d := Dist(L2, p, proj); math.Abs(d-md) > 1e-9 {
					t.Fatalf("projection distance %v != MinDist %v", d, md)
				}
			}
		}
	}
}

// TestMinDist pins MinDist at known values for every metric.
func TestMinDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	cases := []struct {
		p    Point
		m    Metric
		want float64
	}{
		{Point{1, 1}, L2, 0},    // inside
		{Point{2, 2}, L2, 0},    // corner
		{Point{5, 2}, L2, 3},    // axis gap
		{Point{5, 6}, L2, 5},    // 3-4-5 diagonal
		{Point{5, 6}, L1, 7},    // 3 + 4
		{Point{5, 6}, LInf, 4},  // max(3, 4)
		{Point{-1, 1}, LInf, 1}, // single-axis gap
	}
	for _, c := range cases {
		if got := MinDist(c.m, c.p, r); got != c.want {
			t.Errorf("MinDist(%v, %v) = %v, want %v", c.m, c.p, got, c.want)
		}
	}
}

func TestL1DistKnownValues(t *testing.T) {
	if d := Dist(L1, Point{0, 0}, Point{3, 4}); d != 7 {
		t.Fatalf("L1 distance = %v, want 7", d)
	}
	if !Within(L1, Point{0, 0}, Point{3, 4}, 7) || Within(L1, Point{0, 0}, Point{3, 4}, 6.999) {
		t.Fatal("L1 Within boundary wrong")
	}
	// Metric ordering: L∞ ≤ L2 ≤ L1.
	r := rand.New(rand.NewSource(134))
	for trial := 0; trial < 200; trial++ {
		p, q := randomPoint(r, 3), randomPoint(r, 3)
		dInf, d2, d1 := Dist(LInf, p, q), Dist(L2, p, q), Dist(L1, p, q)
		if dInf > d2+1e-12 || d2 > d1+1e-12 {
			t.Fatalf("metric ordering violated: %v %v %v", dInf, d2, d1)
		}
	}
}
