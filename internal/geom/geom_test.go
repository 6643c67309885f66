package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMetricString(t *testing.T) {
	if L2.String() != "L2" || LInf.String() != "LINF" {
		t.Fatalf("unexpected metric names: %v %v", L2, LInf)
	}
	if got := Metric(9).String(); got != "Metric(9)" {
		t.Fatalf("unexpected unknown-metric name %q", got)
	}
}

func TestParseMetric(t *testing.T) {
	cases := map[string]Metric{
		"L2": L2, "l2": L2, "LTWO": L2, "ltwo": L2,
		"LINF": LInf, "linf": LInf, "LONE": LInf, "lone": LInf,
	}
	for in, want := range cases {
		got, err := ParseMetric(in)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"chebyshov", "L1", "manhattan"} {
		if _, err := ParseMetric(in); err == nil {
			t.Errorf("ParseMetric accepted the unknown metric %q", in)
		}
	}
}

func TestDistKnownValues(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := Dist(L2, p, q); math.Abs(d-5) > 1e-12 {
		t.Errorf("L2 distance = %v, want 5", d)
	}
	if d := Dist(LInf, p, q); d != 4 {
		t.Errorf("LInf distance = %v, want 4", d)
	}
	// 3-D.
	a := Point{1, 2, 3}
	b := Point{4, 6, 3}
	if d := Dist(L2, a, b); math.Abs(d-5) > 1e-12 {
		t.Errorf("3-D L2 distance = %v, want 5", d)
	}
	if d := Dist(LInf, a, b); d != 4 {
		t.Errorf("3-D LInf distance = %v, want 4", d)
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dist did not panic on dimension mismatch")
		}
	}()
	Dist(L2, Point{1}, Point{1, 2})
}

func TestWithinBoundary(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if !Within(L2, p, q, 5) {
		t.Error("Within should include the boundary (L2)")
	}
	if Within(L2, p, q, 4.999) {
		t.Error("Within accepted a point beyond eps (L2)")
	}
	if !Within(LInf, p, q, 4) {
		t.Error("Within should include the boundary (LInf)")
	}
	if Within(LInf, p, q, 3.999) {
		t.Error("Within accepted a point beyond eps (LInf)")
	}
}

func randomPoint(r *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for i := range p {
		p[i] = r.Float64()*20 - 10
	}
	return p
}

func TestDistProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []Metric{L2, LInf} {
		for dim := 1; dim <= 4; dim++ {
			for trial := 0; trial < 200; trial++ {
				p := randomPoint(r, dim)
				q := randomPoint(r, dim)
				s := randomPoint(r, dim)
				dpq, dqp := Dist(m, p, q), Dist(m, q, p)
				if dpq != dqp {
					t.Fatalf("%v: asymmetric distance %v vs %v", m, dpq, dqp)
				}
				if dpq < 0 {
					t.Fatalf("%v: negative distance", m)
				}
				if Dist(m, p, p) != 0 {
					t.Fatalf("%v: non-zero self distance", m)
				}
				if Dist(m, p, s) > dpq+Dist(m, q, s)+1e-9 {
					t.Fatalf("%v: triangle inequality violated", m)
				}
				// LInf never exceeds L2.
				if Dist(LInf, p, q) > Dist(L2, p, q)+1e-12 {
					t.Fatalf("LInf exceeded L2 for %v %v", p, q)
				}
			}
		}
	}
}

func TestWithinAgreesWithDist(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range []Metric{L2, LInf} {
		for trial := 0; trial < 500; trial++ {
			p := randomPoint(r, 3)
			q := randomPoint(r, 3)
			eps := r.Float64() * 10
			d := Dist(m, p, q)
			if math.Abs(d-eps) < 1e-9 {
				continue // numerically on the boundary; either answer is fine
			}
			if got, want := Within(m, p, q, eps), d <= eps; got != want {
				t.Fatalf("%v: Within=%v but Dist=%v eps=%v", m, got, d, eps)
			}
		}
	}
}

func TestPointCloneEqual(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p[0] == 9 {
		t.Fatal("clone shares storage")
	}
	if p.Equal(Point{1, 2}) {
		t.Fatal("points of different dimensions compared equal")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{4, 2})
	if r.Area() != 8 {
		t.Errorf("Area = %v, want 8", r.Area())
	}
	if !r.Contains(Point{4, 2}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 1}) {
		t.Error("Contains rejected interior/boundary point")
	}
	if r.Contains(Point{4.1, 1}) {
		t.Error("Contains accepted exterior point")
	}
	if r.Side(0) != 4 || r.Side(1) != 2 {
		t.Error("Side lengths wrong")
	}
}

func TestNewRectPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRect did not panic on inverted corners")
		}
	}()
	NewRect(Point{1, 0}, Point{0, 1})
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{4, 4})
	b := NewRect(Point{2, 2}, Point{6, 6})
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(NewRect(Point{2, 2}, Point{4, 4})) {
		t.Fatalf("Intersect = %v, %v", got, ok)
	}
	c := NewRect(Point{5, 5}, Point{7, 7})
	if _, ok := a.Intersect(c); ok {
		t.Fatal("Intersect reported overlap for disjoint rects")
	}
	// Touching rectangles intersect at the shared boundary.
	d := NewRect(Point{4, 0}, Point{6, 4})
	if inter, ok := a.Intersect(d); !ok || inter.Area() != 0 {
		t.Fatalf("touching rects: %v %v", inter, ok)
	}
	if !a.Intersects(b) || a.Intersects(c) || !a.Intersects(d) {
		t.Fatal("Intersects disagrees with Intersect")
	}
}

func TestRectUnionExpandContainsRect(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{1, 1})
	b := NewRect(Point{2, -1}, Point{3, 0.5})
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Fatal("Union does not contain operands")
	}
	e := a.Expand(Point{-1, 5})
	if !e.Contains(Point{-1, 5}) || !e.ContainsRect(a) {
		t.Fatal("Expand lost coverage")
	}
	if a.ContainsRect(u) {
		t.Fatal("ContainsRect accepted a larger rect")
	}
	if a.Enlargement(b) != u.Area()-a.Area() {
		t.Fatal("Enlargement inconsistent with Union")
	}
}

func TestBoxAround(t *testing.T) {
	b := BoxAround(Point{1, 2}, 3)
	want := NewRect(Point{-2, -1}, Point{4, 5})
	if !b.Equal(want) {
		t.Fatalf("BoxAround = %v, want %v", b, want)
	}
	// BoxAround is exactly the LInf ball.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		p := randomPoint(r, 2)
		q := randomPoint(r, 2)
		eps := r.Float64() * 5
		if BoxAround(p, eps).Contains(q) != Within(LInf, p, q, eps) {
			t.Fatalf("BoxAround disagrees with LInf ball at %v %v eps=%v", p, q, eps)
		}
	}
}

func TestRectQuickProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}
	commutes := func(ax, ay, bx, by, w1, w2 float64) bool {
		w1, w2 = math.Abs(w1), math.Abs(w2)
		a := NewRect(Point{ax, ay}, Point{ax + w1, ay + w1})
		b := NewRect(Point{bx, by}, Point{bx + w2, by + w2})
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 {
			return false
		}
		if ok1 && !i1.Equal(i2) {
			return false
		}
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(commutes, cfg); err != nil {
		t.Error(err)
	}
	idempotent := func(ax, ay, w float64) bool {
		w = math.Abs(w)
		a := NewRect(Point{ax, ay}, Point{ax + w, ay + w})
		i, ok := a.Intersect(a)
		return ok && i.Equal(a) && a.Union(a).Equal(a) && a.ContainsRect(a)
	}
	if err := quick.Check(idempotent, cfg); err != nil {
		t.Error(err)
	}
}

func TestPointRectAndClone(t *testing.T) {
	p := Point{1, 2}
	r := PointRect(p)
	if r.Area() != 0 || !r.Contains(p) {
		t.Fatal("PointRect is not the degenerate rect at p")
	}
	c := r.Clone()
	c.Min[0] = -9
	if r.Min[0] == -9 {
		t.Fatal("Clone shares storage")
	}
	if r.Dim() != 2 {
		t.Fatal("Dim wrong")
	}
}
