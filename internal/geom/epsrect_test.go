package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Bound returns Rε-All = [mbr.Max-ε, mbr.Min+ε], the rectangle ContainsPoint
// tests against, for the tests that check its shape.
func (e *EpsRect) Bound() Rect {
	b := Rect{Min: make(Point, len(e.mbr.Min)), Max: make(Point, len(e.mbr.Min))}
	for i := range b.Min {
		b.Min[i] = e.mbr.Max[i] - e.eps
		b.Max[i] = e.mbr.Min[i] + e.eps
	}
	return b
}

// TestEpsRectRejectsWhatWithinRejects is the ε-boundary counterexample the
// cross-algorithm matrix found: p - ε rounds onto q's coordinate, so a test
// against the stored rectangle q + ε admitted p, while Within computes
// p - q = 0.25000000000000006 > ε. Both rectangle tests must now read exactly
// what Within reads, on each side of the pair.
func TestEpsRectRejectsWhatWithinRejects(t *testing.T) {
	p, q := Point{-0.750000001, 0.375}, Point{-1.000000001, 0.25}
	const eps = 0.25
	if Within(LInf, p, q, eps) {
		t.Fatalf("Within(%v, %v, %v) holds; the counterexample no longer applies", p, q, eps)
	}
	for _, c := range [][2]Point{{q, p}, {p, q}} {
		e := NewEpsRect(c[0], eps)
		if e.ContainsPoint(c[1]) || e.Reaches(c[1]) {
			t.Errorf("{%v}: ContainsPoint(%v) = %v, Reaches = %v; Within rejects the pair", c[0], c[1], e.ContainsPoint(c[1]), e.Reaches(c[1]))
		}
	}
	// One ulp closer, Within accepts and so must the rectangle.
	near := Point{math.Nextafter(p[0], -1), p[1]}
	for near[0]-q[0] > eps {
		near[0] = math.Nextafter(near[0], -1)
	}
	if !Within(LInf, near, q, eps) || !NewEpsRect(q, eps).ContainsPoint(near) {
		t.Errorf("%v: Within %v, ContainsPoint %v; want both true", near, Within(LInf, near, q, eps), NewEpsRect(q, eps).ContainsPoint(near))
	}
}

// TestEpsRectFilterNeverRejectsWithin: on ε-multiples nudged by ulps, the
// rectangle test equals Within against every member under L∞ and is implied
// by it under L1 and L2; Reaches is implied by Within against any member.
func TestEpsRectFilterNeverRejectsWithin(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const eps = 0.25
	coord := func() float64 {
		v := float64(r.Intn(9)-4) * eps / 4
		for k := r.Intn(3); k > 0; k-- {
			v = math.Nextafter(v, math.Inf(2*r.Intn(2)-1))
		}
		return v + []float64{0, 1e-9, -1e-9}[r.Intn(3)]
	}
	for _, m := range []Metric{LInf, L1, L2} {
		for trial := 0; trial < 2000; trial++ {
			members := []Point{{coord(), coord()}}
			e := NewEpsRect(members[0], eps)
			for i := 0; i < 6; i++ {
				c := Point{coord(), coord()}
				all := true
				for _, q := range members {
					all = all && Within(LInf, c, q, eps)
				}
				if all {
					e.Add(c)
					members = append(members, c)
				}
			}
			p := Point{coord(), coord()}
			all, some := true, false
			for _, q := range members {
				w := Within(m, p, q, eps)
				all, some = all && w, some || w
			}
			if got := e.ContainsPoint(p); (m == LInf && got != all) || (all && !got) {
				t.Fatalf("%v: ContainsPoint(%v) = %v over %v, Within against all = %v", m, p, got, members, all)
			}
			if some && !e.Reaches(p) {
				t.Fatalf("%v: Reaches(%v) = false over %v, but a member is within ε", m, p, members)
			}
		}
	}
}

// TestEpsRectPaperExample walks Figure 5 of the paper: a group growing from
// a1(2,2) with ε=2 under L∞, shrinking its ε-All rectangle as members join.
func TestEpsRectPaperExample(t *testing.T) {
	eps := 2.0
	e := NewEpsRect(Point{2, 2}, eps)
	if got, want := e.Bound(), NewRect(Point{0, 0}, Point{4, 4}); !got.Equal(want) {
		t.Fatalf("initial Rε-All = %v, want %v (2ε-sided box centred at a1)", got, want)
	}
	// a2(3,3) is inside the rectangle, hence within ε of all members.
	a2 := Point{3, 3}
	if !e.ContainsPoint(a2) {
		t.Fatal("a2 should pass the rectangle test")
	}
	e.Add(a2)
	if got, want := e.Bound(), NewRect(Point{1, 1}, Point{4, 4}); !got.Equal(want) {
		t.Fatalf("after a2, Rε-All = %v, want %v", got, want)
	}
	// a3(2,4): inside the shrunken rectangle, joins too.
	a3 := Point{2, 4}
	if !e.ContainsPoint(a3) {
		t.Fatal("a3 should pass the rectangle test")
	}
	e.Add(a3)
	if got, want := e.Bound(), NewRect(Point{1, 2}, Point{4, 4}); !got.Equal(want) {
		t.Fatalf("after a3, Rε-All = %v, want %v", got, want)
	}
	if e.Len() != 3 {
		t.Fatalf("Len = %d, want 3", e.Len())
	}
	if e.Eps() != eps {
		t.Fatalf("Eps = %v", e.Eps())
	}
}

// TestEpsRectInvariantLInf is the paper's central claim: under L∞, a point
// inside Rε-All is within ε of every member, and conversely a point within
// ε of every member is inside Rε-All.
func TestEpsRectInvariantLInf(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		eps := 0.5 + r.Float64()*2
		seed := Point{r.Float64() * 10, r.Float64() * 10}
		e := NewEpsRect(seed, eps)
		members := []Point{seed}
		// Grow a clique by acceptance through the rectangle.
		for i := 0; i < 30; i++ {
			c := Point{r.Float64() * 10, r.Float64() * 10}
			if e.ContainsPoint(c) {
				e.Add(c)
				members = append(members, c)
			}
		}
		// The accepted members must form an L∞ clique.
		for i := range members {
			for j := i + 1; j < len(members); j++ {
				if !Within(LInf, members[i], members[j], eps) {
					t.Fatalf("accepted members violate the clique invariant: %v %v", members[i], members[j])
				}
			}
		}
		// Exactness: probes within ε of all members are inside the rect.
		for i := 0; i < 50; i++ {
			probe := Point{r.Float64() * 10, r.Float64() * 10}
			withinAll := true
			for _, m := range members {
				if !Within(LInf, probe, m, eps) {
					withinAll = false
					break
				}
			}
			if withinAll != e.ContainsPoint(probe) {
				t.Fatalf("rectangle test is not exact under LInf: probe %v withinAll=%v", probe, withinAll)
			}
		}
	}
}

// TestEpsRectConservativeL2 checks the L2 filter property: a point outside
// Rε-All can never be within ε of all members (no false negatives).
func TestEpsRectConservativeL2(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		eps := 0.5 + r.Float64()*2
		seed := Point{r.Float64() * 10, r.Float64() * 10}
		e := NewEpsRect(seed, eps)
		members := []Point{seed}
		for i := 0; i < 30; i++ {
			c := Point{r.Float64() * 10, r.Float64() * 10}
			if !e.ContainsPoint(c) {
				continue
			}
			ok := true
			for _, m := range members {
				if !Within(L2, c, m, eps) {
					ok = false
					break
				}
			}
			if ok {
				e.Add(c)
				members = append(members, c)
			}
		}
		for i := 0; i < 50; i++ {
			probe := Point{r.Float64() * 10, r.Float64() * 10}
			if e.ContainsPoint(probe) {
				continue
			}
			for _, m := range members {
				if !Within(L2, probe, m, eps) {
					goto next
				}
			}
			t.Fatalf("L2 false negative: probe outside Rε-All but within ε of all members")
		next:
		}
	}
}

// TestEpsRectLowerBound confirms §6.3's observation that the rectangle never
// shrinks below ε per side for a legitimate clique.
func TestEpsRectLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	eps := 1.0
	e := NewEpsRect(Point{0, 0}, eps)
	for i := 0; i < 500; i++ {
		c := Point{r.Float64()*4 - 2, r.Float64()*4 - 2}
		if e.ContainsPoint(c) {
			e.Add(c)
		}
	}
	b := e.Bound()
	for axis := 0; axis < 2; axis++ {
		if b.Side(axis) < eps-1e-12 {
			t.Fatalf("Rε-All side %d shrank below ε: %v", axis, b.Side(axis))
		}
	}
}

func TestEpsRectMBRInsideBound(t *testing.T) {
	// A clique's member MBR is always inside Rε-All (every member lies in
	// every other member's ε-box).
	e := NewEpsRect(Point{0, 0}, 3)
	for _, p := range []Point{{1, 1}, {2, 0}, {0, 2}, {-1, -1}} {
		if e.ContainsPoint(p) {
			e.Add(p)
		}
	}
	if !e.Bound().ContainsRect(e.MBR()) {
		t.Fatalf("MBR %v escapes Rε-All %v", e.MBR(), e.Bound())
	}
}

func TestEpsRectRebuildAfterRemoval(t *testing.T) {
	eps := 2.0
	a := Point{0, 0}
	b := Point{1.5, 0}
	e := NewEpsRect(a, eps)
	e.Add(b)
	shrunk := e.Bound()
	// Removing b must grow the rectangle back to a's box.
	e.Rebuild([]Point{a})
	if !e.Bound().Equal(BoxAround(a, eps)) {
		t.Fatalf("Rebuild = %v, want %v", e.Bound(), BoxAround(a, eps))
	}
	if e.Bound().Equal(shrunk) {
		t.Fatal("Rebuild did not grow the rectangle")
	}
	e.Rebuild(nil)
	if e.Len() != 0 || e.ContainsPoint(a) {
		t.Fatal("empty rebuild should contain nothing")
	}
}

func TestEpsRectAddPanicsOnForeignPoint(t *testing.T) {
	e := NewEpsRect(Point{0, 0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a point disjoint from the ε-All rectangle")
		}
	}()
	e.Add(Point{10, 10})
}

func TestEpsRectAddToEmpty(t *testing.T) {
	e := NewEpsRect(Point{0, 0}, 1)
	e.Rebuild(nil)
	e.Add(Point{5, 5})
	if e.Len() != 1 || !e.Bound().Equal(BoxAround(Point{5, 5}, 1)) {
		t.Fatal("Add to an emptied EpsRect should reseed it")
	}
}
