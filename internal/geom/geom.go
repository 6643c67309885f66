// Package geom provides the geometric substrate for the similarity group-by
// operators: multi-dimensional points, axis-aligned rectangles, and the
// Minkowski distance metrics — L2 and L∞ from the paper, plus L1 as an
// extension.
//
// Points are plain float64 slices so that callers can work in any number of
// dimensions; the operators in internal/core are dimension-agnostic, with the
// 2-D case receiving the convex-hull refinement described in the paper.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Metric selects the Minkowski distance function δ used by a similarity
// predicate ξ(δ,ε).
type Metric uint8

const (
	// L2 is the Euclidean distance δ2(p,q) = sqrt(Σ (p_i-q_i)²).
	L2 Metric = iota
	// LInf is the maximum (Chebyshev) distance δ∞(p,q) = max_i |p_i-q_i|.
	LInf
	// L1 is the Manhattan distance δ1(p,q) = Σ |p_i-q_i|. The paper
	// restricts itself to L2 and L∞; L1 is supported as an extension
	// (every filter in the operators is conservative for it because
	// δ∞ ≤ δ1).
	L1
)

// String returns the SQL spelling of the metric.
func (m Metric) String() string {
	switch m {
	case L2:
		return "L2"
	case LInf:
		return "LINF"
	case L1:
		return "L1"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// ParseMetric maps the SQL spellings used by the paper's grammar
// ("L2"/"LTWO", "LINF"/"LONE") plus the "L1" extension onto a Metric.
func ParseMetric(s string) (Metric, error) {
	switch strings.ToUpper(s) {
	case "L2", "LTWO":
		return L2, nil
	case "LINF", "LONE", "L∞":
		return LInf, nil
	case "L1", "MANHATTAN":
		return L1, nil
	default:
		return 0, fmt.Errorf("geom: unknown metric %q", s)
	}
}

// Point is a point in d-dimensional space. The zero-length point is invalid
// for distance computations.
type Point []float64

// Dim reports the dimensionality of p.
func (p Point) Dim() int { return len(p) }

// Clone returns a copy of p that does not share storage.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are identical coordinate-wise.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dist computes δ(p,q) under metric m. Both points must share a dimension;
// Dist panics otherwise, as mixing dimensions is always a programming error.
func Dist(m Metric, p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	switch m {
	case L2:
		var s float64
		for i := range p {
			d := p[i] - q[i]
			s += d * d
		}
		return math.Sqrt(s)
	case LInf:
		var mx float64
		for i := range p {
			d := math.Abs(p[i] - q[i])
			if d > mx {
				mx = d
			}
		}
		return mx
	case L1:
		var s float64
		for i := range p {
			s += math.Abs(p[i] - q[i])
		}
		return s
	default:
		panic("geom: unknown metric")
	}
}

// withinSmallDim is the dimensionality up to which Within accumulates the
// whole distance before comparing. The per-coordinate early-exit branch is
// only worth its misprediction cost on long coordinate vectors; for the 2-D
// and 3-D hot cases a straight-line accumulate-then-compare body is both
// faster (it vectorizes) and exactly the operation chain the batch kernels
// in kernel.go use.
const withinSmallDim = 4

// Within evaluates the similarity predicate ξ(δ,ε): it reports whether
// δ(p,q) ≤ eps — equivalently, Dist(m, p, q) <= eps, for every input
// including NaN/±Inf coordinates and non-positive or non-finite ε (the
// equivalence is pinned by TestWithinMatchesDist and
// TestWithinEquivalenceSpecialValues). For L2 the comparison is performed on
// squared distances to avoid the square root on the hot path; a negative ε
// therefore needs an explicit guard, since squaring it would flip its sign
// and match points a negative threshold must reject. The squared compare is
// the authoritative L2 semantics (shared bit-for-bit with the batch kernels
// in kernel.go); it can disagree with the sqrt-bearing Dist compare only
// when ε sits within one ulp of the true distance, where both roundings are
// defensible.
func Within(m Metric, p, q Point, eps float64) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	switch m {
	case L2:
		if eps < 0 {
			return false
		}
		e2 := eps * eps
		var s float64
		if len(p) <= withinSmallDim {
			for i := range p {
				d := p[i] - q[i]
				s += d * d
			}
			return s <= e2
		}
		for i := range p {
			d := p[i] - q[i]
			s += d * d
			if s > e2 {
				return false
			}
		}
		return s <= e2
	case LInf:
		if len(p) <= withinSmallDim {
			// Accumulate the running maximum exactly like Dist does (strict
			// >, starting at 0), then compare once — the final compare is
			// false for NaN ε, where a per-coordinate `d > eps` test would
			// never fire and wrongly accept.
			var mx float64
			for i := range p {
				if d := math.Abs(p[i] - q[i]); d > mx {
					mx = d
				}
			}
			return mx <= eps
		}
		if !(eps >= 0) {
			return false // negative or NaN ε matches nothing
		}
		for i := range p {
			d := math.Abs(p[i] - q[i])
			if d > eps {
				return false
			}
		}
		return true
	case L1:
		var s float64
		if len(p) <= withinSmallDim {
			for i := range p {
				s += math.Abs(p[i] - q[i])
			}
			return s <= eps
		}
		for i := range p {
			s += math.Abs(p[i] - q[i])
			if s > eps {
				return false
			}
		}
		// Not `return true`: s may be NaN (a NaN coordinate never trips the
		// early exit because NaN compares false), and NaN ≤ ε must reject
		// just as Dist(p,q) <= eps does.
		return s <= eps
	default:
		panic("geom: unknown metric")
	}
}

// Rect is a closed axis-aligned rectangle (hyper-box) [Min, Max].
type Rect struct {
	Min, Max Point
}

// BoxAround returns the axis-aligned box of half-side r centred at p: the set
// of points within L∞ distance r of p. It is the ε-rectangle used throughout
// the paper's bounds-checking filter.
func BoxAround(p Point, r float64) Rect {
	min := make(Point, len(p))
	max := make(Point, len(p))
	for i, v := range p {
		min[i] = v - r
		max[i] = v + r
	}
	return Rect{Min: min, Max: max}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// Dim reports the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Min {
		if r.Min[i] > o.Max[i] || r.Max[i] < o.Min[i] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], o.Min[i])
		max[i] = math.Max(r.Max[i], o.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// Expand grows r in place so that it covers p, returning the grown rectangle.
func (r Rect) Expand(p Point) Rect {
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], p[i])
		max[i] = math.Max(r.Max[i], p[i])
	}
	return Rect{Min: min, Max: max}
}

// ExpandRectInPlace grows r in place to also cover o. The receiver's corner
// slices are mutated, so the caller must own their storage exclusively.
func (r *Rect) ExpandRectInPlace(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// UnionArea returns the area of the minimum bounding rectangle of r and o
// without materializing it.
func (r Rect) UnionArea(o Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if o.Min[i] < lo {
			lo = o.Min[i]
		}
		if o.Max[i] > hi {
			hi = o.Max[i]
		}
		a *= hi - lo
	}
	return a
}

// Enlargement returns how much the area of r would grow if it were extended
// to also cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.UnionArea(o) - r.Area()
}

// Equal reports whether r and o are the same rectangle.
func (r Rect) Equal(o Rect) bool {
	return r.Min.Equal(o.Min) && r.Max.Equal(o.Max)
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect{%v, %v}", []float64(r.Min), []float64(r.Max))
}
