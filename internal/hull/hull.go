// Package hull provides the 2-D convex-hull substrate used by the SGB-All
// operator's L2 refinement step (Procedure 6 in the paper): building a hull,
// testing whether a point lies inside it, and finding the hull vertex
// farthest from a query point.
//
// The correctness argument from §6.4 is that for any query point p, the
// member of a group farthest from p is a vertex of the group's convex hull,
// so the distance-to-all predicate holds for p iff it holds between p and
// that farthest vertex.
package hull

import (
	"math"
	"sort"

	"sgb/internal/geom"
)

// cross returns the z-component of (b-a) × (c-a): positive when a→b→c turns
// counter-clockwise, zero when collinear.
func cross(a, b, c geom.Point) float64 {
	return (b[0]-a[0])*(c[1]-a[1]) - (b[1]-a[1])*(c[0]-a[0])
}

// Compute returns the convex hull of the given 2-D points as a
// counter-clockwise polygon without the closing vertex, using Andrew's
// monotone chain. Collinear boundary points are dropped. Degenerate inputs
// (0, 1 or 2 distinct points) return the distinct points themselves.
//
// The input slice is not modified.
func Compute(points []geom.Point) []geom.Point {
	pts := make([]geom.Point, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	// Deduplicate.
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p[0] != pts[i-1][0] || p[1] != pts[i-1][1] {
			uniq = append(uniq, p)
		}
	}
	pts = uniq
	n := len(pts)
	if n <= 2 {
		out := make([]geom.Point, n)
		copy(out, pts)
		return out
	}
	h := make([]geom.Point, 0, 2*n)
	// Lower chain.
	for _, p := range pts {
		for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	// Upper chain.
	lower := len(h) + 1
	for i := n - 2; i >= 0; i-- {
		p := pts[i]
		for len(h) >= lower && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h[:len(h)-1] // last point repeats the first
}

// Contains reports whether p lies inside or on the boundary of the convex
// polygon hull (counter-clockwise, as produced by Compute). Degenerate hulls
// fall back to segment/point containment.
func Contains(hull []geom.Point, p geom.Point) bool {
	switch len(hull) {
	case 0:
		return false
	case 1:
		return hull[0][0] == p[0] && hull[0][1] == p[1]
	case 2:
		return onSegment(hull[0], hull[1], p)
	}
	for i := range hull {
		j := (i + 1) % len(hull)
		if cross(hull[i], hull[j], p) < 0 {
			return false
		}
	}
	return true
}

// onSegment reports whether p lies on the closed segment ab.
func onSegment(a, b, p geom.Point) bool {
	if cross(a, b, p) != 0 {
		return false
	}
	return math.Min(a[0], b[0]) <= p[0] && p[0] <= math.Max(a[0], b[0]) &&
		math.Min(a[1], b[1]) <= p[1] && p[1] <= math.Max(a[1], b[1])
}

// Farthest returns the hull vertex farthest from p under metric m, together
// with its distance (getMaxDistElem in Procedure 6). It panics on an empty
// hull.
func Farthest(m geom.Metric, hull []geom.Point, p geom.Point) (geom.Point, float64) {
	if len(hull) == 0 {
		panic("hull: Farthest on empty hull")
	}
	best, bestD := hull[0], geom.Dist(m, hull[0], p)
	for _, v := range hull[1:] {
		if d := geom.Dist(m, v, p); d > bestD {
			best, bestD = v, d
		}
	}
	return best, bestD
}

// Diameter returns the largest pairwise distance between hull vertices under
// metric m (the diameter of the underlying point set). A hull with fewer
// than two vertices has diameter 0.
func Diameter(m geom.Metric, hull []geom.Point) float64 {
	var mx float64
	for i := 0; i < len(hull); i++ {
		for j := i + 1; j < len(hull); j++ {
			if d := geom.Dist(m, hull[i], hull[j]); d > mx {
				mx = d
			}
		}
	}
	return mx
}

// Incremental maintains the convex hull of a growing point set. The SGB-All
// operator keeps one per group so the Procedure 6 test does not rebuild the
// hull from all members on every probe: only the current hull vertices plus
// the new point are re-hulled, which is O(h log h) per insertion.
type Incremental struct {
	verts []geom.Point
}

// NewIncremental returns an incremental hull seeded with the given points.
func NewIncremental(points ...geom.Point) *Incremental {
	return &Incremental{verts: Compute(points)}
}

// Add extends the hull with p. Points already inside the hull leave it
// unchanged.
func (h *Incremental) Add(p geom.Point) {
	if Contains(h.verts, p) {
		return
	}
	h.verts = Compute(append(append(make([]geom.Point, 0, len(h.verts)+1), h.verts...), p))
}

// Rebuild recomputes the hull from an explicit member list (after removals).
func (h *Incremental) Rebuild(points []geom.Point) {
	h.verts = Compute(points)
}

// Contains reports whether p lies inside or on the hull.
func (h *Incremental) Contains(p geom.Point) bool { return Contains(h.verts, p) }

// Farthest returns the hull vertex farthest from p under metric m.
func (h *Incremental) Farthest(m geom.Metric, p geom.Point) (geom.Point, float64) {
	return Farthest(m, h.verts, p)
}

// AllWithin reports whether every hull vertex satisfies ξ(δ,ε) with p —
// equivalent to Farthest(m, p) ≤ eps but sqrt-free: geom.Within compares
// squared distances under L2 and the scan exits on the first vertex outside
// ε, so the refinement on the SGB-All hot path never pays a square root.
func (h *Incremental) AllWithin(m geom.Metric, p geom.Point, eps float64) bool {
	for _, v := range h.verts {
		if !geom.Within(m, v, p, eps) {
			return false
		}
	}
	return true
}
