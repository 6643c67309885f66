package geom

import (
	"fmt"
	"math"
)

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// NewRect returns a rectangle with the given corners. It panics if the
// corners disagree on dimensionality or are inverted on some axis.
func NewRect(min, max Point) Rect {
	if len(min) != len(max) {
		panic("geom: corner dimension mismatch")
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("geom: inverted rectangle on axis %d", i))
		}
	}
	return Rect{Min: min, Max: max}
}

// Intersect returns the intersection of r and o. ok is false when the
// rectangles are disjoint, in which case the returned rectangle is undefined.
// Rectangles are closed under intersection — the property the paper relies on
// for the correctness of the ε-All bounding rectangle under L∞.
func (r Rect) Intersect(o Rect) (out Rect, ok bool) {
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Max(r.Min[i], o.Min[i])
		max[i] = math.Min(r.Max[i], o.Max[i])
		if min[i] > max[i] {
			return Rect{}, false
		}
	}
	return Rect{Min: min, Max: max}, true
}

// Side returns the extent of r along the given axis.
func (r Rect) Side(axis int) float64 { return r.Max[axis] - r.Min[axis] }
