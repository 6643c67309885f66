package rtree

import "sgb/internal/geom"

// CheckInvariants exposes the structural validator to the tests.
func (t *Tree) CheckInvariants() error { return t.checkInvariants() }

// SearchSlice returns the references of all entries intersecting window.
func (t *Tree) SearchSlice(window geom.Rect) []int64 {
	var out []int64
	t.Search(window, func(ref int64) bool {
		out = append(out, ref)
		return true
	})
	return out
}
