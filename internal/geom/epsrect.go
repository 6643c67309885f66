package geom

// EpsRect maintains the ε-All bounding rectangle Rε-All of a group
// (Definition 5 in the paper) through the minimum bounding rectangle of the
// group's members.
//
// Rε-All is the intersection of the 2ε-boxes centred at the members, which
// is [mbr.Max-ε, mbr.Min+ε] on every axis. Rather than storing it,
// ContainsPoint decides p ∈ Rε-All as p_i - mbr.Min_i ≤ ε and
// mbr.Max_i - p_i ≤ ε: the rounded subtraction geom.Within evaluates against
// the two extreme members of the axis. Float subtraction is monotone, so of
// all members those two give the largest rounded |p_i - q_i|. Hence, per §6.3:
//
//   - Under L∞ the test is Within against every member, bit for bit, so the
//     rectangle test alone decides group membership in O(d) time.
//   - Under L2 it never rejects a point Within accepts against every
//     member. Within(L2) compares the rounded sum of squares with fl(ε²);
//     each fl(d²) is at most that sum, and x ↦ fl(x²) is strictly increasing
//     over floats whose squares are normal (two adjacent floats' squares lie
//     more than 1.4 ulps apart), so |p_i - q_i| ≤ ε. (When ε² under- or
//     overflows, Within itself stops meaning δ ≤ ε.) The filter is refined
//     by the convex hull test or exact member checks.
//
// The rectangle only shrinks as points join; it never shrinks below an
// ε-sided box because the members of a clique span at most ε per axis.
// Removing a member (the ELIMINATE and FORM-NEW-GROUP overlap semantics) can
// grow it, so Rebuild recomputes it from the surviving members.
//
// An EpsRect is a value over storage its caller owns: the MBR's corners are
// the two halves of the buffer passed to MakeEpsRect, so a grouper can carve
// every group's rectangle from one slab without an allocation per group.
type EpsRect struct {
	eps float64
	mbr Rect // minimum bounding rectangle of the members; valid iff n > 0
	n   int
}

// MakeEpsRect returns an empty ε-All rectangle whose MBR lives in buf, which
// holds 2d floats for d-dimensional members and must not be shared. The
// first Add seeds it.
func MakeEpsRect(buf []float64, eps float64) EpsRect {
	d := len(buf) / 2
	return EpsRect{eps: eps, mbr: Rect{Min: buf[:d:d], Max: buf[d : 2*d : 2*d]}}
}

// Len reports the number of members the rectangle currently summarizes.
func (e *EpsRect) Len() int { return e.n }

// Eps returns the similarity threshold the rectangle was built with.
func (e *EpsRect) Eps() float64 { return e.eps }

// MBR returns the minimum bounding rectangle of the members. It must not be
// mutated and is only meaningful while Len() > 0.
func (e *EpsRect) MBR() Rect { return e.mbr }

// ContainsPoint reports whether p passes the ε-All rectangle test
// (PointInRectangleTest in Procedure 4).
func (e *EpsRect) ContainsPoint(p Point) bool {
	if e.n == 0 {
		return false
	}
	for i, v := range p {
		if v-e.mbr.Min[i] > e.eps || e.mbr.Max[i]-v > e.eps {
			return false
		}
	}
	return true
}

// Reaches reports whether p passes the overlap rectangle test: whether p is
// within ε of the member MBR on every axis, by the same rounded subtraction
// against the nearer extreme. It never rejects a point that Within accepts
// against some member, by the argument of ContainsPoint for that one member.
func (e *EpsRect) Reaches(p Point) bool {
	if e.n == 0 {
		return false
	}
	for i, v := range p {
		if v-e.mbr.Max[i] > e.eps || e.mbr.Min[i]-v > e.eps {
			return false
		}
	}
	return true
}

// Add shrinks the rectangle to account for a new member p. The caller is
// responsible for having verified membership first; Add panics if p leaves
// Rε-All empty, which no legitimate member can.
func (e *EpsRect) Add(p Point) {
	if e.n == 0 {
		copy(e.mbr.Min, p)
		copy(e.mbr.Max, p)
		e.n = 1
		return
	}
	for i, v := range p {
		if v < e.mbr.Min[i] {
			e.mbr.Min[i] = v
		}
		if v > e.mbr.Max[i] {
			e.mbr.Max[i] = v
		}
		if e.mbr.Max[i]-e.eps > e.mbr.Min[i]+e.eps {
			panic("geom: EpsRect.Add called with a point outside the ε-All rectangle")
		}
	}
	e.n++
}

// Rebuild recomputes the rectangle from an explicit member list. It is used
// after member removals, which can legitimately grow the ε-All rectangle.
func (e *EpsRect) Rebuild(members []Point) {
	e.n = 0
	for _, p := range members {
		e.Add(p)
	}
}
