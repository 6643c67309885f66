package geom

import "math"

// This file is the columnar (structure-of-arrays) side of the package: a
// point set stored as one flat []float64 per dimension, plus batch distance
// kernels that evaluate the similarity predicate over a whole column slab in
// one call. The kernels are written as branch-light, bounds-check-hoisted
// loops over the coordinate columns so the compiler can keep them in
// registers and auto-vectorize them; all comparisons are performed on
// comparable distances (squared under L2 — no square root on the hot path).
//
// Verdict compatibility: for every row i, WithinMask's mask[i] is exactly
// Within(m, row_i, q, eps). The kernels accumulate per-point terms in
// ascending dimension order — the same floating-point operation chain as the
// scalar predicate — so a grouper probing through the kernels decides exactly
// what one calling Within per point would, not merely approximately the same.

// Cols is a columnar point set: column d holds coordinate d of every point,
// so Cols is the transpose of a []Point. All columns always share one
// length. The zero Cols is not usable; construct with NewCols, MakeCols, or
// ColsFromPoints.
//
// Views produced by Slice share the underlying column storage with their
// parent; kernels only read Cols, so sharing is safe.
type Cols struct {
	dims [][]float64
}

// NewCols returns an empty, appendable column set of the given
// dimensionality.
func NewCols(dim int) Cols {
	return Cols{dims: make([][]float64, dim)}
}

// MakeCols returns a column set of n zero points backed by a single flat
// arena — one allocation for the coordinate data regardless of n and dim.
// Callers fill it with Col(d)[i] = v.
func MakeCols(dim, n int) Cols {
	arena := make([]float64, dim*n)
	dims := make([][]float64, dim)
	for d := range dims {
		dims[d] = arena[d*n : (d+1)*n : (d+1)*n]
	}
	return Cols{dims: dims}
}

// ColsFromPoints transposes a row-major point slice into a freshly allocated
// column set. All points must share one dimensionality.
func ColsFromPoints(pts []Point) Cols {
	if len(pts) == 0 {
		return NewCols(0)
	}
	c := MakeCols(len(pts[0]), len(pts))
	for i, p := range pts {
		if len(p) != len(c.dims) {
			panic("geom: ColsFromPoints dimension mismatch")
		}
		for d, v := range p {
			c.dims[d][i] = v
		}
	}
	return c
}

// Dim reports the dimensionality (number of columns).
func (c Cols) Dim() int { return len(c.dims) }

// Len reports the number of points (rows).
func (c Cols) Len() int {
	if len(c.dims) == 0 {
		return 0
	}
	return len(c.dims[0])
}

// Col returns column d — coordinate d of every point. The slice is live
// storage, not a copy.
func (c Cols) Col(d int) []float64 { return c.dims[d] }

// Slice returns the view of rows [lo, hi). The view shares storage with c.
func (c Cols) Slice(lo, hi int) Cols {
	out := Cols{dims: make([][]float64, len(c.dims))}
	for d, col := range c.dims {
		out.dims[d] = col[lo:hi:hi]
	}
	return out
}

// SliceInto is Slice without allocating a fresh column-header slice: it
// turns c into the view of src rows [lo, hi), reusing c's header storage.
// Kernel-probing hot loops call it on a preallocated scratch Cols to stay
// allocation-free.
func (c *Cols) SliceInto(src Cols, lo, hi int) {
	if cap(c.dims) < len(src.dims) {
		c.dims = make([][]float64, len(src.dims))
	}
	c.dims = c.dims[:len(src.dims)]
	for d, col := range src.dims {
		c.dims[d] = col[lo:hi:hi]
	}
}

// PointAt materializes row i into dst (grown if needed) and returns it.
func (c Cols) PointAt(i int, dst Point) Point {
	if cap(dst) < len(c.dims) {
		dst = make(Point, len(c.dims))
	}
	dst = dst[:len(c.dims)]
	for d, col := range c.dims {
		dst[d] = col[i]
	}
	return dst
}

// AppendPoint appends one point. The coordinates are copied; p is not
// retained.
func (c *Cols) AppendPoint(p Point) {
	if len(p) != len(c.dims) {
		panic("geom: AppendPoint dimension mismatch")
	}
	for d, v := range p {
		c.dims[d] = append(c.dims[d], v)
	}
}

// Reset truncates to zero points, keeping column capacity for reuse.
func (c *Cols) Reset() {
	for d := range c.dims {
		c.dims[d] = c.dims[d][:0]
	}
}

// Gather resets c and fills it with the src rows selected by idx, in idx
// order. It is the candidate-collection step of the kernel probes: callers
// gather an index list into a reusable scratch Cols, then run one kernel
// call over the slab. Gather does not allocate once the scratch columns have
// grown to the working-set size.
func (c *Cols) Gather(src Cols, idx []int) {
	if len(c.dims) != len(src.dims) {
		if c.dims == nil {
			c.dims = make([][]float64, len(src.dims))
		} else {
			panic("geom: Gather dimension mismatch")
		}
	}
	for d := range c.dims {
		dst := c.dims[d][:0]
		col := src.dims[d]
		for _, i := range idx {
			dst = append(dst, col[i])
		}
		c.dims[d] = dst
	}
}

// CmpEps maps the similarity threshold ε onto the comparable-distance scale
// used by DistsSquared: ε² under L2 (squared-distance compares), ε itself
// under L1/L∞. A negative ε can match nothing — squaring would flip its
// sign, so it maps to -Inf, which no comparable distance (non-negative or
// NaN) satisfies. A NaN ε propagates and also matches nothing.
func CmpEps(m Metric, eps float64) float64 {
	if m == L2 {
		if eps < 0 {
			return math.Inf(-1)
		}
		return eps * eps
	}
	return eps
}

// DistsSquared computes the comparable distance from q to every point of c
// into out (len(out) must equal c.Len()): the squared Euclidean distance
// under L2, the sum of absolute differences under L1, and the maximum
// absolute difference under L∞. Compare against CmpEps(m, eps) to evaluate
// the predicate; take sqrt under L2 to recover δ2.
func DistsSquared(m Metric, c Cols, q Point, out []float64) {
	if len(q) != len(c.dims) {
		panic("geom: DistsSquared dimension mismatch")
	}
	out = out[:c.Len()]
	switch m {
	case L2:
		distsSqL2(c, q, out)
	case LInf:
		distsMaxAbs(c, q, out)
	case L1:
		distsSumAbs(c, q, out)
	default:
		panic("geom: unknown metric")
	}
}

// WithinMask evaluates the similarity predicate between q and every point of
// c in one batch: mask[i] reports whether δ(c_i, q) ≤ eps, and the return
// value counts the rows within. dists and mask are caller-owned scratch with
// capacity ≥ c.Len(); the call does not allocate.
func WithinMask(m Metric, c Cols, q Point, eps float64, dists []float64, mask []bool) int {
	n := c.Len()
	dists = dists[:n]
	mask = mask[:n]
	DistsSquared(m, c, q, dists)
	ce := CmpEps(m, eps)
	cnt := 0
	for i, d := range dists {
		in := d <= ce
		mask[i] = in
		if in {
			cnt++
		}
	}
	return cnt
}

// distsSqL2 fills out[i] = Σ_d (c[d][i]-q[d])², with dimension-specialized
// inner loops for the common 1-/2-/3-D cases and a column-sweep fallback.
// Terms accumulate in ascending dimension order, matching Within's chain.
func distsSqL2(c Cols, q Point, out []float64) {
	n := len(out)
	switch len(q) {
	case 1:
		xs := c.dims[0][:n]
		qx := q[0]
		for i, x := range xs {
			d := x - qx
			out[i] = d * d
		}
	case 2:
		xs, ys := c.dims[0][:n], c.dims[1][:n]
		qx, qy := q[0], q[1]
		for i := range xs {
			dx := xs[i] - qx
			dy := ys[i] - qy
			out[i] = dx*dx + dy*dy
		}
	case 3:
		xs, ys, zs := c.dims[0][:n], c.dims[1][:n], c.dims[2][:n]
		qx, qy, qz := q[0], q[1], q[2]
		for i := range xs {
			dx := xs[i] - qx
			dy := ys[i] - qy
			dz := zs[i] - qz
			out[i] = dx*dx + dy*dy + dz*dz
		}
	default:
		xs := c.dims[0][:n]
		q0 := q[0]
		for i, x := range xs {
			d := x - q0
			out[i] = d * d
		}
		for d := 1; d < len(q); d++ {
			col := c.dims[d][:n]
			qd := q[d]
			for i, v := range col {
				t := v - qd
				out[i] += t * t
			}
		}
	}
}

// distsSumAbs fills out[i] = Σ_d |c[d][i]-q[d]| in ascending dimension
// order.
func distsSumAbs(c Cols, q Point, out []float64) {
	n := len(out)
	switch len(q) {
	case 1:
		xs := c.dims[0][:n]
		qx := q[0]
		for i, x := range xs {
			out[i] = math.Abs(x - qx)
		}
	case 2:
		xs, ys := c.dims[0][:n], c.dims[1][:n]
		qx, qy := q[0], q[1]
		for i := range xs {
			out[i] = math.Abs(xs[i]-qx) + math.Abs(ys[i]-qy)
		}
	case 3:
		xs, ys, zs := c.dims[0][:n], c.dims[1][:n], c.dims[2][:n]
		qx, qy, qz := q[0], q[1], q[2]
		for i := range xs {
			out[i] = math.Abs(xs[i]-qx) + math.Abs(ys[i]-qy) + math.Abs(zs[i]-qz)
		}
	default:
		xs := c.dims[0][:n]
		q0 := q[0]
		for i, x := range xs {
			out[i] = math.Abs(x - q0)
		}
		for d := 1; d < len(q); d++ {
			col := c.dims[d][:n]
			qd := q[d]
			for i, v := range col {
				out[i] += math.Abs(v - qd)
			}
		}
	}
}

// distsMaxAbs fills out[i] = max_d |c[d][i]-q[d]|. The running maximum
// starts at 0 and only moves on a strict >, exactly like Dist's scalar
// sweep, so a NaN coordinate difference is skipped identically on both
// paths.
func distsMaxAbs(c Cols, q Point, out []float64) {
	n := len(out)
	switch len(q) {
	case 1:
		xs := c.dims[0][:n]
		qx := q[0]
		for i, x := range xs {
			m := 0.0
			if d := math.Abs(x - qx); d > m {
				m = d
			}
			out[i] = m
		}
	case 2:
		xs, ys := c.dims[0][:n], c.dims[1][:n]
		qx, qy := q[0], q[1]
		for i := range xs {
			m := 0.0
			if d := math.Abs(xs[i] - qx); d > m {
				m = d
			}
			if d := math.Abs(ys[i] - qy); d > m {
				m = d
			}
			out[i] = m
		}
	default:
		for i := range out {
			out[i] = 0
		}
		for d := 0; d < len(q); d++ {
			col := c.dims[d][:n]
			qd := q[d]
			for i, v := range col {
				if t := math.Abs(v - qd); t > out[i] {
					out[i] = t
				}
			}
		}
	}
}
