package geom

import "math"

// This file is the columnar (structure-of-arrays) side of the package: a
// point set stored as one flat []float64 per dimension, plus a batch distance
// kernel that evaluates the similarity predicate over a whole column set in
// one call. The groupers verify one candidate at a time with Within; the
// kernel serves the benchmark's per-layer probe, which times it against that
// scalar loop. It is written as branch-light, bounds-check-hoisted loops over
// the coordinate columns so the compiler can keep them in registers and
// auto-vectorize them; all comparisons are performed on comparable distances
// (squared under L2 — no square root on the hot path).
//
// Verdict compatibility: for every row i, WithinMask's mask[i] is exactly
// Within(m, row_i, q, eps). The kernel accumulates per-point terms in
// ascending dimension order — the same floating-point operation chain as the
// scalar predicate — so it decides exactly what a Within call per point
// would, not merely approximately the same.

// Cols is a columnar point set: column d holds coordinate d of every point,
// so Cols is the transpose of a []Point. All columns always share one
// length. Construct with ColsFromPoints.
type Cols struct {
	dims [][]float64
}

// ColsFromPoints transposes a row-major point slice into a freshly allocated
// column set, backed by one flat arena. All points must share one
// dimensionality.
func ColsFromPoints(pts []Point) Cols {
	if len(pts) == 0 {
		return Cols{}
	}
	dim, n := len(pts[0]), len(pts)
	arena := make([]float64, dim*n)
	c := Cols{dims: make([][]float64, dim)}
	for d := range c.dims {
		c.dims[d] = arena[d*n : (d+1)*n : (d+1)*n]
	}
	for i, p := range pts {
		if len(p) != dim {
			panic("geom: ColsFromPoints dimension mismatch")
		}
		for d, v := range p {
			c.dims[d][i] = v
		}
	}
	return c
}

// Len reports the number of points (rows).
func (c Cols) Len() int {
	if len(c.dims) == 0 {
		return 0
	}
	return len(c.dims[0])
}

// cmpEps maps the similarity threshold ε onto the comparable-distance scale
// used by distsSquared: ε² under L2 (squared-distance compares), ε itself
// under L1/L∞. A negative ε can match nothing — squaring would flip its
// sign, so it maps to -Inf, which no comparable distance (non-negative or
// NaN) satisfies. A NaN ε propagates and also matches nothing.
func cmpEps(m Metric, eps float64) float64 {
	if m == L2 {
		if eps < 0 {
			return math.Inf(-1)
		}
		return eps * eps
	}
	return eps
}

// distsSquared computes the comparable distance from q to every point of c
// into out (len(out) must equal c.Len()): the squared Euclidean distance
// under L2, the sum of absolute differences under L1, and the maximum
// absolute difference under L∞. Compare against cmpEps(m, eps) to evaluate
// the predicate; take sqrt under L2 to recover δ2.
func distsSquared(m Metric, c Cols, q Point, out []float64) {
	if len(q) != len(c.dims) {
		panic("geom: distsSquared dimension mismatch")
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
	distsSquared(m, c, q, dists)
	ce := cmpEps(m, eps)
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
