// Package grid is a uniform ε-grid over points: the on-the-fly point index of
// the SGB-Any operator (internal/core), standing in for the paper's R-tree
// Points_IX (Procedure 8).
//
// Cells are sized so that, geometrically, all points of one cell are mutually
// within ε: side ε/√d under L2, ε under L∞, ε/d under L1. SGB-Any only needs
// to know which connected components touch a new point, so a cell whose
// members form a clique is one union-find node: the caller joins a point to
// its own cell for free, skips neighbour cells already in its component, and
// looks for a single witnessing pair in the others.
//
// Two properties are certified in floating point rather than assumed:
//
//   - Clique. floor(v/side) is computed in floats, so "same cell ⇒ within ε"
//     could be off by an ulp. Each cell keeps the bounding box of its members
//     and counts as a clique only while geom.Within holds between the box's
//     two extreme corners. Float subtraction, squaring, Abs and in-order
//     summation are monotone, so the corner distance bounds every member
//     pair under the very predicate the operator evaluates. A cell that ever
//     fails the certificate stays a plain bag of points.
//   - Completeness. Block enumerates the cells whose per-axis index lies in
//     [cell(p-ε′), cell(p+ε′)] with ε′ = ε(1+2⁻²⁰). The cell function is
//     monotone non-decreasing, and every q the predicate accepts has
//     p-ε′ ≤ q ≤ p+ε′ on every axis (δ∞ ≤ δ for all three metrics; the pad
//     dwarfs the rounding of the distance chain), so q's cell is in the
//     block.
package grid

import (
	"math"

	"sgb/internal/geom"
)

// maxCoord clamps cell coordinates so that float→int conversion and index
// differences stay inside int64. Clamping is monotone, so completeness holds;
// points beyond it share the extreme cell, which then fails its certificate.
const maxCoord = 1 << 61

// Cell is one non-empty grid cell: a columnar slab of its members.
type Cell struct {
	// IDs are the member point ids in insertion order; IDs[0] represents the
	// cell while it is a clique.
	IDs []int
	// Pts holds the members' coordinates, row i belonging to IDs[i].
	Pts geom.Cols

	lo, hi geom.Point // bounding box of the members
	clique bool
}

// Clique reports whether every pair of members is certified within ε.
func (c *Cell) Clique() bool { return c.clique }

// Index is an insert-only uniform grid of cells. The zero value is not
// usable; construct with New.
type Index struct {
	metric geom.Metric
	eps    float64
	pad    float64 // ε′: half-width of the probe window
	side   float64
	dim    int

	cells  []Cell  // creation order
	coords []int64 // cell i's coordinates at [i*dim, (i+1)*dim)
	// table is an open-addressing hash of the cells by coordinates: slot
	// values are cell index + 1, 0 is empty; len is a power of two kept at
	// least twice len(cells).
	table []int32

	lo, hi, cur []int64 // per-axis scratch
}

// side returns the cell side for which a cell's diameter is ε.
func side(m geom.Metric, eps float64, dim int) float64 {
	switch m {
	case geom.L2:
		return eps / math.Sqrt(float64(dim))
	case geom.L1:
		return eps / float64(dim)
	default:
		return eps
	}
}

// BlockCells is the nominal number of cells Block inspects around a point:
// (⌈2ε/side⌉+1)^dim. Callers compare it against a cap to decide whether the
// grid is the right index for a (metric, dimensionality) pair.
func BlockCells(m geom.Metric, dim int) float64 {
	perAxis := math.Ceil(2/side(m, 1, dim)) + 1
	return math.Pow(perAxis, float64(dim))
}

// Reach is ε′ = ε(1+2⁻²⁰), the half-width of an axis-aligned window around p
// that holds every q with δ(p,q) ≤ eps as geom.Within evaluates it: the pad is
// far wider than the rounding of p±ε and of the distance chain, which can put
// an accepted q an ulp outside [p-ε, p+ε].
func Reach(eps float64) float64 { return eps * (1 + 1.0/(1<<20)) }

// New returns an empty grid for the predicate δ(p,q) ≤ eps over dim-dimensional
// points. eps must be positive and finite.
func New(m geom.Metric, eps float64, dim int) *Index {
	return &Index{
		metric: m,
		eps:    eps,
		pad:    Reach(eps),
		side:   side(m, eps, dim),
		dim:    dim,
		table:  make([]int32, 16),
		lo:     make([]int64, dim),
		hi:     make([]int64, dim),
		cur:    make([]int64, dim),
	}
}

// coord is the cell index of coordinate v. math.Floor keeps negative values
// and exact multiples of the side in their canonical cell.
func (ix *Index) coord(v float64) int64 {
	f := math.Floor(v / ix.side)
	if f <= -maxCoord {
		return -maxCoord
	}
	if !(f < maxCoord) { // also NaN, from a side that underflowed to zero
		return maxCoord
	}
	return int64(f)
}

func hash(cs []int64) uint64 {
	var h uint64
	for _, c := range cs {
		h = (h ^ uint64(c)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// find returns the index of the cell at coordinates cs, or -1 together with
// the empty table slot where that cell belongs.
func (ix *Index) find(cs []int64) (cell, slot int) {
	mask := len(ix.table) - 1
	for slot = int(hash(cs)) & mask; ; slot = (slot + 1) & mask {
		i := int(ix.table[slot]) - 1
		if i < 0 {
			return -1, slot
		}
		at := ix.coords[i*ix.dim:]
		same := true
		for d, c := range cs {
			if at[d] != c {
				same = false
				break
			}
		}
		if same {
			return i, slot
		}
	}
}

// Len reports the number of cells.
func (ix *Index) Len() int { return len(ix.cells) }

// Cell returns cell i. The pointer is valid until the next Insert.
func (ix *Index) Cell(i int) *Cell { return &ix.cells[i] }

// Insert adds point p with the given id to its cell, creating the cell if
// needed, and returns the cell's index. If the cell is a clique afterwards, p
// is certified within ε of every earlier member.
func (ix *Index) Insert(p geom.Point, id int) int {
	cs := ix.cur
	for d, v := range p {
		cs[d] = ix.coord(v)
	}
	i, slot := ix.find(cs)
	if i < 0 {
		i = len(ix.cells)
		ix.table[slot] = int32(i + 1)
		ix.coords = append(ix.coords, cs...)
		box := make([]float64, 2*ix.dim)
		copy(box, p)
		copy(box[ix.dim:], p)
		ix.cells = append(ix.cells, Cell{
			Pts:    geom.NewCols(ix.dim),
			lo:     box[:ix.dim:ix.dim],
			hi:     box[ix.dim:],
			clique: true,
		})
		if 2*len(ix.cells) > len(ix.table) {
			ix.rehash()
		}
	}
	c := &ix.cells[i]
	for d, v := range p {
		if v < c.lo[d] {
			c.lo[d] = v
		}
		if v > c.hi[d] {
			c.hi[d] = v
		}
	}
	c.clique = c.clique && geom.Within(ix.metric, c.lo, c.hi, ix.eps)
	c.IDs = append(c.IDs, id)
	c.Pts.AppendPoint(p)
	return i
}

// rehash doubles the table and re-enters every cell.
func (ix *Index) rehash() {
	ix.table = make([]int32, 2*len(ix.table))
	for i := range ix.cells {
		_, slot := ix.find(ix.coords[i*ix.dim : (i+1)*ix.dim])
		ix.table[slot] = int32(i + 1)
	}
}

// Block appends to out the indexes of the cells that can hold a point within
// ε of p, and returns the extended slice. The order is a function of p and of
// the points inserted so far only: lexicographic by cell coordinates, or cell
// creation order when the block holds more cells than the grid does.
func (ix *Index) Block(p geom.Point, out []int) []int {
	size := 1.0
	for d, v := range p {
		ix.lo[d] = ix.coord(v - ix.pad)
		ix.hi[d] = ix.coord(v + ix.pad)
		size *= float64(ix.hi[d]-ix.lo[d]) + 1
	}
	if size > float64(len(ix.cells)) {
		for i := range ix.cells {
			at := ix.coords[i*ix.dim:]
			in := true
			for d := 0; d < ix.dim; d++ {
				if at[d] < ix.lo[d] || at[d] > ix.hi[d] {
					in = false
					break
				}
			}
			if in {
				out = append(out, i)
			}
		}
		return out
	}
	cur := ix.cur
	copy(cur, ix.lo)
	for {
		if i, _ := ix.find(cur); i >= 0 {
			out = append(out, i)
		}
		d := ix.dim - 1
		for ; d >= 0; d-- {
			if cur[d] < ix.hi[d] {
				cur[d]++
				break
			}
			cur[d] = ix.lo[d]
		}
		if d < 0 {
			return out
		}
	}
}
