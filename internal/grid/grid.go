// Package grid holds the uniform ε-grids the operators of internal/core use as
// their on-the-fly indexes: Index, over points, stands in for SGB-Any's R-tree
// Points_IX (Procedure 8), and Regions, over SGB-All group regions, for the
// R-tree Groups_IX of Index Bounds-Checking (Procedure 5). Both are built on
// one open-addressing table of cells keyed by integer cell coordinates.
//
// Index cells are sized so that, geometrically, all points of one cell are
// mutually within ε: side ε/√d under L2, ε under L∞, ε/d under L1. SGB-Any
// only needs to know which connected components touch a new point, so a cell
// whose members form a clique is one union-find node: the caller joins a point
// to its own cell for free, skips neighbour cells already in its component,
// and looks for a single witnessing pair in the others.
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
	"slices"

	"sgb/internal/geom"
)

// maxCoord clamps cell coordinates so that float→int conversion and index
// differences stay inside int64. Clamping is monotone, so completeness holds;
// points beyond it share the extreme cell, which then fails its certificate.
const maxCoord = 1 << 61

// table is the open-addressing hash of cells by integer coordinates that both
// grids are built on, with the per-axis scratch their probes share.
type table struct {
	pad  float64 // ε′: half-width of the probe window
	side float64
	dim  int
	n    int // cells, numbered in creation order

	coords []int64 // cell i's coordinates at [i*dim, (i+1)*dim)
	// slots values are cell index + 1, 0 is empty; len is a power of two kept
	// at least twice n.
	slots []int32

	lo, hi, cur []int64 // per-axis scratch
}

func newTable(side, eps float64, dim int) table {
	return table{
		pad:   Reach(eps),
		side:  side,
		dim:   dim,
		slots: make([]int32, 16),
		lo:    make([]int64, dim),
		hi:    make([]int64, dim),
		cur:   make([]int64, dim),
	}
}

// coord is the cell index of coordinate v. math.Floor keeps negative values
// and exact multiples of the side in their canonical cell.
func (t *table) coord(v float64) int64 {
	f := math.Floor(v / t.side)
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
// the empty slot where that cell belongs.
func (t *table) find(cs []int64) (cell, slot int) {
	mask := len(t.slots) - 1
	for slot = int(hash(cs)) & mask; ; slot = (slot + 1) & mask {
		i := int(t.slots[slot]) - 1
		if i < 0 {
			return -1, slot
		}
		if slices.Equal(t.coords[i*t.dim:(i+1)*t.dim], cs) {
			return i, slot
		}
	}
}

// add creates the cell at coordinates cs in the empty slot find returned for
// them, and returns its index.
func (t *table) add(cs []int64, slot int) int {
	i := t.n
	t.n++
	t.slots[slot] = int32(i + 1)
	t.coords = append(t.coords, cs...)
	if 2*t.n > len(t.slots) {
		// Rehash: the cells are distinct, so each takes the first empty slot
		// of its probe sequence, as find would return it, without comparing.
		t.slots = make([]int32, 2*len(t.slots))
		mask := len(t.slots) - 1
		for j := 0; j < t.n; j++ {
			s := int(hash(t.coords[j*t.dim:(j+1)*t.dim])) & mask
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = int32(j + 1)
		}
	}
	return i
}

// setCur sets cur to the coordinates of p's cell.
func (t *table) setCur(p geom.Point) {
	for d, v := range p {
		t.cur[d] = t.coord(v)
	}
}

// setWindow sets [lo, hi] to the cells of p's ε′-block.
func (t *table) setWindow(p geom.Point) {
	for d, v := range p {
		t.lo[d] = t.coord(v - t.pad)
		t.hi[d] = t.coord(v + t.pad)
	}
}

// next advances cur to the next coordinates of the box [lo, hi] in
// lexicographic order, and reports false, with cur back at lo, after the last.
func (t *table) next() bool {
	for d := t.dim - 1; d >= 0; d-- {
		if t.cur[d] < t.hi[d] {
			t.cur[d]++
			return true
		}
		t.cur[d] = t.lo[d]
	}
	return false
}

// existing appends to out the indexes of the cells in the box [lo, hi], and
// returns the extended slice: lexicographic by cell coordinates, or in cell
// creation order when the box holds more cells than the table does.
func (t *table) existing(out []int) []int {
	size := 1.0
	for d := range t.lo {
		size *= float64(t.hi[d]-t.lo[d]) + 1
	}
	if size > float64(t.n) {
		for i := 0; i < t.n; i++ {
			at := t.coords[i*t.dim:]
			in := true
			for d := 0; d < t.dim; d++ {
				if at[d] < t.lo[d] || at[d] > t.hi[d] {
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
	copy(t.cur, t.lo)
	for {
		if i, _ := t.find(t.cur); i >= 0 {
			out = append(out, i)
		}
		if !t.next() {
			return out
		}
	}
}

// Cell is one non-empty grid cell: its members' ids and bounding box.
type Cell struct {
	// IDs are the member point ids in insertion order; IDs[0] represents the
	// cell while it is a clique.
	IDs []int

	lo, hi geom.Point // bounding box of the members
	clique bool
}

// Clique reports whether every pair of members is certified within ε.
func (c *Cell) Clique() bool { return c.clique }

// Index is an insert-only uniform grid of points. The zero value is not
// usable; construct with New.
type Index struct {
	table
	metric geom.Metric
	eps    float64
	cells  []Cell // creation order
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
// grid is the right index for a (metric, dimensionality) pair. Regions, whose
// cells have side ε, probe BlockCells(geom.LInf, dim) = 3^dim.
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
	return &Index{table: newTable(side(m, eps, dim), eps, dim), metric: m, eps: eps}
}

// Len reports the number of cells.
func (ix *Index) Len() int { return len(ix.cells) }

// Cell returns cell i. The pointer is valid until the next Insert.
func (ix *Index) Cell(i int) *Cell { return &ix.cells[i] }

// Insert adds point p with the given id to its cell, creating the cell if
// needed, and returns the cell's index. If the cell is a clique afterwards, p
// is certified within ε of every earlier member.
func (ix *Index) Insert(p geom.Point, id int) int {
	ix.setCur(p)
	i, slot := ix.find(ix.cur)
	if i < 0 {
		i = ix.add(ix.cur, slot)
		box := make([]float64, 2*ix.dim)
		copy(box, p)
		copy(box[ix.dim:], p)
		ix.cells = append(ix.cells, Cell{
			lo:     box[:ix.dim:ix.dim],
			hi:     box[ix.dim:],
			clique: true,
		})
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
	return i
}

// Block appends to out the indexes of the cells that can hold a point within
// ε of p, and returns the extended slice. The order is a function of p and of
// the points inserted so far only: lexicographic by cell coordinates, or cell
// creation order when the block holds more cells than the grid does.
func (ix *Index) Block(p geom.Point, out []int) []int {
	ix.setWindow(p)
	return ix.existing(out)
}

// Regions indexes the candidate regions of SGB-All groups on a grid of side ε,
// whatever the metric: cell c lists, in ascending order, the id of every group
// registered in it. Ids are small non-negative integers (Block keeps a mark
// per id up to the largest, in a slice that grows geometrically). A group
// whose members span the rectangle mbr is registered in every cell that its
// candidate region [mbr.Max-ε′, mbr.Min+ε′] overlaps — at most three cells
// per axis, four when the region ends within ε′-ε of a cell wall. The zero
// value is not usable; construct with NewRegions.
//
// Two guarantees, for members that pass geom.Within pairwise:
//
//   - Own(p) lists every group whose members are each within ε of p as
//     geom.EpsRect.ContainsPoint decides it: p_i - mbr.Min_i ≤ ε rounded
//     implies p_i ≤ mbr.Min_i + ε′ exactly, so p's cell is in the region's
//     range (and symmetrically below).
//   - Block(p) lists every group with a member q within ε of p: the members
//     span at most ε′ per axis, so q lies in the region, and q's cell is in
//     p's ε′-block.
//
// A region only shrinks as members join, so a registration stays a superset;
// a region that grows again after members leave is registered anew.
type Regions struct {
	table
	ids   [][]int  // cell i's group ids, ascending
	spare []int    // unused capacity new cells' lists are carved from
	block []int    // scratch: the cells of one Block probe
	mark  []uint32 // per id, the last Block probe that listed it
	probe uint32
}

// listCap is the capacity a new cell's id list is carved with: most cells
// hold a handful of groups. Lists are carved from shared chunks, and a full
// list moves to a carved one of twice its capacity, so registering a group
// allocates nothing of its own.
const listCap = 4

// NewRegions returns an empty region grid for the predicate δ(p,q) ≤ eps over
// dim-dimensional points. eps must be positive and finite.
func NewRegions(eps float64, dim int) *Regions {
	return &Regions{table: newTable(eps, eps, dim)}
}

// Register records id in every cell that the candidate region of a group
// spanning mbr overlaps and that does not list it yet, keeping each list
// ascending.
func (r *Regions) Register(mbr geom.Rect, id int) {
	for d := range r.lo {
		r.lo[d] = r.coord(mbr.Max[d] - r.pad)
		r.hi[d] = r.coord(mbr.Min[d] + r.pad)
		if r.lo[d] > r.hi[d] {
			return
		}
	}
	for len(r.mark) <= id {
		r.mark = append(r.mark, 0)
	}
	copy(r.cur, r.lo)
	for {
		i, slot := r.find(r.cur)
		if i < 0 {
			i = r.add(r.cur, slot)
			r.ids = append(r.ids, r.carve(listCap))
		}
		ids := r.ids[i]
		if at, found := slices.BinarySearch(ids, id); !found {
			if len(ids) == cap(ids) {
				ids = append(r.carve(2*cap(ids)), ids...)
			}
			r.ids[i] = slices.Insert(ids, at, id)
		}
		if !r.next() {
			return
		}
	}
}

// carve returns an empty id list of capacity n from the shared chunks.
func (r *Regions) carve(n int) []int {
	if len(r.spare) < n {
		r.spare = make([]int, max(256*listCap, n))
	}
	list := r.spare[:0:n]
	r.spare = r.spare[n:]
	return list
}

// Own returns the ids registered in p's cell, ascending. The slice is valid
// until the next Register.
func (r *Regions) Own(p geom.Point) []int {
	r.setCur(p)
	if i, _ := r.find(r.cur); i >= 0 {
		return r.ids[i]
	}
	return nil
}

// Block appends to out the ids registered in any cell of p's ε′-block, each
// once, and returns the extended slice. The order is that of the cells (as
// Index.Block orders them), then ascending within a cell.
func (r *Regions) Block(p geom.Point, out []int) []int {
	r.setWindow(p)
	r.block = r.existing(r.block[:0])
	if r.probe++; r.probe == 0 { // wrapped: forget every old mark
		clear(r.mark)
		r.probe = 1
	}
	for _, c := range r.block {
		for _, id := range r.ids[c] {
			if r.mark[id] != r.probe {
				r.mark[id] = r.probe
				out = append(out, id)
			}
		}
	}
	return out
}
