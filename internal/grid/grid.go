// Package grid holds the uniform ε-grids the operators of internal/core use as
// their on-the-fly indexes: Index, over points, stands in for SGB-Any's R-tree
// Points_IX (Procedure 8), and Regions, over SGB-All group regions, for the
// R-tree Groups_IX of Index Bounds-Checking (Procedure 5). Both are built on
// one open-addressing table of cells keyed by integer cell coordinates.
//
// Index cells are sized so that, geometrically, all points of one cell are
// mutually within ε: side ε/√d under L2, ε under L∞. SGB-Any only needs to
// know which connected components touch a new point, so a cell whose members
// form a clique is one union-find node: the caller joins a point to its own
// cell for free, skips neighbour cells already in its component, and looks
// for a single witnessing pair in the others.
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
//   - Completeness. A point within ε of p lies in p's ε′-block: the cells
//     whose per-axis index lies in [cell(p-ε′), cell(p+ε′)] with
//     ε′ = ε(1+2⁻²⁰). The cell function is monotone non-decreasing, and
//     every q the predicate accepts has p-ε′ ≤ q ≤ p+ε′ on every axis
//     (δ∞ ≤ δ for both metrics; the pad dwarfs the rounding of the
//     distance chain), so q's cell is in the block.
//
// Once the grid holds (2r+1)^dim cells, r = ⌈ε/side⌉, an Index cell lists
// every cell that ever exists within r of it on every axis, and Block filters
// p's home cell's list by p's block: a superset of it whenever the block fits
// inside home ± r. Otherwise (points within about 2⁻²⁰·side of a wall, cell
// indexes that round or clamp) Block enumerates: completeness never needs r.
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
		t.rehash(2 * len(t.slots))
	}
	return i
}

// rehash moves the cells to a slot array of the given power-of-two length.
// The cells are distinct, so each takes the first empty slot of its probe
// sequence, as find would return it, without comparing.
func (t *table) rehash(size int) {
	t.slots = make([]int32, size)
	mask := size - 1
	for j := 0; j < t.n; j++ {
		s := int(hash(t.coords[j*t.dim:(j+1)*t.dim])) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(j + 1)
	}
}

// reserve sizes the table for n cells, so that add neither rehashes nor
// reallocates before it holds them. Which slot a cell takes never shows:
// find and existing answer in cell indexes and creation order.
func (t *table) reserve(n int) {
	t.coords = reserve(t.coords, n*t.dim)
	size := len(t.slots)
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.rehash(size)
	}
}

// reserve returns s with room for n elements in all. It allocates exactly
// that, unlike slices.Grow, which under the race detector also allocates
// the zeroed tail it appends.
func reserve[T any](s []T, n int) []T {
	if n > cap(s) {
		return append(make([]T, 0, n), s...)
	}
	return s
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

// existing appends the cells in the box [lo, hi] to out: lexicographic by
// coordinates, or in creation order when scanning is cheaper, one lookup
// costing as much as testing lookup cells (probes, whose order matters, pass 1).
func (t *table) existing(out []int, lookup float64) []int {
	size := lookup
	for d := range t.lo {
		size *= float64(t.hi[d]-t.lo[d]) + 1
	}
	if size > float64(t.n) {
		for i := 0; i < t.n; i++ {
			if t.inBox(i) {
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

// at returns cell i's coordinates.
func (t *table) at(i int) []int64 { return t.coords[i*t.dim : (i+1)*t.dim] }

// inBox reports whether cell i lies in the box [lo, hi].
func (t *table) inBox(i int) bool {
	for d, c := range t.at(i) {
		if c < t.lo[d] || c > t.hi[d] {
			return false
		}
	}
	return true
}

// listCap is a new list's least capacity: most hold a handful of entries.
// Lists are carved from shared chunks, and a full list moves to a carved one
// of twice its capacity, so growing a list allocates nothing of its own.
const listCap = 4

// carve returns an empty list of capacity n from the shared chunk *spare.
func carve[T any](spare *[]T, n int) []T {
	if len(*spare) < n {
		*spare = make([]T, max(256*listCap, n))
	}
	list := (*spare)[:0:n]
	*spare = (*spare)[n:]
	return list
}

// Cell is one non-empty grid cell of an Index. Its members are a chain of
// point ids in insertion order: First, then Index.Next of each.
type Cell struct {
	first, last int32 // point ids
	sorted      int32 // the sorted prefix of the cell's list
	clique      bool
}

// Clique reports whether every pair of members is certified within ε.
func (c Cell) Clique() bool { return c.clique }

// First returns the id of the cell's first member, which represents the cell
// while it is a clique.
func (c Cell) First() int { return int(c.first) }

// Index is an insert-only uniform grid of points whose cells list the cells
// around them. The zero value is not usable; construct with New.
type Index struct {
	table
	metric    geom.Metric
	eps       float64
	reach     int64      // r = ⌈ε/side⌉
	span      float64    // (2r+1)^dim, the cells within reach of one cell
	cells     []Cell     // creation order
	boxes     []float64  // cell i's member bounding box: lo, then hi, at 2*i*dim
	next      []int32    // per point id, the next member of its cell, or -1
	nbrs      [][]uint64 // per cell, the entries of the cells within reach, or empty
	spare     []uint64
	block     []int // scratch: one box enumeration or Block probe
	fallbacks int   // Block probes whose block reached past home ± r
}

// side returns the cell side for which a cell's diameter is ε.
func side(m geom.Metric, eps float64, dim int) float64 {
	switch m {
	case geom.L2:
		return eps / math.Sqrt(float64(dim))
	default:
		return eps
	}
}

// BlockCells is the nominal number of cells in a point's ε′-block:
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
	r := int64(1) // ⌈ε/side⌉ exactly: ⌈√dim⌉ under L2, 1 under L∞
	for m == geom.L2 && r*r < int64(dim) {
		r++
	}
	return &Index{table: newTable(side(m, eps, dim), eps, dim), metric: m, eps: eps,
		reach: r, span: math.Pow(float64(2*r+1), float64(dim))}
}

// Reserve makes room for n points in all, so that Insert does not grow the
// per-point member chain before the grid holds them. It changes no answer,
// and the grid still grows past n.
func (ix *Index) Reserve(n int) { ix.next = reserve(ix.next, n) }

// Len reports the number of cells.
func (ix *Index) Len() int { return len(ix.cells) }

// Cell returns cell i.
func (ix *Index) Cell(i int) Cell { return ix.cells[i] }

// Next returns the member inserted after point id in its cell, or -1.
func (ix *Index) Next(id int) int { return int(ix.next[id]) }

// Insert adds point p with the given id to its cell, creating the cell if
// needed, and returns the cell's index. If the cell is a clique afterwards, p
// is certified within ε of every earlier member. id must be the number of
// points inserted before p.
func (ix *Index) Insert(p geom.Point, id int) int {
	ix.setCur(p)
	i, slot := ix.find(ix.cur)
	if i < 0 {
		i = ix.add(ix.cur, slot)
		ix.cells = append(ix.cells, Cell{first: int32(id), clique: true})
		ix.boxes = append(append(ix.boxes, p...), p...)
		ix.nbrs = append(ix.nbrs, nil)
		if float64(ix.n) >= ix.span {
			ix.link(i)
		}
	} else {
		ix.next[ix.cells[i].last] = int32(id)
	}
	ix.next = append(ix.next, -1)
	c := &ix.cells[i]
	c.last = int32(id)
	lo := ix.boxes[2*i*ix.dim : (2*i+1)*ix.dim]
	hi := ix.boxes[(2*i+1)*ix.dim : (2*i+2)*ix.dim]
	for d, v := range p {
		lo[d] = min(lo[d], v)
		hi[d] = max(hi[d], v)
	}
	c.clique = c.clique && geom.Within(ix.metric, lo, hi, ix.eps)
	return i
}

// entry is cell a's entry in the list of cell c, within reach of it: a's rank
// in c's box in lexicographic order, then a, in 32 bits each (ranks are below
// span ≤ n < 2³¹ once cells have lists), so sorted entries are lexicographic.
func (ix *Index) entry(a, c int) uint64 {
	var rank uint64
	for d, x := range ix.at(a) {
		rank = rank*uint64(2*ix.reach+1) + uint64(x-ix.at(c)[d]+ix.reach)
	}
	return rank<<32 | uint64(a)
}

// neighbours returns the list of the cells within reach of cell i, i
// included. A lookup costs about as much as testing 8 cells in a scan.
func (ix *Index) neighbours(i int) []uint64 {
	for d, c := range ix.at(i) {
		ix.lo[d] = c - ix.reach
		ix.hi[d] = c + ix.reach
	}
	ix.block = ix.existing(ix.block[:0], 8)
	list := carve(&ix.spare, max(listCap, 2*len(ix.block)))
	for _, c := range ix.block {
		list = append(list, ix.entry(c, i))
	}
	slices.Sort(list)
	return list
}

// link gives the new cell i its list and appends i to that of each cell within
// reach with a list (Block sorts it in); the others find i when they get one.
func (ix *Index) link(i int) {
	list := ix.neighbours(i)
	for _, e := range list {
		c := uint32(e)
		l := ix.nbrs[c]
		if len(l) == 0 { // i itself, or a cell without a list
			continue
		}
		if len(l) == cap(l) {
			l = append(carve(&ix.spare, 2*cap(l)), l...)
		}
		// i's rank in c's box mirrors c's rank in i's.
		ix.nbrs[c] = append(l, (uint64(ix.span)-1-e>>32)<<32|uint64(i))
	}
	ix.nbrs[i], ix.cells[i].sorted = list, int32(len(list))
}

// Block returns the cells that can hold a point within ε of p, just inserted
// into cell home: those of p's ε′-block, in the order existing(…, 1) gives
// them. A cell created while the grid held fewer than span cells gets its
// list at its first probe after that; until then, or when the block reaches
// past home ± r, Block enumerates. The slice lives until Insert or Block.
func (ix *Index) Block(p geom.Point, home int) []int {
	c, l := &ix.cells[home], ix.nbrs[home]
	if len(l) == 0 && float64(ix.n) >= ix.span {
		l = ix.neighbours(home)
		ix.nbrs[home] = l
	}
	for k := int(c.sorted); k < len(l); k++ { // binary insertion of the appended
		e := l[k]
		at, _ := slices.BinarySearch(l[:k], e)
		copy(l[at+1:k+1], l[at:k])
		l[at] = e
	}
	c.sorted = int32(len(l))
	ix.setWindow(p)
	ix.block = ix.block[:0]
	walk := len(l) > 0 // else the grid holds fewer cells than a list covers
	for d, x := range ix.at(home) {
		if ix.lo[d] < x-ix.reach || ix.hi[d] > x+ix.reach {
			ix.fallbacks++
			walk = false
			break
		}
	}
	if !walk {
		ix.block = ix.existing(ix.block, 1)
		return ix.block
	}
	for _, e := range l {
		if b := int(uint32(e)); ix.inBox(b) {
			ix.block = append(ix.block, b)
		}
	}
	return ix.block
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

// NewRegions returns an empty region grid for the predicate δ(p,q) ≤ eps over
// dim-dimensional points. eps must be positive and finite.
func NewRegions(eps float64, dim int) *Regions {
	return &Regions{table: newTable(eps, eps, dim)}
}

// Reserve makes room for n group ids in all, and for n cells: about one per
// group where groups crowd. Sparse groups cover more cells, up to 3^dim
// each, and the table grows past n as it does unreserved. Reserve changes
// no answer.
func (r *Regions) Reserve(n int) {
	r.mark = reserve(r.mark, n)
	r.ids = reserve(r.ids, n)
	r.reserve(n)
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
			r.ids = append(r.ids, carve(&r.spare, listCap))
		}
		ids := r.ids[i]
		if at, found := slices.BinarySearch(ids, id); !found {
			if len(ids) == cap(ids) {
				ids = append(carve(&r.spare, 2*cap(ids)), ids...)
			}
			r.ids[i] = slices.Insert(ids, at, id)
		}
		if !r.next() {
			return
		}
	}
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
	r.block = r.existing(r.block[:0], 1)
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
