package core

import (
	"context"
	"fmt"
	"sort"

	"sgb/internal/geom"
	"sgb/internal/grid"
	"sgb/internal/rtree"
	"sgb/internal/unionfind"
)

// gridBlockCap is the largest nominal probe block (grid.BlockCells) for which
// IndexBounds runs SGB-Any on the ε-grid; above it the block enumeration costs
// more than an R-tree window query and Points_IX stays an R-tree. SGB-All's
// group grid serves under the same cap. The value
// sits in the measured gap of BenchmarkAnyIndexSweep (DESIGN.md,
// "Substitutions"): it admits L2 up to 4-D, L∞ up to 6-D and L1 up to 3-D.
const gridBlockCap = 1024

// AnyGrouper is a streaming SGB-Any operator instance (Procedure 7). Group
// identity is tracked in a Union-Find forest over point ids: a new point
// unions with one ε-neighbour of every component it touches, which
// transparently merges all candidate groups into one (Procedure 9's
// MergeGroupsInsert).
type AnyGrouper struct {
	opt Options
	dim int
	uf  *unionfind.Forest

	// The on-the-fly point index of IndexBounds (Points_IX): the ε-grid while
	// its probe block stays under blockCap, the paper's R-tree above it.
	blockCap float64
	grid     *grid.Index
	tree     *rtree.Tree
	cols     geom.Cols // every processed point (AllPairs and the R-tree path)

	// Reusable kernel scratch: candidate ids (or cells) gathered from the
	// index, a columnar slab of their coordinates, and the distance/verdict
	// buffers for one geom.WithinMask call. All are grow-once, alloc-free
	// steady state.
	idxBuf []int
	scr    geom.Cols
	view   geom.Cols
	dists  []float64
	mask   []bool
	ptBuf  geom.Point
	// verBuf is the candidate-side scratch of the scalar verification path.
	// It must stay distinct from ptBuf: AddCols feeds probe points through
	// ptBuf, so reusing it inside Add would clobber p mid-scan.
	verBuf geom.Point

	stats    Stats
	finished bool

	// trackLinks arms AddLinked's merge recording: union appends to links
	// whenever a union actually joins two distinct components.
	trackLinks bool
	links      []int

	// ctx, when set via WithContext, lets a canceled or deadline-expired
	// query abort the grouping mid-stream; ctxTick strides the polls.
	ctx     context.Context
	ctxTick uint64
}

// NewAnyGrouper returns a streaming SGB-Any operator configured by opt. The
// Overlap clause is ignored: overlapping groups always merge. Supported
// algorithms are AllPairs and IndexBounds; the rectangle formulation of
// BoundsChecking does not apply to the distance-to-any semantics (§7.1) and
// is rejected.
func NewAnyGrouper(opt Options) (*AnyGrouper, error) {
	return newAnyGrouper(opt, gridBlockCap)
}

// newAnyGrouper is NewAnyGrouper with the grid/R-tree cut-over exposed, so
// tests and the cap sweep can force either index on any input.
func newAnyGrouper(opt Options, blockCap float64) (*AnyGrouper, error) {
	opt.Overlap = JoinAny // irrelevant for SGB-Any; normalize for Validate
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm == BoundsChecking {
		return nil, fmt.Errorf("core: SGB-Any has no Bounds-Checking variant (use AllPairs or IndexBounds)")
	}
	return &AnyGrouper{opt: opt, uf: &unionfind.Forest{}, blockCap: blockCap}, nil
}

// WithContext arms the grouper with a cancellation context: Add returns
// ctx.Err() promptly once ctx is done. It returns g for chaining.
func (g *AnyGrouper) WithContext(ctx context.Context) *AnyGrouper {
	g.ctx = ctx
	return g
}

// checkCtx polls the context every ctxCheckStride calls.
func (g *AnyGrouper) checkCtx() error {
	if g.ctx == nil {
		return nil
	}
	g.ctxTick++
	if g.ctxTick%ctxCheckStride != 0 {
		return nil
	}
	return g.ctx.Err()
}

// Add feeds the next point, in input order, and returns its point id.
func (g *AnyGrouper) Add(p geom.Point) (int, error) {
	if g.finished {
		return 0, fmt.Errorf("core: Add after Finish")
	}
	if err := checkFinite(p); err != nil {
		return 0, err
	}
	if err := g.checkCtx(); err != nil {
		return 0, err
	}
	if g.dim == 0 {
		if len(p) == 0 {
			return 0, fmt.Errorf("core: zero-dimensional point")
		}
		g.dim = len(p)
		switch {
		case g.opt.Algorithm == AllPairs:
			g.cols = geom.NewCols(g.dim)
		case grid.BlockCells(g.opt.Metric, g.dim) <= g.blockCap:
			g.grid = grid.New(g.opt.Metric, g.opt.Eps, g.dim)
		default:
			g.cols = geom.NewCols(g.dim)
			g.scr = geom.NewCols(g.dim)
			g.tree = rtree.New(g.dim)
		}
	} else if len(p) != g.dim {
		return 0, ErrDimensionMismatch
	}
	id := g.uf.MakeSet()
	g.stats.Points++
	switch {
	case g.grid != nil:
		g.addGrid(id, p)
	case g.tree != nil:
		g.addRTree(id, p)
	default:
		g.addAllPairs(id, p)
	}
	return id, nil
}

// addAllPairs is the naive FindCandidateGroups: probe every processed point.
// The probe runs block-wise through the columnar store — one WithinMask kernel
// call per kernelBlock rows instead of a geom.Within call per point.
func (g *AnyGrouper) addAllPairs(id int, p geom.Point) {
	g.cols.AppendPoint(p)
	for lo := 0; lo < id; lo += kernelBlock {
		hi := lo + kernelBlock
		if hi > id {
			hi = id
		}
		g.view.SliceInto(g.cols, lo, hi)
		dists, mask := g.scratch(hi - lo)
		g.stats.DistanceComps += int64(hi - lo)
		geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask)
		for i, in := range mask[:hi-lo] {
			if in {
				g.union(id, lo+i)
			}
		}
	}
}

// addGrid is FindCandidateGroups on the ε-grid. The point joins its own cell
// for free while the cell is a certified clique; of the other cells in its
// ε-block, those already in the point's component are skipped and the rest
// are searched for one witnessing pair. A cell that lost its certificate is a
// bag of points: every member within ε is united.
func (g *AnyGrouper) addGrid(id int, p geom.Point) {
	ix := g.grid
	g.stats.WindowQueries++
	home := ix.Insert(p, id)
	g.stats.IndexUpdates++
	hc := ix.Cell(home)
	if prior := len(hc.IDs) - 1; prior > 0 {
		if hc.Clique() {
			g.union(id, hc.IDs[0])
		} else {
			g.linkCell(id, p, hc, prior)
		}
	}
	g.idxBuf = ix.Block(p, g.idxBuf[:0])
	for _, ci := range g.idxBuf {
		if ci == home {
			continue
		}
		c := ix.Cell(ci)
		if c.Clique() && g.uf.Find(c.IDs[0]) == g.uf.Find(id) {
			continue
		}
		g.linkCell(id, p, c, len(c.IDs))
	}
}

// linkCell unites id with the members among c's first n that are within ε of
// p: only the first one found when c is a clique, whose members share one
// component, else every one of them.
func (g *AnyGrouper) linkCell(id int, p geom.Point, c *grid.Cell, n int) {
	scanBlocks(0, n, func(lo, hi int) bool {
		g.view.SliceInto(c.Pts, lo, hi)
		dists, mask := g.scratch(hi - lo)
		g.stats.DistanceComps += int64(hi - lo)
		if geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask) == 0 {
			return true
		}
		for i, in := range mask {
			if in {
				g.union(id, c.IDs[lo+i])
				if c.Clique() {
					return false
				}
			}
		}
		return true
	})
}

// addRTree is FindCandidateGroups as the paper has it (Procedure 8): a window
// query on the R-tree Points_IX is a conservative filter — the box is padded
// to grid.Reach so that float rounding of p±ε cannot drop a neighbour — and
// VerifyPoints re-checks each hit with the exact predicate, gathered into a
// columnar slab and verified with one kernel call instead of per-hit Within
// calls.
func (g *AnyGrouper) addRTree(id int, p geom.Point) {
	g.cols.AppendPoint(p)
	g.stats.WindowQueries++
	g.idxBuf = g.idxBuf[:0]
	g.tree.Search(geom.BoxAround(p, grid.Reach(g.opt.Eps)), func(ref int64) bool {
		g.idxBuf = append(g.idxBuf, int(ref))
		return true
	})
	if n := len(g.idxBuf); n <= kernelHead {
		// Small candidate sets verify point-at-a-time: the gather copy
		// and kernel dispatch cost more than the handful of distance
		// computations they would batch.
		for _, q := range g.idxBuf {
			g.stats.DistanceComps++
			g.verBuf = g.cols.PointAt(q, g.verBuf)
			if geom.Within(g.opt.Metric, g.verBuf, p, g.opt.Eps) {
				g.union(id, q)
			}
		}
	} else {
		g.scr.Gather(g.cols, g.idxBuf)
		dists, mask := g.scratch(n)
		g.stats.DistanceComps += int64(n)
		geom.WithinMask(g.opt.Metric, g.scr, p, g.opt.Eps, dists, mask)
		for i, in := range mask[:n] {
			if in {
				g.union(id, g.idxBuf[i])
			}
		}
	}
	g.tree.Insert(geom.PointRect(p), int64(id))
	g.stats.IndexUpdates++
}

// scratch returns the distance and mask buffers grown to hold n rows.
func (g *AnyGrouper) scratch(n int) ([]float64, []bool) {
	if cap(g.dists) < n {
		// Grow with headroom: candidate sets in dense clusters grow with
		// every insertion, so exact-fit growth would reallocate on nearly
		// every new running max.
		g.dists = make([]float64, 2*n)
		g.mask = make([]bool, 2*n)
	}
	return g.dists[:n], g.mask[:n]
}

// AddCols feeds every point of a columnar batch in row order, as if each had
// been passed to Add. The coordinates are copied out of c; c is not retained.
func (g *AnyGrouper) AddCols(c geom.Cols) error {
	n := c.Len()
	for i := 0; i < n; i++ {
		g.ptBuf = c.PointAt(i, g.ptBuf)
		if _, err := g.Add(g.ptBuf); err != nil {
			return err
		}
	}
	return nil
}

// union merges the groups of a and b, counting actual merges.
func (g *AnyGrouper) union(a, b int) {
	if g.uf.Find(a) != g.uf.Find(b) {
		g.stats.GroupsMerged++
		g.uf.Union(a, b)
		if g.trackLinks {
			g.links = append(g.links, b)
		}
	}
}

// AddLinked is the incremental-maintenance entry point: it feeds the next
// point like Add and additionally reports which pre-existing groups the point
// connected to. links holds exactly one member point id per distinct prior
// connected component the new point was united with (the component's
// representative at union time), in probe order — an empty slice means the
// point founded a new singleton group. The returned slice is reused by the
// next AddLinked call; callers that retain it must copy.
func (g *AnyGrouper) AddLinked(p geom.Point) (id int, links []int, err error) {
	g.trackLinks = true
	g.links = g.links[:0]
	id, err = g.Add(p)
	g.trackLinks = false
	if err != nil {
		return 0, nil, err
	}
	return id, g.links, nil
}

// Snapshot materializes the current connected components without consuming
// the grouper: unlike Finish, the grouper keeps accepting points afterwards.
// The result is bit-identical to what Finish would return at this prefix —
// groups sorted by smallest member, members ascending — which is the
// invariant incremental view maintenance is checked against.
func (g *AnyGrouper) Snapshot() ([]Group, error) {
	if g.finished {
		return nil, fmt.Errorf("core: Snapshot after Finish")
	}
	var groups []Group
	for _, ids := range g.uf.Groups() {
		sort.Ints(ids)
		groups = append(groups, Group{IDs: ids})
	}
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].IDs[0] < groups[j].IDs[0]
	})
	return groups, nil
}

// Finish materializes the connected components as groups. The grouper cannot
// be reused afterwards.
func (g *AnyGrouper) Finish() (*Result, error) {
	if g.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	g.finished = true
	g.stats.Rounds = 1
	res := &Result{Stats: g.stats}
	for _, ids := range g.uf.Groups() {
		sort.Ints(ids)
		res.Groups = append(res.Groups, Group{IDs: ids})
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		return res.Groups[i].IDs[0] < res.Groups[j].IDs[0]
	})
	return res, nil
}

// SGBAny groups points with the DISTANCE-TO-ANY semantics in input order and
// returns the final grouping. It is the batch convenience wrapper around
// AnyGrouper.
func SGBAny(points []geom.Point, opt Options) (*Result, error) {
	g, err := NewAnyGrouper(opt)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		if _, err := g.Add(p); err != nil {
			return nil, err
		}
	}
	return g.Finish()
}
