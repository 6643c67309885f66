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

	// coords holds the points Add copied, point id i at [i*dim, (i+1)*dim),
	// so the caller keeps its buffer.
	coords []float64

	// The on-the-fly point index of IndexBounds (Points_IX): the ε-grid while
	// its probe block stays under blockCap, the paper's R-tree above it.
	blockCap float64
	grid     *grid.Index
	tree     *rtree.Tree
	// idxBuf is probe scratch, reused across Add: the cells of one grid
	// block.
	idxBuf []int

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
// All points must share one dimensionality. The coordinates are copied into
// storage the grouper owns, so the caller may reuse p.
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
		case g.opt.Algorithm == AllPairs: // no index: every point is probed
		case grid.BlockCells(g.opt.Metric, g.dim) <= g.blockCap:
			g.grid = grid.New(g.opt.Metric, g.opt.Eps, g.dim)
		default:
			g.tree = rtree.New(g.dim)
		}
	} else if len(p) != g.dim {
		return 0, ErrDimensionMismatch
	}
	id := g.uf.MakeSet()
	g.coords = append(g.coords, p...)
	p = g.point(id)
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

// point returns point id's coordinates.
func (g *AnyGrouper) point(id int) geom.Point {
	return g.coords[id*g.dim : (id+1)*g.dim : (id+1)*g.dim]
}

// addAllPairs is the naive FindCandidateGroups: probe every processed point.
func (g *AnyGrouper) addAllPairs(id int, p geom.Point) {
	for q := 0; q < id; q++ {
		g.verify(id, p, q)
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
	for _, q := range c.IDs[:n] {
		if g.verify(id, p, q) && c.Clique() {
			return
		}
	}
}

// addRTree is FindCandidateGroups as the paper has it (Procedure 8): a window
// query on the R-tree Points_IX is a conservative filter — the box is padded
// to grid.Reach so that float rounding of p±ε cannot drop a neighbour — and
// VerifyPoints re-checks each hit with the exact predicate.
func (g *AnyGrouper) addRTree(id int, p geom.Point) {
	g.stats.WindowQueries++
	g.tree.Search(geom.BoxAround(p, grid.Reach(g.opt.Eps)), func(ref int64) bool {
		g.verify(id, p, int(ref))
		return true
	})
	g.tree.Insert(geom.PointRect(p), int64(id))
	g.stats.IndexUpdates++
}

// verify evaluates the similarity predicate between p, point id, and point q,
// uniting the two when it holds, and reports whether it did.
func (g *AnyGrouper) verify(id int, p geom.Point, q int) bool {
	g.stats.DistanceComps++
	if !geom.Within(g.opt.Metric, p, g.point(q), g.opt.Eps) {
		return false
	}
	g.union(id, q)
	return true
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
