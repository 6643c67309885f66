package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"sgb/internal/geom"
	"sgb/internal/grid"
	"sgb/internal/hull"
)

// ctxCheckStride is how many Add/processPoint steps a grouper takes between
// context polls: frequent enough that a canceled multi-second run aborts in
// well under a second, rare enough to keep the hot path branch-predictable.
const ctxCheckStride = 1024

// kernelBlock is the maximum row count of one batch-kernel probe: member
// scans walk a group's columnar mirror in slabs of up to this many points per
// geom.WithinMask call. It bounds the kernel scratch buffers; large enough to
// amortize the call and let the inner loop vectorize.
const kernelBlock = 256

// kernelHead is the number of members an early-exit scan probes
// row-at-a-time with geom.Within before switching to batch kernels. A scan
// that decides on its first member — the common case for JOIN-ANY candidacy
// over sparse data — pays exactly one distance computation and no kernel
// dispatch, matching the historical per-row scan; only scans that survive
// the head amortize kernel-call overhead over wide blocks.
const kernelHead = 16

// arenaChunk is the point count of AllGrouper's first storage chunk; each
// later chunk doubles the previous one.
const arenaChunk = 256

// kernelBlockMin is the first kernel block size after the scalar head.
// Blocks double from here up to kernelBlock, so a scan deciding at member k
// computes fewer than 2k distances while long scans spend almost all their
// rows in full-width blocks.
const kernelBlockMin = 32

// scanBlocks iterates [lo, n) in kernel blocks ramping from kernelBlockMin
// up to kernelBlock. f returns false to stop the scan early.
func scanBlocks(lo, n int, f func(lo, hi int) bool) {
	blk := kernelBlockMin
	for lo < n {
		hi := lo + blk
		if hi > n {
			hi = n
		}
		if !f(lo, hi) {
			return
		}
		lo = hi
		if blk < kernelBlock {
			blk <<= 1
		}
	}
}

// headLen caps the scalar head of a scan at kernelHead members.
func headLen(n int) int {
	if n < kernelHead {
		return n
	}
	return kernelHead
}

// allGroup is one live SGB-All group under construction.
type allGroup struct {
	id      int
	members []int         // point ids, in insertion order
	cols    geom.Cols     // columnar mirror of the member coordinates, row i = members[i]
	rect    *geom.EpsRect // ε-All bounding rectangle, through the member MBR
	hull    *hull.Incremental
}

// AllGrouper is a streaming SGB-All operator instance. Points are fed in
// input order with Add and the final grouping is materialized by Finish.
type AllGrouper struct {
	opt    Options
	dim    int
	points []geom.Point
	// arena is the storage Add copies points into: points[i] is a slice of
	// it (or of an earlier, full chunk), so the caller keeps its buffer.
	arena []float64

	active []*allGroup // groups of the current grouping round
	final  []*allGroup // groups sealed by earlier FORM-NEW-GROUP rounds
	nextID int
	// regions is Groups_IX, the on-the-fly index of IndexBounds: every
	// active group registered on the ε-grid under its candidate region and
	// its position in active. Nil for the other algorithms and above
	// gridBlockCap, where IndexBounds scans the group list as BoundsChecking
	// does.
	regions *grid.Regions

	deferred []int // S′: points diverted by FORM-NEW-GROUP
	dropped  []int // points discarded by ELIMINATE

	// Probe scratch, reused across Add: the candidate and overlap groups of
	// one point and the active positions one Regions.Block probe lists.
	candidates, overlaps []*allGroup
	block                []int

	// Kernel scratch, reused across every member scan: a column view of the
	// current block plus the distance/verdict buffers for one WithinMask
	// call. Bounded by kernelBlock, alloc-free in steady state.
	view  geom.Cols
	dists []float64
	mask  []bool
	// ptBuf is the probe buffer AddCols feeds each row through.
	ptBuf geom.Point

	stats    Stats
	useHull  bool
	finished bool

	// ctx, when set via WithContext, lets a canceled or deadline-expired
	// query abort the grouping mid-stream; ctxTick strides the polls.
	ctx     context.Context
	ctxTick uint64
}

// NewAllGrouper returns a streaming SGB-All operator configured by opt.
func NewAllGrouper(opt Options) (*AllGrouper, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return &AllGrouper{opt: opt}, nil
}

// WithContext arms the grouper with a cancellation context: Add and Finish
// return ctx.Err() promptly once ctx is done. It returns g for chaining.
func (g *AllGrouper) WithContext(ctx context.Context) *AllGrouper {
	g.ctx = ctx
	return g
}

// checkCtx polls the context every ctxCheckStride calls.
func (g *AllGrouper) checkCtx() error {
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
// chunked storage the grouper owns, without a per-point allocation, so the
// caller may reuse p.
func (g *AllGrouper) Add(p geom.Point) (int, error) {
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
		// The convex-hull refinement (Procedure 6) applies to the 2-D L2
		// case — and equally to L1, whose distance-to-a-fixed-probe is
		// also convex, so the farthest member from any probe is a hull
		// vertex. Elsewhere the rectangle test is exact (L∞, or 1-D where
		// the metrics coincide) or we fall back to exact member scans.
		g.useHull = (g.opt.Metric == geom.L2 || g.opt.Metric == geom.L1) &&
			g.dim == 2 && !g.opt.disableHullRefine
		// Group regions sit on cells of side ε whatever the metric, so a
		// probe block is 3^d cells: the grid serves while that stays under
		// SGB-Any's cap (d ≤ 6).
		if g.opt.Algorithm == IndexBounds && grid.BlockCells(geom.LInf, g.dim) <= gridBlockCap {
			g.regions = grid.NewRegions(g.opt.Eps, g.dim)
		}
	} else if len(p) != g.dim {
		return 0, ErrDimensionMismatch
	}
	if cap(g.arena)-len(g.arena) < g.dim {
		g.arena = make([]float64, 0, max(arenaChunk*g.dim, 2*cap(g.arena)))
	}
	n := len(g.arena)
	g.arena = append(g.arena, p...)
	id := len(g.points)
	g.points = append(g.points, g.arena[n:len(g.arena):len(g.arena)])
	g.stats.Points++
	g.processPoint(id)
	return id, nil
}

// Finish runs the FORM-NEW-GROUP recursion over the deferred set S′ (if any)
// and materializes the result. The grouper cannot be reused afterwards.
func (g *AllGrouper) Finish() (*Result, error) {
	if g.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	g.finished = true
	g.stats.Rounds = 1
	for len(g.deferred) > 0 {
		// Each round groups S′ against a fresh group universe: the points
		// in S′ form new groups among themselves (Procedures 1 and 3).
		// Progress is expected: the ProcessOverlap removals only ever
		// take the members of a group that are within ε of the probe and
		// the OverlapGroups definition requires at least one member that
		// is not, so groups are never fully emptied (see rebuildGroup) and
		// at least one group survives every round, so |S′| decreases. The
		// check below turns any pathological counterexample into an error
		// instead of a livelock.
		before := len(g.deferred)
		g.final = append(g.final, g.active...)
		g.active = nil
		if g.regions != nil {
			g.regions = grid.NewRegions(g.opt.Eps, g.dim)
		}
		round := g.deferred
		g.deferred = nil
		for _, id := range round {
			if err := g.checkCtx(); err != nil {
				return nil, err
			}
			g.processPoint(id)
		}
		g.stats.Rounds++
		if len(g.deferred) >= before {
			return nil, fmt.Errorf("core: FORM-NEW-GROUP made no progress (%d -> %d deferred)", before, len(g.deferred))
		}
	}
	g.final = append(g.final, g.active...)
	g.active = nil

	res := &Result{Stats: g.stats}
	for _, grp := range g.final {
		if len(grp.members) == 0 {
			continue
		}
		ids := append([]int(nil), grp.members...)
		slices.Sort(ids)
		res.Groups = append(res.Groups, Group{IDs: ids})
	}
	slices.SortFunc(res.Groups, byFirstID)
	slices.Sort(g.dropped)
	res.Dropped = g.dropped
	return res, nil
}

// byFirstID orders groups by their smallest member id, the Result order.
func byFirstID(a, b Group) int { return cmp.Compare(a.IDs[0], b.IDs[0]) }

// Snapshot materializes the grouping as it stands without consuming the
// grouper: unlike Finish, the grouper keeps accepting points afterwards. The
// result is bit-identical to what Finish would return at this prefix (same
// groups, same dropped set, same round count) — the invariant incremental
// view maintenance is checked against.
//
// Sealed and active groups are copied out directly. A non-empty deferred set
// (FORM-NEW-GROUP) is resolved on a scratch grouper fed the deferred points
// in order: Finish's first recursion round processes exactly those points
// against an empty group universe, so the scratch run reproduces the
// recursion without touching this grouper's state. (Only FORM-NEW-GROUP
// defers points, and that mode never consults opt.Rand, so the scratch run
// has no side effects.)
func (g *AllGrouper) Snapshot() (*Result, error) {
	if g.finished {
		return nil, fmt.Errorf("core: Snapshot after Finish")
	}
	res := &Result{Stats: g.stats, Groups: make([]Group, 0, len(g.final)+len(g.active))}
	res.Stats.Rounds = 1
	// Every group's ids are carved from one backing array.
	total := 0
	for _, grp := range g.final {
		total += len(grp.members)
	}
	for _, grp := range g.active {
		total += len(grp.members)
	}
	all := make([]int, 0, total)
	collect := func(groups []*allGroup) {
		for _, grp := range groups {
			if len(grp.members) == 0 {
				continue
			}
			n := len(all)
			all = append(all, grp.members...)
			ids := all[n:len(all):len(all)]
			slices.Sort(ids)
			res.Groups = append(res.Groups, Group{IDs: ids})
		}
	}
	collect(g.final)
	collect(g.active)
	dropped := append([]int(nil), g.dropped...)
	if len(g.deferred) > 0 {
		sub, err := NewAllGrouper(g.opt)
		if err != nil {
			return nil, err
		}
		for _, id := range g.deferred {
			if _, err := sub.Add(g.points[id]); err != nil {
				return nil, err
			}
		}
		subRes, err := sub.Finish()
		if err != nil {
			return nil, err
		}
		// Scratch ids are dense over the deferred slice; map them back to
		// this grouper's point ids and restore the sort invariants.
		for _, grp := range subRes.Groups {
			ids := make([]int, len(grp.IDs))
			for i, sid := range grp.IDs {
				ids[i] = g.deferred[sid]
			}
			slices.Sort(ids)
			res.Groups = append(res.Groups, Group{IDs: ids})
		}
		for _, sid := range subRes.Dropped {
			dropped = append(dropped, g.deferred[sid])
		}
		res.Stats.Rounds = subRes.Stats.Rounds + 1
	}
	slices.SortFunc(res.Groups, byFirstID)
	slices.Sort(dropped)
	res.Dropped = dropped
	return res, nil
}

// processPoint runs Procedure 1 for one point: find the candidate and
// overlap groups, arbitrate membership, then apply the overlap semantics.
func (g *AllGrouper) processPoint(id int) {
	p := g.points[id]
	g.candidates, g.overlaps = g.candidates[:0], g.overlaps[:0]
	switch {
	case g.opt.Algorithm == AllPairs:
		g.findAllPairs(p)
	case g.regions != nil:
		g.findIndexed(p)
	default:
		g.findBounds(p)
	}
	candidates := g.candidates

	// ProcessGroupingALL (Procedure 3).
	switch {
	case len(candidates) == 0:
		g.newGroup(id)
	case len(candidates) == 1:
		g.insert(candidates[0], id)
	default:
		switch g.opt.Overlap {
		case JoinAny:
			pick := candidates[0]
			if g.opt.Rand != nil {
				pick = candidates[g.opt.Rand.Intn(len(candidates))]
			}
			g.insert(pick, id)
		case Eliminate:
			g.dropped = append(g.dropped, id)
		case FormNewGroup:
			g.deferred = append(g.deferred, id)
		}
	}

	if g.opt.Overlap != JoinAny && len(g.overlaps) > 0 {
		g.processOverlap(p, g.overlaps)
	}
}

// findAllPairs is Naive FindCloseGroupsALL (Procedure 2): evaluate the
// similarity predicate between p and every previously grouped point.
func (g *AllGrouper) findAllPairs(p geom.Point) {
	joinAny := g.opt.Overlap == JoinAny
	for _, grp := range g.active {
		if len(grp.members) == 0 {
			continue
		}
		candidate, overlap := g.scanMembers(grp, p, joinAny)
		switch {
		case candidate:
			g.candidates = append(g.candidates, grp)
		case !joinAny && overlap:
			g.overlaps = append(g.overlaps, grp)
		}
	}
}

// scratch returns the distance and mask buffers grown to hold n rows
// (n ≤ kernelBlock).
func (g *AllGrouper) scratch(n int) ([]float64, []bool) {
	if cap(g.dists) < n {
		g.dists = make([]float64, kernelBlock)
		g.mask = make([]bool, kernelBlock)
	}
	return g.dists[:n], g.mask[:n]
}

// scanMembers evaluates the similarity predicate between p and every member
// of grp: a scalar head of geom.Within calls (so a scan deciding on its
// first members costs what the historical per-row scan did), then one
// WithinMask kernel call per ramping block of the group's columnar mirror.
// allIn reports whether every member qualifies, anyIn whether at least one
// does. Under JOIN-ANY the overlap verdict is never consulted, so the scan
// stops at the first violation (head) or first violating block (tail);
// otherwise every member is evaluated, preserving the row-at-a-time scan's
// DistanceComps accounting exactly.
func (g *AllGrouper) scanMembers(grp *allGroup, p geom.Point, joinAny bool) (allIn, anyIn bool) {
	allIn = true
	head := headLen(len(grp.members))
	for i := 0; i < head; i++ {
		g.stats.DistanceComps++
		if geom.Within(g.opt.Metric, p, g.points[grp.members[i]], g.opt.Eps) {
			anyIn = true
		} else {
			allIn = false
			if joinAny {
				return
			}
		}
	}
	scanBlocks(head, grp.cols.Len(), func(lo, hi int) bool {
		g.view.SliceInto(grp.cols, lo, hi)
		dists, mask := g.scratch(hi - lo)
		g.stats.DistanceComps += int64(hi - lo)
		cnt := geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask)
		if cnt > 0 {
			anyIn = true
		}
		if cnt < hi-lo {
			allIn = false
			if joinAny {
				return false
			}
		}
		return true
	})
	return
}

// findBounds is Bounds-Checking FindCloseGroups (Procedure 4): the ε-All
// rectangle decides candidacy in constant time per group (exactly under L∞,
// as a conservative filter refined by Procedure 6 under L2).
func (g *AllGrouper) findBounds(p geom.Point) {
	for _, grp := range g.active {
		g.classify(grp, p)
	}
}

// findIndexed is Index Bounds-Checking FindCloseGroups (Procedure 5): a probe
// of Groups_IX prunes the group list before the per-group rectangle tests.
// Under JOIN-ANY only candidates matter, and every candidate's region holds
// p, so p's own cell lists them all, in creation order as the linear scan
// visits them. The other clauses also need every group with a member within
// ε of p, which p's ε′-block lists.
func (g *AllGrouper) findIndexed(p geom.Point) {
	g.stats.WindowQueries++
	if g.opt.Overlap == JoinAny {
		for _, i := range g.regions.Own(p) {
			g.classify(g.active[i], p)
		}
		return
	}
	g.block = g.regions.Block(p, g.block[:0])
	for _, i := range g.block {
		g.classify(g.active[i], p)
	}
	// Their candidates' order is never read, but FORM-NEW-GROUP defers the
	// members processOverlap pulls out in overlap order, which the linear
	// scan makes ascending.
	slices.SortFunc(g.overlaps, func(a, b *allGroup) int { return cmp.Compare(a.id, b.id) })
}

// classify runs the per-group tests of Procedures 4 and 5 on grp: the ε-All
// rectangle test, refined by qualifies, makes it a candidate; otherwise,
// unless the clause is JOIN-ANY, the overlap rectangle test and a member scan
// make it an overlap group. Emptied groups are skipped.
func (g *AllGrouper) classify(grp *allGroup, p geom.Point) {
	if len(grp.members) == 0 {
		return
	}
	joinAny := g.opt.Overlap == JoinAny
	g.stats.RectTests++
	if grp.rect.ContainsPoint(p) {
		if g.qualifies(grp, p) {
			g.candidates = append(g.candidates, grp)
			return
		}
		// An L2 false positive of the rectangle filter can still
		// partially overlap the group.
		if !joinAny && g.anyWithin(grp, p) {
			g.overlaps = append(g.overlaps, grp)
		}
		return
	}
	if joinAny {
		return
	}
	// OverlapRectangleTest: p can only be within ε of some member if it is
	// within ε of the member MBR.
	g.stats.RectTests++
	if grp.rect.Reaches(p) && g.anyWithin(grp, p) {
		g.overlaps = append(g.overlaps, grp)
	}
}

// qualifies refines a positive ε-All rectangle test into an exact membership
// decision. Under L∞ (and in 1-D, where the metrics coincide) the rectangle
// is exact. Under 2-D L2 the convex hull test (Procedure 6) is used: a point
// inside the hull is within ε of all members, and otherwise the hull vertex
// farthest from p bounds the farthest member. Other dimensionalities fall
// back to an exact member scan.
func (g *AllGrouper) qualifies(grp *allGroup, p geom.Point) bool {
	if g.opt.Metric == geom.LInf || g.dim == 1 {
		return true
	}
	if grp.hull != nil {
		g.stats.HullTests++
		if grp.hull.Contains(p) {
			return true
		}
		// Farthest-vertex bound, evaluated sqrt-free: every vertex within ε
		// (squared-distance compare under L2, early exit) iff the farthest
		// vertex is. Counted as one comparison like the Farthest sweep it
		// replaces.
		g.stats.DistanceComps++
		return grp.hull.AllWithin(g.opt.Metric, p, g.opt.Eps)
	}
	return g.allWithin(grp, p)
}

// anyWithin reports whether any member of grp satisfies the predicate with p.
// The scan is block-wise and stops at the first block containing a hit.
func (g *AllGrouper) anyWithin(grp *allGroup, p geom.Point) bool {
	head := headLen(len(grp.members))
	for i := 0; i < head; i++ {
		g.stats.DistanceComps++
		if geom.Within(g.opt.Metric, p, g.points[grp.members[i]], g.opt.Eps) {
			return true
		}
	}
	found := false
	scanBlocks(head, grp.cols.Len(), func(lo, hi int) bool {
		g.view.SliceInto(grp.cols, lo, hi)
		dists, mask := g.scratch(hi - lo)
		g.stats.DistanceComps += int64(hi - lo)
		if geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask) > 0 {
			found = true
			return false
		}
		return true
	})
	return found
}

// allWithin reports whether every member of grp satisfies the predicate.
// The scan is block-wise and stops at the first block containing a violation.
func (g *AllGrouper) allWithin(grp *allGroup, p geom.Point) bool {
	head := headLen(len(grp.members))
	for i := 0; i < head; i++ {
		g.stats.DistanceComps++
		if !geom.Within(g.opt.Metric, p, g.points[grp.members[i]], g.opt.Eps) {
			return false
		}
	}
	all := true
	scanBlocks(head, grp.cols.Len(), func(lo, hi int) bool {
		g.view.SliceInto(grp.cols, lo, hi)
		dists, mask := g.scratch(hi - lo)
		g.stats.DistanceComps += int64(hi - lo)
		if geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask) < hi-lo {
			all = false
			return false
		}
		return true
	})
	return all
}

func (g *AllGrouper) newGroup(id int) *allGroup {
	p := g.points[id]
	grp := &allGroup{
		id:      g.nextID,
		members: []int{id},
		cols:    geom.NewCols(g.dim),
		rect:    geom.NewEpsRect(p, g.opt.Eps),
	}
	grp.cols.AppendPoint(p)
	g.nextID++
	if g.useHull {
		grp.hull = hull.NewIncremental(p)
	}
	g.active = append(g.active, grp)
	g.register(grp)
	return grp
}

// register records grp's candidate region in Groups_IX under the group's
// position in the round's group list.
func (g *AllGrouper) register(grp *allGroup) {
	if g.regions != nil {
		g.regions.Register(grp.rect.MBR(), grp.id-g.active[0].id)
		g.stats.IndexUpdates++
	}
}

// insert is ProcessInsert: add the point and shrink the ε-All rectangle.
// The group's registration is left untouched — it only ever needs to cover
// the live region, and insertions only shrink it.
func (g *AllGrouper) insert(grp *allGroup, id int) {
	p := g.points[id]
	grp.members = append(grp.members, id)
	grp.cols.AppendPoint(p)
	grp.rect.Add(p)
	if grp.hull != nil {
		grp.hull.Add(p)
	}
}

// processOverlap is ProcessOverlap (Procedure 1, line 5): the members of
// each partially overlapping group that satisfy the predicate with p are
// pulled out — discarded under ELIMINATE, diverted to S′ under
// FORM-NEW-GROUP — and the group's summaries are rebuilt.
func (g *AllGrouper) processOverlap(p geom.Point, overlaps []*allGroup) {
	for _, grp := range overlaps {
		// Partition the members by one block-wise kernel pass: mask row i
		// decides members[i]. The keep compaction is in place — its write
		// index never passes the read index.
		n := grp.cols.Len()
		keep := grp.members[:0]
		var removed []int
		for lo := 0; lo < n; lo += kernelBlock {
			hi := lo + kernelBlock
			if hi > n {
				hi = n
			}
			g.view.SliceInto(grp.cols, lo, hi)
			dists, mask := g.scratch(hi - lo)
			g.stats.DistanceComps += int64(hi - lo)
			geom.WithinMask(g.opt.Metric, g.view, p, g.opt.Eps, dists, mask)
			for i, in := range mask {
				m := grp.members[lo+i]
				if in {
					removed = append(removed, m)
				} else {
					keep = append(keep, m)
				}
			}
		}
		if len(removed) == 0 {
			continue
		}
		grp.members = keep
		switch g.opt.Overlap {
		case Eliminate:
			g.dropped = append(g.dropped, removed...)
		case FormNewGroup:
			g.deferred = append(g.deferred, removed...)
		}
		g.rebuildGroup(grp)
	}
}

// rebuildGroup recomputes a group's rectangle and hull after removals. The
// ε-All rectangle can legitimately grow, so the group is registered again:
// Register adds the cells the region grew into, and the cells it left keep a
// stale entry that the rectangle test turns away.
func (g *AllGrouper) rebuildGroup(grp *allGroup) {
	pts := make([]geom.Point, len(grp.members))
	grp.cols.Reset()
	for i, m := range grp.members {
		pts[i] = g.points[m]
		grp.cols.AppendPoint(g.points[m])
	}
	if len(grp.members) == 0 {
		// Unreachable while the ε-All rectangle test never rejects a point
		// geom.Within accepts against every member (see geom.EpsRect): an
		// overlap group then keeps the member p is not within ε of. Should
		// an ε whose square under- or overflows break that, the emptied
		// group stays behind inert: every find path skips it and Finish
		// drops it.
		grp.rect.Rebuild(nil)
		return
	}
	grp.rect.Rebuild(pts)
	if grp.hull != nil {
		grp.hull.Rebuild(pts)
	}
	g.register(grp)
}

// AddCols feeds every point of a columnar batch in row order, as if each had
// been passed to Add. The coordinates are copied out of c; c is not retained.
func (g *AllGrouper) AddCols(c geom.Cols) error {
	n := c.Len()
	for i := 0; i < n; i++ {
		g.ptBuf = c.PointAt(i, g.ptBuf)
		if _, err := g.Add(g.ptBuf); err != nil {
			return err
		}
	}
	return nil
}

// SGBAll groups points with the DISTANCE-TO-ALL semantics in input order and
// returns the final grouping. It is the batch convenience wrapper around
// AllGrouper.
func SGBAll(points []geom.Point, opt Options) (*Result, error) {
	g, err := NewAllGrouper(opt)
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
