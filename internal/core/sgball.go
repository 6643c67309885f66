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

// arenaChunk is the group count of AllGrouper's first MBR chunk; each later
// chunk doubles the previous one.
const arenaChunk = 256

// AllGrouper is a streaming SGB-All operator instance. Points are fed in
// input order with Add and the final grouping is materialized by Finish.
//
// A group is an integer: groups are numbered in creation order across every
// FORM-NEW-GROUP round, and a group's state is one row of the struct-of-arrays
// fields below, indexed by that id, with no heap object per group.
type AllGrouper struct {
	opt Options
	dim int
	// coords holds the points Add copied, point id i at [i*dim, (i+1)*dim),
	// so the caller keeps its buffer. A point handed out by point stays
	// valid when coords grows: the values never change.
	coords []float64
	// arena is the chunked storage group MBRs are carved from.
	arena []float64

	// rects[gid] is group gid's ε-All rectangle, through a member MBR carved
	// from arena; rects[gid].Len() is its member count. The members, in
	// insertion order, are head[gid], next[head[gid]], … up to tail[gid]:
	// next is indexed by point id and read only as far as the count reaches.
	rects      []geom.EpsRect
	head, tail []int
	next       []int
	// hulls[gid] is group gid's hull when useHull is set.
	hulls []*hull.Incremental
	// round is the id of the current grouping round's first group: groups
	// [round, len(rects)) are active, earlier ones sealed by FORM-NEW-GROUP.
	round int
	// regions is Groups_IX, the on-the-fly index of IndexBounds: every
	// active group registered on the ε-grid under its candidate region and
	// its position gid-round in the round. Nil for the other algorithms and
	// above gridBlockCap, where IndexBounds scans the group list as
	// BoundsChecking does.
	regions *grid.Regions

	deferred []int // S′: points diverted by FORM-NEW-GROUP
	dropped  []int // points discarded by ELIMINATE

	// Probe scratch, reused across Add: the candidate and overlap group ids
	// of one point, the positions one Regions.Block probe lists, and one
	// group's members and their points while processOverlap partitions and
	// rebuilds it.
	candidates, overlaps []int
	block, members       []int
	pts                  []geom.Point

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
// storage the grouper owns, so the caller may reuse p.
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
	id := len(g.next)
	g.coords = append(g.coords, p...)
	g.next = append(g.next, 0)
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
		g.round = len(g.rects)
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
	res := &Result{Stats: g.stats}
	g.collect(res)
	slices.SortFunc(res.Groups, byFirstID)
	slices.Sort(g.dropped)
	res.Dropped = g.dropped
	return res, nil
}

// point returns point id's coordinates.
func (g *AllGrouper) point(id int) geom.Point {
	return g.coords[id*g.dim : (id+1)*g.dim : (id+1)*g.dim]
}

// carve returns n floats of arena, starting a new chunk (arenaChunk·n floats
// or twice the last chunk) when the current one is full. Earlier chunks stay
// alive through the slices carved from them.
func (g *AllGrouper) carve(n int) []float64 {
	if cap(g.arena)-len(g.arena) < n {
		g.arena = make([]float64, 0, max(arenaChunk*n, 2*cap(g.arena)))
	}
	m := len(g.arena)
	g.arena = g.arena[:m+n]
	return g.arena[m : m+n : m+n]
}

// appendMembers appends group gid's members, in insertion order, to dst.
func (g *AllGrouper) appendMembers(dst []int, gid int) []int {
	m := g.head[gid]
	for i := g.rects[gid].Len(); i > 0; i-- {
		dst = append(dst, m)
		m = g.next[m]
	}
	return dst
}

// collect appends every non-empty group to res.Groups in id order, each
// one's ids sorted and carved from one backing array.
func (g *AllGrouper) collect(res *Result) {
	total := 0
	for gid := range g.rects {
		total += g.rects[gid].Len()
	}
	if total == 0 {
		return
	}
	all := make([]int, 0, total)
	res.Groups = slices.Grow(res.Groups, len(g.rects))
	for gid := range g.rects {
		if g.rects[gid].Len() == 0 {
			continue
		}
		n := len(all)
		all = g.appendMembers(all, gid)
		ids := all[n:len(all):len(all)]
		slices.Sort(ids)
		res.Groups = append(res.Groups, Group{IDs: ids})
	}
}

// byFirstID orders groups by their smallest member id, the Result order.
func byFirstID(a, b Group) int { return cmp.Compare(a.IDs[0], b.IDs[0]) }

// Snapshot materializes the grouping as it stands without consuming the
// grouper: unlike Finish, the grouper keeps accepting points afterwards. The
// result is bit-identical to what Finish would return at this prefix (same
// groups, same dropped set, same round count) — the invariant incremental
// view maintenance is checked against.
//
// Sealed and active groups are copied out directly, their ids carved from
// one backing array. A non-empty deferred set (FORM-NEW-GROUP) is resolved
// on a scratch grouper fed the deferred points in order: Finish's first
// recursion round processes exactly those points against an empty group
// universe, so the scratch run reproduces the recursion without touching
// this grouper's state. (Only FORM-NEW-GROUP defers points, and that mode
// never consults opt.Rand, so the scratch run has no side effects.)
func (g *AllGrouper) Snapshot() (*Result, error) {
	if g.finished {
		return nil, fmt.Errorf("core: Snapshot after Finish")
	}
	res := &Result{Stats: g.stats}
	res.Stats.Rounds = 1
	g.collect(res)
	dropped := append([]int(nil), g.dropped...)
	if len(g.deferred) > 0 {
		sub, err := NewAllGrouper(g.opt)
		if err != nil {
			return nil, err
		}
		for _, id := range g.deferred {
			if _, err := sub.Add(g.point(id)); err != nil {
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
	p := g.point(id)
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
		g.processOverlap(p)
	}
}

// findAllPairs is Naive FindCloseGroupsALL (Procedure 2): evaluate the
// similarity predicate between p and every previously grouped point.
func (g *AllGrouper) findAllPairs(p geom.Point) {
	joinAny := g.opt.Overlap == JoinAny
	for gid := g.round; gid < len(g.rects); gid++ {
		if g.rects[gid].Len() == 0 {
			continue
		}
		// Under JOIN-ANY the overlap verdict is never consulted, so the
		// scan stops at the first violation; otherwise every member is
		// evaluated, as Procedure 2's naive scan does.
		candidate, overlap := g.scan(gid, p, false, joinAny)
		switch {
		case candidate:
			g.candidates = append(g.candidates, gid)
		case !joinAny && overlap:
			g.overlaps = append(g.overlaps, gid)
		}
	}
}

// scan evaluates the similarity predicate between p and the members of group
// gid in insertion order, one geom.Within call per member. allIn reports
// whether every member scanned qualifies, anyIn whether at least one does. The
// scan stops at the first qualifying member when stopIn is set, and at the
// first violating one when stopOut is.
func (g *AllGrouper) scan(gid int, p geom.Point, stopIn, stopOut bool) (allIn, anyIn bool) {
	allIn = true
	for i, m := g.rects[gid].Len(), g.head[gid]; i > 0; i, m = i-1, g.next[m] {
		g.stats.DistanceComps++
		if geom.Within(g.opt.Metric, p, g.point(m), g.opt.Eps) {
			anyIn = true
		} else {
			allIn = false
		}
		if (stopIn && anyIn) || (stopOut && !allIn) {
			return
		}
	}
	return
}

// findBounds is Bounds-Checking FindCloseGroups (Procedure 4): the ε-All
// rectangle decides candidacy in constant time per group (exactly under L∞,
// as a conservative filter refined by Procedure 6 under L2).
func (g *AllGrouper) findBounds(p geom.Point) {
	for gid := g.round; gid < len(g.rects); gid++ {
		g.classify(gid, p)
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
			g.classify(g.round+i, p)
		}
		return
	}
	g.block = g.regions.Block(p, g.block[:0])
	for _, i := range g.block {
		g.classify(g.round+i, p)
	}
	// Their candidates' order is never read, but FORM-NEW-GROUP defers the
	// members processOverlap pulls out in overlap order, which the linear
	// scan makes ascending.
	slices.Sort(g.overlaps)
}

// classify runs the per-group tests of Procedures 4 and 5 on group gid: the
// ε-All rectangle test, refined by qualifies, makes it a candidate; otherwise,
// unless the clause is JOIN-ANY, the overlap rectangle test and a member scan
// make it an overlap group. Emptied groups are skipped.
func (g *AllGrouper) classify(gid int, p geom.Point) {
	r := &g.rects[gid]
	if r.Len() == 0 {
		return
	}
	joinAny := g.opt.Overlap == JoinAny
	g.stats.RectTests++
	if r.ContainsPoint(p) {
		if g.qualifies(gid, p) {
			g.candidates = append(g.candidates, gid)
			return
		}
		// An L2 false positive of the rectangle filter can still
		// partially overlap the group.
		if !joinAny && g.anyWithin(gid, p) {
			g.overlaps = append(g.overlaps, gid)
		}
		return
	}
	if joinAny {
		return
	}
	// OverlapRectangleTest: p can only be within ε of some member if it is
	// within ε of the member MBR.
	g.stats.RectTests++
	if r.Reaches(p) && g.anyWithin(gid, p) {
		g.overlaps = append(g.overlaps, gid)
	}
}

// qualifies refines a positive ε-All rectangle test into an exact membership
// decision. Under L∞ (and in 1-D, where the metrics coincide) the rectangle
// is exact. Under 2-D L2 the convex hull test (Procedure 6) is used: a point
// inside the hull is within ε of all members, and otherwise the hull vertex
// farthest from p bounds the farthest member. Other dimensionalities fall
// back to an exact member scan, stopping at the first violation.
func (g *AllGrouper) qualifies(gid int, p geom.Point) bool {
	if g.opt.Metric == geom.LInf || g.dim == 1 {
		return true
	}
	if g.useHull {
		h := g.hulls[gid]
		g.stats.HullTests++
		if h.Contains(p) {
			return true
		}
		// Farthest-vertex bound, evaluated sqrt-free: every vertex within ε
		// (squared-distance compare under L2, early exit) iff the farthest
		// vertex is. Counted as one comparison like the Farthest sweep it
		// replaces.
		g.stats.DistanceComps++
		return h.AllWithin(g.opt.Metric, p, g.opt.Eps)
	}
	all, _ := g.scan(gid, p, false, true)
	return all
}

// anyWithin reports whether any member of group gid satisfies the predicate
// with p, stopping at the first hit.
func (g *AllGrouper) anyWithin(gid int, p geom.Point) bool {
	_, any := g.scan(gid, p, true, false)
	return any
}

func (g *AllGrouper) newGroup(id int) {
	p := g.point(id)
	gid := len(g.rects)
	g.rects = append(g.rects, geom.MakeEpsRect(g.carve(2*g.dim), g.opt.Eps))
	g.rects[gid].Add(p)
	g.head = append(g.head, id)
	g.tail = append(g.tail, id)
	if g.useHull {
		g.hulls = append(g.hulls, hull.NewIncremental(p))
	}
	g.register(gid)
}

// register records group gid's candidate region in Groups_IX under its
// position in the round.
func (g *AllGrouper) register(gid int) {
	if g.regions != nil {
		g.regions.Register(g.rects[gid].MBR(), gid-g.round)
		g.stats.IndexUpdates++
	}
}

// insert is ProcessInsert: add the point and shrink the ε-All rectangle.
// The group's registration is left untouched — it only ever needs to cover
// the live region, and insertions only shrink it.
func (g *AllGrouper) insert(gid, id int) {
	p := g.point(id)
	g.next[g.tail[gid]] = id
	g.tail[gid] = id
	g.rects[gid].Add(p)
	if g.useHull {
		g.hulls[gid].Add(p)
	}
}

// processOverlap is ProcessOverlap (Procedure 1, line 5): the members of
// each partially overlapping group that satisfy the predicate with p are
// pulled out — discarded under ELIMINATE, diverted to S′ under
// FORM-NEW-GROUP — and the group's summaries are rebuilt.
func (g *AllGrouper) processOverlap(p geom.Point) {
	out := &g.dropped
	if g.opt.Overlap == FormNewGroup {
		out = &g.deferred
	}
	for _, gid := range g.overlaps {
		// Partition the members by one Within call each. The keep compaction
		// is in place: its write index never passes the read index.
		g.members = g.appendMembers(g.members[:0], gid)
		before := len(*out)
		keep := g.members[:0]
		for _, m := range g.members {
			g.stats.DistanceComps++
			if geom.Within(g.opt.Metric, p, g.point(m), g.opt.Eps) {
				*out = append(*out, m)
			} else {
				keep = append(keep, m)
			}
		}
		if len(*out) > before {
			g.rebuildGroup(gid, keep)
		}
	}
}

// rebuildGroup relinks group gid to the members keep and recomputes its
// rectangle and hull. The ε-All rectangle can legitimately grow, so
// the group is registered again: Register adds the cells the region grew
// into, and the cells it left keep a stale entry that the rectangle test
// turns away.
func (g *AllGrouper) rebuildGroup(gid int, keep []int) {
	g.pts = g.pts[:0]
	for i, m := range keep {
		if i > 0 {
			g.next[keep[i-1]] = m
		}
		g.pts = append(g.pts, g.point(m))
	}
	g.rects[gid].Rebuild(g.pts)
	if len(keep) == 0 {
		// Unreachable while the ε-All rectangle test never rejects a point
		// geom.Within accepts against every member (see geom.EpsRect): an
		// overlap group then keeps the member p is not within ε of. Should
		// an ε whose square under- or overflows break that, the emptied
		// group stays behind inert: every find path skips it and Finish
		// drops it.
		return
	}
	g.head[gid], g.tail[gid] = keep[0], keep[len(keep)-1]
	if g.useHull {
		g.hulls[gid].Rebuild(g.pts)
	}
	g.register(gid)
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
