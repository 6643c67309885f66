package engine

import (
	"math"

	"sgb/internal/core"
)

// This file is the planner's cost model. Every physical operator embeds a
// planEst and exposes Cost()/EstRows(); estimateTree stamps the whole tree
// bottom-up from the statistics catalog (stats.go). The SGB cost formulas
// follow the paper's complexity analysis — All-Pairs O(n·g), Bounds-Checking
// O(n·g) rectangle tests plus O(n·k) distances — and, for the on-the-fly
// Index, what its ε-grids count: a flat probe per point, plus O(n·k)
// distances under SGB-All. One cost unit is one distance computation (≈ 10 ns
// on the reference host when the constants were first calibrated against
// the wall-clock probe snapshot committed with this cost model, now in git
// history).
const (
	// costScanRow is the per-row cost of producing a stored row from a scan.
	costScanRow = 0.5
	// costPredEval is the per-row cost of evaluating one compiled expression.
	costPredEval = 1.0
	// costHashRow is the per-row cost of hashing into a join or group table.
	costHashRow = 2.0
	// costCompare is the per-comparison cost of sorting.
	costCompare = 0.5
	// costDistComp is the cost of one point-to-point distance computation —
	// the unit the SGB constants below are expressed in.
	costDistComp = 1.0
	// costRectTest is one bounds-checking rectangle (MBR) containment test:
	// cheaper than a distance because it short-circuits per dimension.
	costRectTest = 0.7
	// costWindowQuery is one SGB-All point through its on-the-fly index, the
	// ε-grid of group regions: hash the point's cell (JOIN-ANY) or gather its
	// 3^d-cell block, plus its share of registering new groups in their cells.
	// Measured against geom.Within on serve_read's input (5000 check-ins,
	// L∞, ε = 0.05): an own-cell probe costs 1.6 distance comps, a block
	// about nine times that, and registering one group 54; check-ins found
	// 0.1–0.2 groups per point, so a point costs 7–30 units.
	costWindowQuery = 16.0
	// costRegionTests is how many registered groups one such probe
	// rect-tests: 0.2–7.4 per point under JOIN-ANY, which tests p's own cell,
	// and 0.9–18.7 under the other clauses, which test its block, across
	// 200–5000 check-ins at ε 0.01–1, L∞ and L2; the median is about 4.
	costRegionTests = 4.0
	// costGridProbe is one SGB-Any point through its on-the-fly point index,
	// the ε-grid: hash the point's cell, join it, enumerate the ε-block and
	// search the few cells not yet in the point's component. The grid counts
	// one window query per point and 0.1–0.4 verified pairs per point on
	// clustered data whatever the ε-neighbour count k, so the curve is linear
	// in n and has no k term. The constant is fitted in this model's own
	// units: it puts the break-even with All-Pairs (0.5·n² units) at the
	// measured n ≈ 300 (check-ins, ε = 0.25: n = 256 All-Pairs 95 µs vs
	// index 116 µs; n = 1024, 1293 µs vs 434 µs).
	costGridProbe = 150.0
)

// planEst holds an operator's planner estimates. Every physical operator
// embeds one; estimateTree fills it in and EXPLAIN renders it.
type planEst struct {
	estRows float64
	estCost float64
	estDone bool
}

// EstRows is the estimated output cardinality.
func (e *planEst) EstRows() float64 { return e.estRows }

// Cost is the estimated total cost of running the operator to completion,
// including its children.
func (e *planEst) Cost() float64 { return e.estCost }

func (e *planEst) setEst(rows, cost float64) {
	e.estRows, e.estCost, e.estDone = rows, cost, true
}

// costed is implemented by every operator carrying planner estimates.
type costed interface {
	EstRows() float64
	Cost() float64
	estimated() bool
}

func (e *planEst) estimated() bool { return e.estDone }

// underlyingTable walks a predicate-only pipeline down to its base table, the
// source of the statistics the selectivity and SGB estimators consume. It
// stops at anything that re-layouts or re-sources rows (projections, joins,
// subqueries), where positional column mapping to the base table breaks.
func underlyingTable(op operator) *Table {
	for {
		switch o := op.(type) {
		case *scanOp:
			return o.table
		case *indexScanOp:
			return o.table
		case *filterOp:
			op = o.child
		case *limitOp:
			op = o.child
		default:
			return nil
		}
	}
}

// estimateTree computes (and stamps) rows/cost estimates for op's subtree,
// returning op's own. It is idempotent: the analyzer calls it on subtrees
// mid-planning (SGB algorithm selection needs the input cardinality before
// the aggregation operator exists) and once more on the final root.
func (pc *planContext) estimateTree(op operator) (rows, cost float64) {
	switch op := op.(type) {
	case *scanOp:
		n := float64(len(op.table.Rows))
		op.setEst(n, n*costScanRow)

	case *indexScanOp:
		n := float64(len(op.table.Rows))
		out := n / 10
		if s := op.table.Stats; s.Fresh() {
			if i, err := op.table.Schema.Resolve("", op.ix.Column); err == nil {
				if c := s.Col(i); c != nil && c.DistinctEst > 0 {
					out = n / float64(c.DistinctEst)
				}
			}
		}
		out = clampEst(out, 0, n)
		op.setEst(out, out*costScanRow)

	case *valuesOp:
		n := float64(len(op.rows))
		op.setEst(n, n*costScanRow)

	case *renameOp:
		r, c := pc.estimateTree(op.child)
		op.setEst(r, c)

	case *filterOp:
		r, c := pc.estimateTree(op.child)
		sel := pc.selectivity(op.srcExpr, op.child)
		op.setEst(r*sel, c+r*costPredEval)

	case *projectOp:
		r, c := pc.estimateTree(op.child)
		op.setEst(r, c+r*float64(len(op.fns))*costPredEval)

	case *hashJoinOp:
		lr, lc := pc.estimateTree(op.left)
		rr, rc := pc.estimateTree(op.right)
		// Foreign-key-ish heuristic: an equi-join rarely exceeds the larger
		// input when keys are near-unique on one side.
		out := math.Max(lr, rr)
		op.setEst(out, lc+rc+(lr+rr)*costHashRow)

	case *crossJoinOp:
		lr, lc := pc.estimateTree(op.left)
		rr, rc := pc.estimateTree(op.right)
		out := lr * rr
		op.setEst(out, lc+rc+out*costScanRow)

	case *sortOp:
		r, c := pc.estimateTree(op.child)
		op.setEst(r, c+r*math.Log2(r+2)*costCompare)

	case *limitOp:
		r, c := pc.estimateTree(op.child)
		consumed := r
		out := math.Max(r-float64(op.offset), 0)
		if op.n >= 0 {
			out = math.Min(out, float64(op.n))
			consumed = math.Min(r, float64(op.n+op.offset))
		}
		// A limit stops pulling once satisfied, so it pays only the consumed
		// fraction of a streaming child's cost. (Blocking children — sorts,
		// aggregations — still pay in full; the fraction is a best case.)
		frac := 1.0
		if r > 0 {
			frac = consumed / r
		}
		op.setEst(out, c*frac)

	case *distinctOp:
		r, c := pc.estimateTree(op.child)
		op.setEst(r, c+r*costHashRow)

	case *hashAggOp:
		r, c := pc.estimateTree(op.child)
		groups := pc.estGroups(op.astGroups, op.child, r)
		op.setEst(groups, c+r*costHashRow+groups*math.Log2(groups+2)*costCompare)

	case *sgbAggOp:
		r, c := pc.estimateTree(op.child)
		n, g, k := pc.sgbShape(op.child, &op.spec)
		groupCost := sgbCost(op.spec.Mode, op.algorithm, n, g, k)
		op.setEst(g, c+r*costHashRow+groupCost)

	default:
		// Unknown operator (tests may wrap operators): pass through zero.
		return 0, 0
	}
	co := op.(costed)
	return co.EstRows(), co.Cost()
}

// estGroups estimates a hash aggregation's group count: 1 for a global
// aggregate, the product of the grouping columns' distinct counts when fresh
// statistics resolve them, else a fixed-fanout guess.
func (pc *planContext) estGroups(groupExprs []Expr, child operator, inRows float64) float64 {
	if len(groupExprs) == 0 {
		return 1
	}
	t := underlyingTable(child)
	distinct := 1.0
	known := false
	if t != nil && t.Stats.Fresh() {
		sch := child.schema()
		for _, g := range groupExprs {
			ref, ok := g.(*ColumnRef)
			if !ok {
				known = false
				break
			}
			i, err := sch.Resolve(ref.Table, ref.Name)
			if err != nil {
				known = false
				break
			}
			c := t.Stats.Col(i)
			if c == nil || c.DistinctEst <= 0 {
				known = false
				break
			}
			distinct *= float64(c.DistinctEst)
			known = true
		}
	}
	if !known {
		distinct = inRows / 3
	}
	return clampEst(distinct, 1, math.Max(inRows, 1))
}

// sgbShape estimates the three quantities the SGB cost formulas need for a
// similarity aggregation over child: n (input points), g (groups — how many
// ε-sized clusters the data sustains, from the density sketch's occupied
// area), and k (expected ε-neighbors per point, from the sketch's density
// moment). Without fresh statistics it falls back to fixed fractions, which
// deterministically keep tiny inputs on All-Pairs and large ones on the
// index — the paper's qualitative regimes.
func (pc *planContext) sgbShape(child operator, spec *SimilaritySpec) (n, g, k float64) {
	n, _ = pc.estimateTree(child)
	area := neighborArea(spec.Metric, spec.Eps)
	if t := underlyingTable(child); t != nil && t.Stats.Fresh() && t.Stats.Sketch != nil {
		sk := t.Stats.Sketch
		scale := 1.0
		if sk.N > 0 {
			scale = n / float64(sk.N)
		}
		k = sk.ExpectedNeighbors(area) * scale
		if occ := sk.OccupiedArea(); occ > 0 && area > 0 {
			g = occ / area
		}
	}
	if g <= 0 {
		g = n / 4
	}
	g = clampEst(g, 1, math.Max(n, 1))
	if k <= 0 {
		k = 4
	}
	k = clampEst(k, 0, math.Max(n, 1))
	return n, g, k
}

// sgbCost is the grouping cost of one SGB execution, per physical algorithm.
// The formulas mirror the operators' actual counters: All-Pairs compares
// every point against every group, Bounds-Checking filters those comparisons
// through per-group MBR rectangle tests, and both on-the-fly indexes are
// ε-grids that pay a flat probe per point — SGB-All's plus the rect tests of
// the groups registered where it probes and, like Bounds-Checking, the
// distance comparisons against the k neighbors.
func sgbCost(mode SGBMode, alg core.Algorithm, n, g, k float64) float64 {
	if mode == SGBAnyMode {
		// SGB-Any merges groups transitively: All-Pairs degenerates to
		// point-vs-point comparison (n²/2); Bounds-Checking has no Any
		// variant and executes as the index (see sgbAggOp.groupSerial).
		if alg == core.AllPairs {
			return 0.5 * n * n * costDistComp
		}
		return n * costGridProbe
	}
	switch alg {
	case core.AllPairs:
		return n * g * costDistComp
	case core.BoundsChecking:
		return n*g*costRectTest + n*k*costDistComp
	default: // core.IndexBounds
		return n*(costWindowQuery+costRegionTests*costRectTest) + n*k*costDistComp
	}
}

// resolveSGBAlgorithm picks the physical SGB algorithm for one aggregation:
// the session's explicit \alg override when set, otherwise the cost-minimal
// candidate under the statistics catalog. With the optimizer disabled, auto
// resolves to the engine default (the on-the-fly index).
func (pc *planContext) resolveSGBAlgorithm(child operator, spec *SimilaritySpec) (core.Algorithm, bool) {
	if !pc.qc.algorithmAuto() {
		return pc.qc.algorithm(), false
	}
	if !pc.qc.optimize() {
		return core.IndexBounds, true
	}
	n, g, k := pc.sgbShape(child, spec)
	candidates := []core.Algorithm{core.AllPairs, core.IndexBounds}
	if spec.Mode == SGBAllMode {
		candidates = append(candidates, core.BoundsChecking)
	}
	best := core.IndexBounds
	bestCost := math.Inf(1)
	for _, a := range candidates {
		if c := sgbCost(spec.Mode, a, n, g, k); c < bestCost {
			best, bestCost = a, c
		}
	}
	pc.ruleApplied("sgb_algorithm_selection")
	return best, true
}

// selectivity estimates the fraction of rows a predicate passes, using fresh
// column statistics when the expression resolves onto the child's base table
// and conservative constants otherwise.
func (pc *planContext) selectivity(e Expr, child operator) float64 {
	if e == nil {
		return 1
	}
	switch e := e.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "AND":
			return pc.selectivity(e.L, child) * pc.selectivity(e.R, child)
		case "OR":
			l, r := pc.selectivity(e.L, child), pc.selectivity(e.R, child)
			return math.Min(l+r-l*r, 1)
		case "=":
			return pc.eqSelectivity(e, child)
		case "<>":
			return 1 - pc.eqSelectivity(e, child)
		case "<", "<=", ">", ">=":
			return pc.rangeSelectivity(e, child)
		}
	case *UnaryExpr:
		if e.Op == "NOT" {
			return 1 - pc.selectivity(e.X, child)
		}
	case *InList:
		s := math.Min(float64(len(e.Items))*0.1, 1)
		if e.Not {
			return 1 - s
		}
		return s
	}
	return 1.0 / 3
}

// colStatsFor resolves a column reference against the child schema onto its
// base table's statistics. Predicate-only pipelines preserve the base table's
// column layout, so the schema position doubles as the stats index.
func colStatsFor(ref *ColumnRef, child operator) *ColumnStats {
	t := underlyingTable(child)
	if t == nil || !t.Stats.Fresh() {
		return nil
	}
	i, err := child.schema().Resolve(ref.Table, ref.Name)
	if err != nil || i >= len(t.Schema) {
		return nil
	}
	return t.Stats.Col(i)
}

// splitColConst decomposes a comparison into (column, constant) regardless of
// which side the column is on; ok is false when neither side qualifies.
func splitColConst(e *BinaryExpr) (ref *ColumnRef, c Expr, flipped, ok bool) {
	if r, isCol := e.L.(*ColumnRef); isCol && isConstExpr(e.R) {
		return r, e.R, false, true
	}
	if r, isCol := e.R.(*ColumnRef); isCol && isConstExpr(e.L) {
		return r, e.L, true, true
	}
	return nil, nil, false, false
}

func constFloat(e Expr) (float64, bool) {
	fn, err := compileExpr(e, nil, nil)
	if err != nil {
		return 0, false
	}
	v, err := fn(nil)
	if err != nil || v.IsNull() {
		return 0, false
	}
	f, err := v.AsFloat()
	if err != nil {
		return 0, false
	}
	return f, true
}

func (pc *planContext) eqSelectivity(e *BinaryExpr, child operator) float64 {
	ref, _, _, ok := splitColConst(e)
	if !ok {
		return 0.1
	}
	if cs := colStatsFor(ref, child); cs != nil && cs.DistinctEst > 0 {
		return 1 / float64(cs.DistinctEst)
	}
	return 0.1
}

// rangeSelectivity interpolates a one-sided range predicate's selectivity
// within the column's [min, max] under a uniformity assumption.
func (pc *planContext) rangeSelectivity(e *BinaryExpr, child operator) float64 {
	ref, c, flipped, ok := splitColConst(e)
	if !ok {
		return 1.0 / 3
	}
	cs := colStatsFor(ref, child)
	if cs == nil || !cs.HasRange || cs.Max <= cs.Min {
		return 1.0 / 3
	}
	v, ok := constFloat(c)
	if !ok {
		return 1.0 / 3
	}
	frac := (v - cs.Min) / (cs.Max - cs.Min)
	frac = clampEst(frac, 0, 1)
	op := e.Op
	if flipped { // const OP col ≡ col flip(OP) const
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "<", "<=":
		return frac
	default: // ">", ">="
		return 1 - frac
	}
}

func clampEst(v, lo, hi float64) float64 {
	if math.IsNaN(v) || v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
