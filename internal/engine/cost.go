package engine

import "math"

// This file is the planner's row estimator. Every physical operator embeds a
// planEst and exposes EstRows(); estimateTree stamps the whole tree
// bottom-up from the statistics catalog (stats.go). No planning decision
// reads the estimates: EXPLAIN prints them, and the SGB operator sizes its
// grouper's storage from its own (sgbAggOp.group), which changes no answer.

// planEst holds an operator's planner estimate. Every physical operator
// embeds one; estimateTree fills it in and EXPLAIN renders it.
type planEst struct {
	estRows float64
	estDone bool
}

// EstRows is the estimated output cardinality.
func (e *planEst) EstRows() float64 { return e.estRows }

func (e *planEst) setEst(rows float64) {
	e.estRows, e.estDone = rows, true
}

func (e *planEst) estimated() bool { return e.estDone }

// estimator is implemented by every operator carrying a planner estimate.
type estimator interface {
	EstRows() float64
	estimated() bool
	setEst(rows float64)
}

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

// estimateTree computes (and stamps) row estimates for op's subtree,
// returning op's own. The planner calls it once, on the final root.
func (pc *planContext) estimateTree(op operator) float64 {
	var rows float64
	switch op := op.(type) {
	case *scanOp:
		rows = float64(len(op.table.Rows))

	case *indexScanOp:
		n := float64(len(op.table.Rows))
		rows = n / 10
		if s := op.table.Stats; s.Fresh() {
			if i, err := op.table.Schema.Resolve("", op.ix.Column); err == nil {
				if c := s.Col(i); c != nil && c.DistinctEst > 0 {
					rows = n / float64(c.DistinctEst)
				}
			}
		}
		rows = clampEst(rows, 0, n)

	case *valuesOp:
		rows = float64(len(op.rows))

	case *renameOp:
		rows = pc.estimateTree(op.child)

	case *filterOp:
		rows = pc.estimateTree(op.child) * pc.selectivity(op.srcExpr, op.child)

	case *projectOp:
		rows = pc.estimateTree(op.child)

	case *hashJoinOp:
		// Foreign-key-ish heuristic: an equi-join rarely exceeds the larger
		// input when keys are near-unique on one side.
		rows = math.Max(pc.estimateTree(op.left), pc.estimateTree(op.right))

	case *crossJoinOp:
		rows = pc.estimateTree(op.left) * pc.estimateTree(op.right)

	case *sortOp:
		rows = pc.estimateTree(op.child)

	case *limitOp:
		rows = math.Max(pc.estimateTree(op.child)-float64(op.offset), 0)
		if op.n >= 0 {
			rows = math.Min(rows, float64(op.n))
		}

	case *distinctOp:
		rows = pc.estimateTree(op.child)

	case *hashAggOp:
		rows = pc.estGroups(op.astGroups, op.child, pc.estimateTree(op.child))

	case *sgbAggOp:
		rows = sgbGroups(op.child, &op.spec, pc.estimateTree(op.child))

	default:
		// Unknown operator (tests may wrap operators): pass through zero.
		return 0
	}
	op.(estimator).setEst(rows)
	return rows
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

// sgbGroups estimates how many groups a similarity aggregation forms over
// the n input points of child: how many ε-sized clusters the data sustains,
// from the density sketch's occupied area. Without fresh statistics it falls
// back to a fixed fraction.
func sgbGroups(child operator, spec *SimilaritySpec, n float64) float64 {
	var g float64
	if t := underlyingTable(child); t != nil && t.Stats.Fresh() && t.Stats.Sketch != nil {
		if occ, area := t.Stats.Sketch.OccupiedArea(), neighborArea(spec.Metric, spec.Eps); occ > 0 && area > 0 {
			g = occ / area
		}
	}
	if g <= 0 {
		g = n / 4
	}
	return clampEst(g, 1, math.Max(n, 1))
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
