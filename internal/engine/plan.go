package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// planContext carries the catalog and SGB configuration through planning,
// and collects the SGB physical operators so their cost counters can be
// inspected after execution.
type planContext struct {
	db     *DB
	sgbOps []*sgbAggOp
	// qc is the executing statement's query context; the planner stamps it
	// into every operator it builds so cancellation and row limits reach the
	// whole tree, including subquery plans. nil for plan-only contexts
	// (view validation).
	qc *queryCtx
	// viewDepth guards against self-referential view definitions.
	viewDepth int
	// applied lists the analyzer rules that changed this statement's plan,
	// in application order (see analyzer.go).
	applied []string
}

// run plans and fully executes a SELECT, returning its rows and schema.
func (pc *planContext) run(stmt *SelectStmt) ([]Row, Schema, error) {
	op, err := pc.planSelect(stmt)
	if err != nil {
		return nil, nil, err
	}
	rows, err := materialize(op, pc.qc)
	if err != nil {
		return nil, nil, err
	}
	return rows, op.schema(), nil
}

// renameOp re-qualifies a child's schema under a derived-table alias.
type renameOp struct {
	planEst
	child operator
	sch   Schema
}

func (r *renameOp) schema() Schema     { return r.sch }
func (r *renameOp) open() error        { return r.child.open() }
func (r *renameOp) next() (Row, error) { return r.child.next() }
func (r *renameOp) close() error       { return r.child.close() }
func (r *renameOp) stableRows() bool   { return r.child.stableRows() }

// planSelect plans a SELECT statement: the analyzer's AST rules rewrite the
// statement (copy-on-write), lowerSelect produces the operator tree —
// sources → pushed-down filters → left-deep (hash) joins → residual filter →
// aggregation (standard or SGB) → HAVING → projection → ORDER BY → LIMIT —
// and the analyzer's tree rules plus the row estimator finish the plan.
func (pc *planContext) planSelect(stmt *SelectStmt) (operator, error) {
	stmt = pc.rewriteStmt(stmt)
	out, err := pc.lowerSelect(stmt)
	if err != nil {
		return nil, err
	}
	return pc.optimizeTree(out), nil
}

// lowerSelect is the statement-to-operator-tree lowering.
func (pc *planContext) lowerSelect(stmt *SelectStmt) (operator, error) {
	if len(stmt.Select) == 0 {
		return nil, fmt.Errorf("engine: empty SELECT list")
	}

	// FROM sources.
	var sources []operator
	for _, item := range stmt.From {
		var src operator
		switch {
		case item.Subquery != nil:
			sub, err := pc.planSelect(item.Subquery)
			if err != nil {
				return nil, err
			}
			src = &renameOp{child: sub, sch: sub.schema().Qualify(item.Alias)}
		default:
			// A view of either kind is re-planned over its base tables. (A
			// materialized view's incrementally maintained group state serves
			// SUBSCRIBE streams; one-shot queries recompute, keeping the two
			// paths independently checkable against each other.)
			if view, ok := pc.db.cat.View(item.Table); ok {
				if pc.viewDepth >= 16 {
					return nil, fmt.Errorf("engine: view nesting too deep (cycle through %q?)", item.Table)
				}
				pc.viewDepth++
				sub, err := pc.planSelect(view.Query)
				pc.viewDepth--
				if err != nil {
					return nil, fmt.Errorf("engine: view %s: %w", item.Table, err)
				}
				src = &renameOp{child: sub, sch: sub.schema().Qualify(item.Alias)}
				break
			}
			t, err := pc.db.cat.Get(item.Table)
			if err != nil {
				return nil, err
			}
			src = newScanOp(t, item.Alias, pc.qc)
		}
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		sources = []operator{singleRowOp()}
	}

	conjuncts := splitConjuncts(stmt.Where)

	// Analyzer rule index_scan_selection: convert sequential scans with
	// indexed equality predicates into index scans before pushing the
	// remaining predicates down. Skipped without the optimizer (the seq scan
	// plus the pushed-down predicate is the equivalent naive plan).
	if pc.qc.optimize() {
		applied := false
		for i, src := range sources {
			before := len(conjuncts)
			sources[i], conjuncts = tryIndexScan(src, conjuncts)
			applied = applied || len(conjuncts) != before
		}
		if applied {
			pc.ruleApplied("index_scan_selection")
		}
	}

	// Analyzer rule predicate_pushdown: push single-source predicates below
	// the joins. This rule runs even with the optimizer disabled — it is
	// semantic, not just a speedup: a conjunct is compiled against the single
	// source it resolves on, where the same column name compiled against the
	// joined schema would be rejected as ambiguous.
	pushed := false
	for i, src := range sources {
		var rest []Expr
		for _, c := range conjuncts {
			if refsResolvable(c, src.schema()) {
				pred, err := compileExpr(c, src.schema(), pc)
				if err != nil {
					return nil, err
				}
				sources[i] = &filterOp{child: sources[i], pred: pred, srcExpr: c, qc: pc.qc}
				pushed = true
			} else {
				rest = append(rest, c)
			}
		}
		conjuncts = rest
	}
	if pushed && len(stmt.From) > 1 {
		pc.ruleApplied("predicate_pushdown")
	}

	// Left-deep join tree, preferring hash joins on equi-predicates. Analyzer
	// rule prune_join_columns narrows each join's output to the columns
	// something above it reads (see joinRefs).
	cur := sources[0]
	prunedJoin := false
	for _, next := range sources[1:] {
		var leftKeys, rightKeys []operand
		var rest []Expr
		for _, c := range conjuncts {
			be, ok := c.(*BinaryExpr)
			if ok && be.Op == "=" {
				switch {
				case refsResolvable(be.L, cur.schema()) && refsResolvable(be.R, next.schema()):
					lf, err := compileOperand(be.L, cur.schema(), pc)
					if err != nil {
						return nil, err
					}
					rf, err := compileOperand(be.R, next.schema(), pc)
					if err != nil {
						return nil, err
					}
					leftKeys = append(leftKeys, lf)
					rightKeys = append(rightKeys, rf)
					continue
				case refsResolvable(be.R, cur.schema()) && refsResolvable(be.L, next.schema()):
					lf, err := compileOperand(be.R, cur.schema(), pc)
					if err != nil {
						return nil, err
					}
					rf, err := compileOperand(be.L, next.schema(), pc)
					if err != nil {
						return nil, err
					}
					leftKeys = append(leftKeys, lf)
					rightKeys = append(rightKeys, rf)
					continue
				}
			}
			rest = append(rest, c)
		}
		conjuncts = rest
		refs := pc.joinRefs(stmt, rest)
		inWidth := len(cur.schema()) + len(next.schema())
		if len(leftKeys) > 0 {
			cur = newHashJoinOp(cur, next, leftKeys, rightKeys, refs, pc.qc)
		} else {
			cur = newCrossJoinOp(cur, next, refs, pc.qc)
		}
		prunedJoin = prunedJoin || len(cur.schema()) < inWidth
		// Predicates that became resolvable over the joined schema apply
		// here rather than at the top, keeping cross joins small.
		var still []Expr
		for _, c := range conjuncts {
			if refsResolvable(c, cur.schema()) {
				pred, err := compileExpr(c, cur.schema(), pc)
				if err != nil {
					return nil, err
				}
				cur = &filterOp{child: cur, pred: pred, srcExpr: c, qc: pc.qc}
			} else {
				still = append(still, c)
			}
		}
		conjuncts = still
	}
	if prunedJoin {
		pc.ruleApplied("prune_join_columns")
	}
	for _, c := range conjuncts {
		pred, err := compileExpr(c, cur.schema(), pc)
		if err != nil {
			return nil, err
		}
		cur = &filterOp{child: cur, pred: pred, srcExpr: c, qc: pc.qc}
	}

	// Aggregation path?
	hasAggs := stmt.GroupBy != nil || stmt.Having != nil
	for _, it := range stmt.Select {
		if !it.Star && containsAggregate(it.Expr) {
			hasAggs = true
		}
	}

	// ORDER BY expressions reference the pre-projection row; select-list
	// aliases are substituted by their defining expressions first.
	orderBy := make([]OrderItem, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		orderBy[i] = OrderItem{Expr: substAliases(o.Expr, stmt.Select), Desc: o.Desc}
	}

	var out operator
	if hasAggs {
		op, err := pc.planAggregate(stmt, cur, orderBy)
		if err != nil {
			return nil, err
		}
		out = op
	} else {
		if len(orderBy) > 0 {
			s, err := pc.buildSort(cur, orderBy, cur.schema(), nil)
			if err != nil {
				return nil, err
			}
			cur = s
		}
		op, _, err := pc.planProjection(stmt.Select, cur)
		if err != nil {
			return nil, err
		}
		out = op
	}
	if stmt.Distinct {
		out = &distinctOp{child: out}
	}
	if stmt.Offset > 0 || stmt.Limit >= 0 {
		out = &limitOp{child: out, n: stmt.Limit, offset: stmt.Offset, qc: pc.qc}
	}
	return out, nil
}

// substAliases replaces unqualified column references that name a SELECT
// alias with the aliased expression (the SQL ORDER BY alias rule).
func substAliases(e Expr, items []SelectItem) Expr {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Table == "" {
			for _, it := range items {
				if it.Alias != "" && strings.EqualFold(it.Alias, e.Name) {
					return it.Expr
				}
			}
		}
		return e
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: substAliases(e.X, items)}
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: substAliases(e.L, items), R: substAliases(e.R, items)}
	case *FuncCall:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = substAliases(a, items)
		}
		return &FuncCall{Name: e.Name, Args: args, Star: e.Star, Distinct: e.Distinct}
	case *InList:
		its := make([]Expr, len(e.Items))
		for i, a := range e.Items {
			its[i] = substAliases(a, items)
		}
		return &InList{X: substAliases(e.X, items), Items: its, Not: e.Not}
	case *InSubquery:
		return &InSubquery{X: substAliases(e.X, items), Query: e.Query, Not: e.Not}
	case *ScalarSubquery:
		return e
	case *CaseExpr:
		out := &CaseExpr{Whens: make([]WhenClause, len(e.Whens))}
		if e.Operand != nil {
			out.Operand = substAliases(e.Operand, items)
		}
		for i, w := range e.Whens {
			out.Whens[i] = WhenClause{Cond: substAliases(w.Cond, items), Result: substAliases(w.Result, items)}
		}
		if e.Else != nil {
			out.Else = substAliases(e.Else, items)
		}
		return out
	}
	return e
}

// buildSort compiles ORDER BY items against a schema (optionally routing
// them through an aggregation rewriter) and stacks a sort operator.
func (pc *planContext) buildSort(child operator, orderBy []OrderItem, sch Schema, rw *aggRewriter) (operator, error) {
	keys := make([]evalFn, len(orderBy))
	desc := make([]bool, len(orderBy))
	for i, o := range orderBy {
		e := o.Expr
		if rw != nil {
			var err error
			if e, err = rw.rewrite(e); err != nil {
				return nil, fmt.Errorf("engine: ORDER BY: %w", err)
			}
		}
		f, err := compileExpr(e, sch, pc)
		if err != nil {
			return nil, fmt.Errorf("engine: ORDER BY: %w", err)
		}
		keys[i], desc[i] = f, o.Desc
	}
	return &sortOp{child: child, keys: keys, desc: desc, qc: pc.qc}, nil
}

// planProjection lowers a non-aggregate SELECT list.
func (pc *planContext) planProjection(items []SelectItem, child operator) (operator, Schema, error) {
	if len(items) == 1 && items[0].Star {
		return child, child.schema(), nil
	}
	var fns []evalFn
	var sch Schema
	for i, it := range items {
		if it.Star {
			return nil, nil, fmt.Errorf("engine: SELECT * cannot be mixed with other select items")
		}
		f, err := compileExpr(it.Expr, child.schema(), pc)
		if err != nil {
			return nil, nil, err
		}
		fns = append(fns, f)
		sch = append(sch, Column{Name: outputName(it, i), T: inferType(it.Expr, child.schema())})
	}
	return &projectOp{child: child, sch: sch, fns: fns}, sch, nil
}

// planAggregate lowers a grouped (or globally aggregated) SELECT:
// the SELECT list and HAVING are rewritten over an internal schema of
// [$grp0.., $agg0..], the matching aggregation operator is instantiated
// (hash Group-By or the SGB physical operator), and HAVING plus the final
// projection are stacked on top.
func (pc *planContext) planAggregate(stmt *SelectStmt, child operator, orderBy []OrderItem) (operator, error) {
	var groupExprs []Expr
	var spec *SimilaritySpec
	if stmt.GroupBy != nil {
		groupExprs = stmt.GroupBy.Exprs
		spec = stmt.GroupBy.Similarity
	}

	rw := &aggRewriter{input: child.schema(), groupExprs: groupExprs, pc: pc}

	var projExprs []Expr
	for _, it := range stmt.Select {
		if it.Star {
			return nil, fmt.Errorf("engine: SELECT * is not valid with GROUP BY or aggregates")
		}
		e, err := rw.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		projExprs = append(projExprs, e)
	}
	var havingExpr Expr
	if stmt.Having != nil {
		e, err := rw.rewrite(stmt.Having)
		if err != nil {
			return nil, err
		}
		havingExpr = e
	}
	// ORDER BY may itself reference grouping expressions or introduce new
	// aggregate calls, so it is rewritten before the internal schema is
	// finalized.
	orderExprs := make([]Expr, len(orderBy))
	for i, o := range orderBy {
		e, err := rw.rewrite(o.Expr)
		if err != nil {
			return nil, fmt.Errorf("engine: ORDER BY: %w", err)
		}
		orderExprs[i] = e
	}

	// Compile the grouping expressions and the internal schema.
	groupFns := make([]operand, len(groupExprs))
	internal := make(Schema, 0, len(groupExprs)+len(rw.calls))
	for i, g := range groupExprs {
		f, err := compileOperand(g, child.schema(), pc)
		if err != nil {
			return nil, err
		}
		groupFns[i] = f
		internal = append(internal, Column{Name: "$grp" + strconv.Itoa(i), T: inferType(g, child.schema())})
	}
	for j := range rw.calls {
		internal = append(internal, Column{Name: "$agg" + strconv.Itoa(j), T: rw.callTypes[j]})
	}

	var aggOp operator
	if spec != nil {
		op := &sgbAggOp{
			child:      child,
			groupExprs: groupFns,
			calls:      rw.calls,
			sch:        internal,
			spec:       *spec,
			algorithm:  pc.qc.sgbAlgorithm().core(),
			qc:         pc.qc,
		}
		pc.sgbOps = append(pc.sgbOps, op)
		aggOp = op
	} else {
		aggOp = &hashAggOp{child: child, groupExprs: groupFns, astGroups: groupExprs, calls: rw.calls, sch: internal, qc: pc.qc}
	}

	cur := aggOp
	if havingExpr != nil {
		pred, err := compileExpr(havingExpr, internal, pc)
		if err != nil {
			return nil, err
		}
		cur = &filterOp{child: cur, pred: pred, qc: pc.qc}
	}
	if len(orderExprs) > 0 {
		keys := make([]evalFn, len(orderExprs))
		desc := make([]bool, len(orderExprs))
		for i, e := range orderExprs {
			f, err := compileExpr(e, internal, pc)
			if err != nil {
				return nil, fmt.Errorf("engine: ORDER BY: %w", err)
			}
			keys[i], desc[i] = f, orderBy[i].Desc
		}
		cur = &sortOp{child: cur, keys: keys, desc: desc, qc: pc.qc}
	}

	var fns []evalFn
	var outSchema Schema
	for i, e := range projExprs {
		f, err := compileExpr(e, internal, pc)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
		outSchema = append(outSchema, Column{Name: outputName(stmt.Select[i], i), T: inferType(e, internal)})
	}
	return &projectOp{child: cur, sch: outSchema, fns: fns}, nil
}

// aggRewriter replaces grouping expressions and aggregate calls with
// references into the aggregation operator's internal schema.
type aggRewriter struct {
	input      Schema
	groupExprs []Expr
	pc         *planContext
	calls      []*aggCall
	callExprs  []*FuncCall
	callTypes  []Type
}

func (rw *aggRewriter) rewrite(e Expr) (Expr, error) {
	if idx := matchGroupExpr(e, rw.groupExprs, rw.input); idx >= 0 {
		return &ColumnRef{Name: "$grp" + strconv.Itoa(idx)}, nil
	}
	switch e := e.(type) {
	case *Literal:
		return e, nil
	case *ColumnRef:
		return nil, fmt.Errorf("engine: column %q must appear in GROUP BY or be used in an aggregate", e.Name)
	case *UnaryExpr:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: e.Op, X: x}, nil
	case *BinaryExpr:
		l, err := rw.rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: e.Op, L: l, R: r}, nil
	case *InList:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		items := make([]Expr, len(e.Items))
		for i, it := range e.Items {
			if items[i], err = rw.rewrite(it); err != nil {
				return nil, err
			}
		}
		return &InList{X: x, Items: items, Not: e.Not}, nil
	case *InSubquery:
		x, err := rw.rewrite(e.X)
		if err != nil {
			return nil, err
		}
		return &InSubquery{X: x, Query: e.Query, Not: e.Not}, nil
	case *ScalarSubquery:
		return e, nil
	case *CaseExpr:
		out := &CaseExpr{Whens: make([]WhenClause, len(e.Whens))}
		if e.Operand != nil {
			op, err := rw.rewrite(e.Operand)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		for i, w := range e.Whens {
			cond, err := rw.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			result, err := rw.rewrite(w.Result)
			if err != nil {
				return nil, err
			}
			out.Whens[i] = WhenClause{Cond: cond, Result: result}
		}
		if e.Else != nil {
			el, err := rw.rewrite(e.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	case *FuncCall:
		if !isAggregateName(e.Name) {
			args := make([]Expr, len(e.Args))
			for i, a := range e.Args {
				var err error
				if args[i], err = rw.rewrite(a); err != nil {
					return nil, err
				}
			}
			return &FuncCall{Name: e.Name, Args: args, Star: e.Star, Distinct: e.Distinct}, nil
		}
		// Deduplicate identical aggregate invocations.
		for j, prev := range rw.callExprs {
			if exprEqual(prev, e) {
				return &ColumnRef{Name: "$agg" + strconv.Itoa(j)}, nil
			}
		}
		args := make([]operand, len(e.Args))
		for i, a := range e.Args {
			if containsAggregate(a) {
				return nil, fmt.Errorf("engine: nested aggregate in %s()", e.Name)
			}
			f, err := compileOperand(a, rw.input, rw.pc)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		kind, err := aggKindOf(e.Name, e.Star, e.Distinct, len(args))
		if err != nil {
			return nil, err
		}
		j := len(rw.calls)
		rw.calls = append(rw.calls, &aggCall{kind: kind, star: e.Star, distinct: e.Distinct, args: args})
		rw.callExprs = append(rw.callExprs, e)
		rw.callTypes = append(rw.callTypes, aggResultType(e, rw.input))
		return &ColumnRef{Name: "$agg" + strconv.Itoa(j)}, nil
	}
	return nil, fmt.Errorf("engine: cannot rewrite expression %T under aggregation", e)
}

func aggResultType(e *FuncCall, input Schema) Type {
	switch e.Name {
	case "count":
		return TypeInt
	case "avg", "average", "stddev", "variance":
		return TypeFloat
	case "array_agg", "list_id", "st_polygon":
		return TypeString
	default:
		if len(e.Args) == 1 {
			return inferType(e.Args[0], input)
		}
		return TypeFloat
	}
}

// containsAggregate reports whether e contains an aggregate function call.
func containsAggregate(e Expr) bool {
	switch e := e.(type) {
	case *FuncCall:
		if isAggregateName(e.Name) {
			return true
		}
		for _, a := range e.Args {
			if containsAggregate(a) {
				return true
			}
		}
	case *UnaryExpr:
		return containsAggregate(e.X)
	case *BinaryExpr:
		return containsAggregate(e.L) || containsAggregate(e.R)
	case *InList:
		if containsAggregate(e.X) {
			return true
		}
		for _, it := range e.Items {
			if containsAggregate(it) {
				return true
			}
		}
	case *InSubquery:
		return containsAggregate(e.X)
	case *ScalarSubquery:
		return false // aggregates inside belong to the subquery
	case *CaseExpr:
		if e.Operand != nil && containsAggregate(e.Operand) {
			return true
		}
		for _, w := range e.Whens {
			if containsAggregate(w.Cond) || containsAggregate(w.Result) {
				return true
			}
		}
		return e.Else != nil && containsAggregate(e.Else)
	}
	return false
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []Expr{e}
}

// refsResolvable reports whether every column reference in e resolves
// against the schema (uncorrelated subqueries are self-contained and
// ignored).
func refsResolvable(e Expr, sch Schema) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *Literal:
		return true
	case *ColumnRef:
		_, err := sch.Resolve(e.Table, e.Name)
		return err == nil
	case *UnaryExpr:
		return refsResolvable(e.X, sch)
	case *BinaryExpr:
		return refsResolvable(e.L, sch) && refsResolvable(e.R, sch)
	case *FuncCall:
		for _, a := range e.Args {
			if !refsResolvable(a, sch) {
				return false
			}
		}
		return true
	case *InList:
		if !refsResolvable(e.X, sch) {
			return false
		}
		for _, it := range e.Items {
			if !refsResolvable(it, sch) {
				return false
			}
		}
		return true
	case *InSubquery:
		return refsResolvable(e.X, sch)
	case *ScalarSubquery:
		return true // uncorrelated: self-contained
	case *CaseExpr:
		if e.Operand != nil && !refsResolvable(e.Operand, sch) {
			return false
		}
		for _, w := range e.Whens {
			if !refsResolvable(w.Cond, sch) || !refsResolvable(w.Result, sch) {
				return false
			}
		}
		return e.Else == nil || refsResolvable(e.Else, sch)
	}
	return false
}

// outputName derives the display name of a SELECT item.
func outputName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *ColumnRef:
		return e.Name
	case *FuncCall:
		return e.Name
	}
	return "col" + strconv.Itoa(i+1)
}

// inferType best-effort-infers the output type of an expression, for display
// and derived-table schemas. It is a guess (sum(int) is INT until it
// overflows to FLOAT): the expression compiler reads it only behind a
// run-time tag check (see compileNum).
func inferType(e Expr, sch Schema) Type {
	switch e := e.(type) {
	case *Literal:
		return e.V.T
	case *ColumnRef:
		if i, err := sch.Resolve(e.Table, e.Name); err == nil {
			return sch[i].T
		}
		return TypeFloat
	case *UnaryExpr:
		if e.Op == "NOT" {
			return TypeBool
		}
		return inferType(e.X, sch)
	case *BinaryExpr:
		switch e.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return TypeBool
		case "||":
			return TypeString
		case "/":
			return TypeFloat
		default:
			lt, rt := inferType(e.L, sch), inferType(e.R, sch)
			if lt == TypeInt && rt == TypeInt {
				return TypeInt
			}
			return TypeFloat
		}
	case *InList, *InSubquery:
		return TypeBool
	case *ScalarSubquery:
		return TypeFloat
	case *CaseExpr:
		return inferType(e.Whens[0].Result, sch)
	case *FuncCall:
		switch e.Name {
		case "count", "length", "mod":
			return TypeInt
		case "lower", "upper", "array_agg", "list_id", "st_polygon":
			return TypeString
		case "abs", "least", "greatest", "coalesce", "sum", "min", "max":
			if len(e.Args) == 1 {
				return inferType(e.Args[0], sch)
			}
		}
		return TypeFloat
	}
	return TypeFloat
}
