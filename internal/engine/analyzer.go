package engine

import "strings"

// This file is the analyzer: small atomic rewrite rules, each semantics-
// preserving on its own, applied to fixpoint — the dolthub/go-mysql-server
// style of planning where the optimizer is a pipeline of named rules rather
// than one monolithic pass. Rules operate at two levels: AST rules rewrite
// the SELECT statement before lowering (projection pruning), and tree rules
// rewrite the physical operator tree after lowering (limit pushdown). Four
// more rules live inside the lowering itself because they need its
// intermediate state: index-scan selection, predicate pushdown and join
// column pruning in lowerSelect, and cost-based SGB algorithm selection in
// planAggregate. Every applied rule is recorded on the planContext, and
// DB.SetOptimizer(false) disables the whole pipeline except predicate
// pushdown (which is semantic: it fixes which source an ambiguous-looking
// column resolves against and keeps cross joins from exploding).

// ruleApplied records that a named analyzer rule changed the plan, for
// introspection and the rule-pipeline tests.
func (pc *planContext) ruleApplied(name string) {
	pc.applied = append(pc.applied, name)
}

// analyzerFixpoint caps rule iteration; the rules strictly shrink or
// reorder the plan, so this bound is never reached by a correct rule set.
const analyzerFixpoint = 16

// rewriteStmt runs the AST-level rules on a SELECT to fixpoint. Statements
// are rewritten copy-on-write: view definitions and prepared ASTs shared
// between executions are never mutated in place.
func (pc *planContext) rewriteStmt(stmt *SelectStmt) *SelectStmt {
	if !pc.qc.optimize() {
		return stmt
	}
	for i := 0; i < analyzerFixpoint; i++ {
		next, changed := pc.pruneSubqueryProjections(stmt)
		if !changed {
			return stmt
		}
		stmt = next
	}
	return stmt
}

// pruneSubqueryProjections drops select items of FROM-subqueries that no
// expression of the outer statement references, so the pruned columns are
// never computed. A subquery keeps all items when the outer statement
// selects *, when the subquery itself uses DISTINCT (dropping a column would
// change the duplicate set) or *, and always keeps at least one item.
func (pc *planContext) pruneSubqueryProjections(stmt *SelectStmt) (*SelectStmt, bool) {
	if selectsStar(stmt) {
		return stmt, false
	}
	refs := collectOuterRefs(stmt, stmt.Where)
	changed := false
	newFrom := append([]FromItem(nil), stmt.From...)
	for fi, item := range stmt.From {
		if item.Subquery == nil || item.Subquery.Distinct {
			continue
		}
		sub := item.Subquery
		if selectsStar(sub) || len(sub.Select) <= 1 {
			continue
		}
		var kept []SelectItem
		for i, it := range sub.Select {
			name := outputName(it, i)
			if refs.references(item.Alias, name) {
				kept = append(kept, it)
			}
		}
		if len(kept) == len(sub.Select) {
			continue
		}
		if len(kept) == 0 {
			// Nothing referenced (e.g. SELECT count(*) over the subquery):
			// keep one item so the derived table still has a schema.
			kept = sub.Select[:1]
		}
		pruned := *sub
		pruned.Select = kept
		newFrom[fi].Subquery = &pruned
		changed = true
	}
	if !changed {
		return stmt, false
	}
	out := *stmt
	out.From = newFrom
	pc.ruleApplied("prune_subquery_projection")
	return &out, true
}

func selectsStar(stmt *SelectStmt) bool {
	for _, it := range stmt.Select {
		if it.Star {
			return true
		}
	}
	return false
}

// joinRefs is rule prune_join_columns' input for one join of lowerSelect:
// the references something above the join resolves against its output — the
// select list, GROUP BY (similarity attributes included), HAVING, ORDER BY,
// and pending, the conjuncts the join does not consume (later join keys,
// residual filters). The join emits only the columns these may reference;
// its own keys compile against its unpruned inputs. nil keeps every column:
// with the optimizer off, and under SELECT *, whose width is the answer's.
func (pc *planContext) joinRefs(stmt *SelectStmt, pending []Expr) *refSet {
	if !pc.qc.optimize() || selectsStar(stmt) {
		return nil
	}
	return collectOuterRefs(stmt, pending...)
}

// refSet indexes the column references of an outer statement: qualified refs
// by (qualifier, name), unqualified by name alone.
type refSet struct {
	qualified   map[[2]string]bool
	unqualified map[string]bool
	// sawUnresolvable marks an expression shape whose references could not
	// be enumerated (star expansion aside, this does not occur today); the
	// set then reports everything as referenced.
	sawUnresolvable bool
}

// references reports whether the statement may reference column name
// qualified by alias. It folds case exactly as Schema.Resolve does, so every
// column a reference could resolve to is reported.
func (rs *refSet) references(alias, name string) bool {
	if rs.sawUnresolvable {
		return true
	}
	return rs.qualified[[2]string{strings.ToLower(alias), strings.ToLower(name)}] ||
		rs.unqualified[strings.ToLower(name)]
}

// collectOuterRefs gathers every column reference of stmt outside its FROM
// subqueries: the select list, the given WHERE conjuncts, GROUP BY (including
// the similarity clause's grouping expressions), HAVING, and ORDER BY.
// Select-list aliases count as unqualified references too, because ORDER BY
// may name them.
func collectOuterRefs(stmt *SelectStmt, where ...Expr) *refSet {
	rs := &refSet{qualified: map[[2]string]bool{}, unqualified: map[string]bool{}}
	for _, it := range stmt.Select {
		rs.addExpr(it.Expr)
	}
	for _, c := range where {
		rs.addExpr(c)
	}
	if stmt.GroupBy != nil {
		for _, g := range stmt.GroupBy.Exprs {
			rs.addExpr(g)
		}
	}
	rs.addExpr(stmt.Having)
	for _, o := range stmt.OrderBy {
		rs.addExpr(o.Expr)
	}
	return rs
}

func (rs *refSet) addExpr(e Expr) {
	switch e := e.(type) {
	case nil:
	case *Literal:
	case *ColumnRef:
		if e.Table != "" {
			rs.qualified[[2]string{strings.ToLower(e.Table), strings.ToLower(e.Name)}] = true
		} else {
			rs.unqualified[strings.ToLower(e.Name)] = true
		}
	case *UnaryExpr:
		rs.addExpr(e.X)
	case *BinaryExpr:
		rs.addExpr(e.L)
		rs.addExpr(e.R)
	case *FuncCall:
		for _, a := range e.Args {
			rs.addExpr(a)
		}
	case *InList:
		rs.addExpr(e.X)
		for _, it := range e.Items {
			rs.addExpr(it)
		}
	case *InSubquery:
		// The inner query is uncorrelated (planned against the catalog), so
		// only the probe expression can reference outer sources.
		rs.addExpr(e.X)
	case *ScalarSubquery:
		// Uncorrelated: self-contained.
	case *CaseExpr:
		rs.addExpr(e.Operand)
		for _, w := range e.Whens {
			rs.addExpr(w.Cond)
			rs.addExpr(w.Result)
		}
		rs.addExpr(e.Else)
	default:
		rs.sawUnresolvable = true
	}
}

// optimizeTree runs the tree-level rules on a lowered plan to fixpoint, then
// stamps cost estimates on every node. With the optimizer disabled only the
// estimates are stamped (EXPLAIN still shows them for the naive plan).
func (pc *planContext) optimizeTree(root operator) operator {
	if pc.qc.optimize() {
		for i := 0; i < analyzerFixpoint; i++ {
			next, changed := pc.applyTreeRules(root)
			root = next
			if !changed {
				break
			}
		}
	}
	pc.estimateTree(root)
	return root
}

// applyTreeRules applies the tree rules once, top-down, rebuilding child
// links in place.
func (pc *planContext) applyTreeRules(op operator) (operator, bool) {
	out, changed := pc.pushLimitDown(op)
	switch o := out.(type) {
	case *renameOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *filterOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *projectOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *sortOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *limitOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *distinctOp:
		c, ch := pc.applyTreeRules(o.child)
		o.child, changed = c, changed || ch
	case *hashJoinOp:
		l, chL := pc.applyTreeRules(o.left)
		r, chR := pc.applyTreeRules(o.right)
		o.left, o.right, changed = l, r, changed || chL || chR
	case *crossJoinOp:
		l, chL := pc.applyTreeRules(o.left)
		r, chR := pc.applyTreeRules(o.right)
		o.left, o.right, changed = l, r, changed || chL || chR
		// Aggregation operators' children are left alone: no tree rule
		// targets those chains (limits never occur below an aggregation).
	}
	return out, changed
}

// pushLimitDown swaps a limit below a projection or a derived-table rename.
// Both are stateless 1:1 row transforms pulled lazily, so the same rows are
// produced and the same expressions evaluated — the rewrite is bit-identical
// by construction; its value is a shallower pipeline above the limit and a
// plan shape where the limit sits against the operator that actually bounds
// the work.
func (pc *planContext) pushLimitDown(op operator) (operator, bool) {
	lim, ok := op.(*limitOp)
	if !ok {
		return op, false
	}
	switch child := lim.child.(type) {
	case *projectOp:
		lim.child = child.child
		child.child = lim
		pc.ruleApplied("limit_pushdown")
		return child, true
	case *renameOp:
		lim.child = child.child
		child.child = lim
		pc.ruleApplied("limit_pushdown")
		return child, true
	}
	return op, false
}
