package engine

import (
	"fmt"
	"strings"
)

// ExplainStmt is a parsed EXPLAIN [ANALYZE] SELECT. With Analyze set the
// query is executed and the plan is annotated with actual row counts,
// per-operator wall time, and the SGB cost counters.
type ExplainStmt struct {
	Query   *SelectStmt
	Analyze bool
}

func (*ExplainStmt) stmt() {}

// describeOp returns the EXPLAIN label and the children of one physical
// operator. known is false for operator types the switch does not cover —
// TestExplainCoversAllOperators walks every plan shape the planner produces
// and fails on unknown nodes, so new operators cannot silently regress
// EXPLAIN output. instrumentedOp is transparent here: callers unwrap it
// before describing (see renderPlan).
func describeOp(op operator) (label string, children []operator, known bool) {
	switch op := op.(type) {
	case *indexScanOp:
		return fmt.Sprintf("IndexScan on %s using %s (%s = const)",
			op.table.Name, op.ix.Name, op.ix.Column), nil, true
	case *scanOp:
		return fmt.Sprintf("SeqScan on %s (%d rows)", op.table.Name, len(op.table.Rows)), nil, true
	case *valuesOp:
		return fmt.Sprintf("Values (%d rows)", len(op.rows)), nil, true
	case *renameOp:
		return fmt.Sprintf("SubqueryScan as %s", op.sch[0].Table), []operator{op.child}, true
	case *filterOp:
		return "Filter", []operator{op.child}, true
	case *projectOp:
		return fmt.Sprintf("Project (%s)", strings.Join(op.sch.Names(), ", ")), []operator{op.child}, true
	case *hashJoinOp:
		return fmt.Sprintf("HashJoin (%d key(s))", len(op.leftKeys)), []operator{op.left, op.right}, true
	case *crossJoinOp:
		return "NestedLoop (cross)", []operator{op.left, op.right}, true
	case *sortOp:
		return fmt.Sprintf("Sort (%d key(s))", len(op.keys)), []operator{op.child}, true
	case *distinctOp:
		return "Distinct", []operator{op.child}, true
	case *limitOp:
		label := fmt.Sprintf("Limit %d", op.n)
		if op.offset > 0 {
			label += fmt.Sprintf(" Offset %d", op.offset)
		}
		return label, []operator{op.child}, true
	case *hashAggOp:
		return fmt.Sprintf("HashAggregate (%d group key(s), %d aggregate(s))",
			len(op.groupExprs), len(op.calls)), []operator{op.child}, true
	case *sgbAggOp:
		mode := "DISTANCE-TO-ALL " + op.spec.Overlap.String()
		if op.spec.Mode == SGBAnyMode {
			mode = "DISTANCE-TO-ANY"
		}
		return fmt.Sprintf("SimilarityGroupBy %s %s WITHIN %g [%s] (%d aggregate(s))",
			mode, op.spec.Metric, op.spec.Eps, op.algorithm, len(op.calls)), []operator{op.child}, true
	}
	return fmt.Sprintf("%T", op), nil, false
}

// explainPlan renders an operator tree as indented text, one operator per
// line, in execution order (children before parents reads bottom-up; the
// rendering is top-down like PostgreSQL's EXPLAIN). Instrumented nodes —
// present after an EXPLAIN ANALYZE run — additionally carry
// "(actual rows=N loops=L time=T ms)" and, for stateful operators, an
// indented annotation line with buffer sizes and SGB cost counters.
func explainPlan(root operator) []string {
	var lines []string
	var walk func(op operator, depth int)
	walk = func(op operator, depth int) {
		var inst *instrumentedOp
		if i, ok := op.(*instrumentedOp); ok {
			inst = i
			op = i.child
		}
		label, children, _ := describeOp(op)
		indent := strings.Repeat("  ", depth)
		line := indent + label
		// The planner's row estimate, when the node carries one (estimateTree
		// runs on every planned statement). EXPLAIN ANALYZE then shows it
		// beside the actual rows. A space or the end of the line follows the
		// number: readers take the first field after "est_rows=".
		if e, ok := op.(estimator); ok && e.estimated() {
			line += fmt.Sprintf(" est_rows=%.0f", e.EstRows())
		}
		if inst != nil {
			line += fmt.Sprintf(" (actual rows=%d loops=%d time=%.3f ms)",
				inst.rowsOut, inst.loops, float64(inst.elapsed.Nanoseconds())/1e6)
		}
		lines = append(lines, line)
		if inst != nil {
			if a, ok := op.(opActuals); ok {
				lines = append(lines, indent+"  "+a.actuals())
			}
		}
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return lines
}
