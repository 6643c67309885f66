package engine

import (
	"fmt"
	"strings"

	"sgb/internal/core"
	"sgb/internal/geom"
)

// This file implements the tuple-free columnar SGB fast path. When a
// similarity aggregation's shape allows it, the engine skips per-tuple Row
// materialization entirely: the grouping coordinates are read straight out of
// the stored rows into flat float64 columns (geom.Cols), the columns flow
// through the core groupers' batch kernels, and the output rows are
// synthesized from the columns and the group sizes. The gate is deliberately
// narrow — the point is that the common analytical query
//
//	SELECT x, y, count(*) FROM t [WHERE ...] GROUP BY x, y DISTANCE-TO-ANY ...
//
// never touches a Row between the scan and the result set.

// colPlan describes a planned tuple-free columnar SGB execution.
type colPlan struct {
	// frag is the scan→filter pipeline feeding the aggregation. Its stages
	// are all predicates (markColumnarSGB rejects projections), so a
	// surviving row has the scan table's column layout.
	frag *morselFragment
	// colIdx maps each grouping dimension to its scan-row column index.
	colIdx []int
	// workers is the worker count for collection: >1 only when the grouping
	// may go through core.SGBAnyParallelColsCtx (today a serial shim), so
	// the serial/parallel decision is identical to the row path's.
	workers int
}

// markColumnarSGB flags an SGB aggregation for the tuple-free columnar fast
// path. Eligibility:
//
//   - the session has not disabled it (DB.SetColumnar / Session.SetColumnar);
//   - every aggregate call is a plain count(*) — the only aggregate whose
//     result is derivable from group membership alone, with no tuple access;
//   - every grouping expression is a bare column reference to a FLOAT column
//     of the scanned table, so the stored Value is bit-identical to the
//     float the column carries (Table.Insert coerces ints on the way in) and
//     the representative output values can be rebuilt with NewFloat;
//   - the input pipeline is an extractable scan→filter fragment with no
//     projection stage (a projection would re-layout the rows under colIdx)
//     and no goroutine-unsafe predicate.
//
// Everything else falls back to the row path, which remains fully general.
func (pc *planContext) markColumnarSGB(op *sgbAggOp, groupExprs []Expr, rw *aggRewriter) {
	// Analyzer rule columnar_selection: the tuple-free path is a cost-based
	// choice (its collection cost is strictly lower when eligible — see
	// estimateTree's sgbAggOp case), so disabling the optimizer keeps the
	// row path, the naive reference plan.
	if !pc.qc.columnar() || !pc.qc.optimize() || len(groupExprs) == 0 {
		return
	}
	for _, c := range rw.calls {
		if !strings.EqualFold(c.name, "count") || !c.star || c.distinct {
			return
		}
	}
	sch := op.child.schema()
	colIdx := make([]int, len(groupExprs))
	for i, g := range groupExprs {
		ref, ok := g.(*ColumnRef)
		if !ok {
			return
		}
		idx, err := sch.Resolve(ref.Table, ref.Name)
		if err != nil || sch[idx].T != TypeFloat {
			return
		}
		colIdx[i] = idx
	}
	frag := extractFragment(op.child)
	if frag == nil {
		return
	}
	for _, st := range frag.stages {
		if st.fns != nil {
			return
		}
	}
	// Same parallel-grouping gate as markParallelSGB: only SGB-Any under the
	// default on-the-fly-index algorithm has a provably order-free parallel
	// grouping, and tiny tables stay serial for machine-independent output.
	workers := 1
	if op.spec.Mode == SGBAnyMode && op.algorithm == core.IndexBounds &&
		pc.qc.parallelism() > 1 && len(frag.table.Rows) > pc.qc.batchSize() {
		workers = pc.qc.parallelism()
	}
	op.colPlan = &colPlan{frag: frag, colIdx: colIdx, workers: workers}
	pc.ruleApplied("columnar_selection")
}

// collectColumnar evaluates the fragment morsel-wise and transposes the
// surviving rows' grouping attributes into one columnar chunk per morsel,
// then concatenates the chunks in ascending morsel order — which, morsels
// being contiguous input ranges, reproduces the serial input order exactly.
// Rows are charged against the statement budget per morsel, like the row
// collectors.
func (a *sgbAggOp) collectColumnar() (geom.Cols, int, int, error) {
	cp := a.colPlan
	dim := len(cp.colIdx)
	chunks := make([]geom.Cols, cp.frag.morselCount(a.qc))
	morsels, used, err := cp.frag.run(a.qc, cp.workers, func(m int, rows []Row) error {
		if err := a.qc.addRows(len(rows)); err != nil {
			return err
		}
		if err := a.qc.growMem(int64(dim) * int64(len(rows)) * 8); err != nil {
			return err
		}
		c := geom.MakeCols(dim, len(rows))
		for d, idx := range cp.colIdx {
			col := c.Col(d)
			for t, r := range rows {
				v := r[idx]
				if v.IsNull() {
					return fmt.Errorf("engine: NULL in similarity grouping attribute %d", d+1)
				}
				f, err := v.AsFloat()
				if err != nil {
					return fmt.Errorf("engine: similarity grouping attribute %d: %v", d+1, err)
				}
				col[t] = f
			}
		}
		chunks[m] = c
		return nil
	})
	if err != nil {
		return geom.Cols{}, 0, 0, err
	}
	var total int
	for _, c := range chunks {
		total += c.Len()
	}
	if err := a.qc.growMem(int64(dim) * int64(total) * 8); err != nil {
		return geom.Cols{}, 0, 0, err
	}
	cols := geom.MakeCols(dim, total)
	for d := 0; d < dim; d++ {
		dst := cols.Col(d)[:0]
		for _, c := range chunks {
			if c.Len() > 0 {
				dst = append(dst, c.Col(d)...)
			}
		}
	}
	return cols, morsels, used, nil
}

// openColumnar is sgbAggOp.open's tuple-free execution: columnar collection,
// columnar grouping, and output rows synthesized from the coordinate columns
// (representative = the group's first member) and the group sizes (count(*)).
// Its output is bit-identical to the row path's for every plan the gate
// admits.
func (a *sgbAggOp) openColumnar() error {
	cols, morsels, used, err := a.collectColumnar()
	if err != nil {
		return err
	}
	a.rows = a.rows[:0]
	if cols.Len() == 0 {
		a.pos = 0
		return nil
	}
	opt := core.Options{
		Metric:    a.spec.Metric,
		Eps:       a.spec.Eps,
		Overlap:   a.spec.Overlap,
		Algorithm: a.algorithm,
	}
	var res *core.Result
	if a.colPlan.workers > 1 {
		res, err = core.SGBAnyParallelColsCtx(a.qc.context(), cols, opt, a.colPlan.workers)
		a.lastWorkers, a.lastMorsels = used, morsels
	} else {
		res, err = a.groupSerial(cols, opt)
	}
	if err != nil {
		return err
	}
	a.lastStats = res.Stats
	a.lastDropped = len(res.Dropped)
	dim := cols.Dim()
	for _, grp := range res.Groups {
		rep := grp.IDs[0]
		out := make(Row, 0, dim+len(a.calls))
		for d := 0; d < dim; d++ {
			out = append(out, NewFloat(cols.Col(d)[rep]))
		}
		for range a.calls {
			out = append(out, NewInt(int64(len(grp.IDs))))
		}
		a.rows = append(a.rows, out)
	}
	a.pos = 0
	return nil
}
