package engine

import (
	"sync"
	"sync/atomic"
)

// This file implements HyPer-style morsel-driven parallelism over the batch
// layer in batch.go: the planner extracts a parallel-safe scan→filter(→project)
// pipeline fragment feeding an aggregation, and the fragment's input table is
// carved into fixed-size morsels that a worker pool claims with an atomic
// counter. Each morsel is evaluated through the fragment's stages entirely on
// one worker and handed to the consumer tagged with its morsel index, so an
// order-sensitive consumer (two-phase hash aggregation) can merge partial
// results in ascending morsel order and stay deterministic regardless of
// scheduling.

// morselStage is one pipeline stage applied to a morsel's rows: a filter
// predicate or a projection. Exactly one of pred/fns is set.
type morselStage struct {
	pred evalFn
	fns  []evalFn
}

// morselFragment is a parallel-safe pipeline fragment: a base table scan plus
// filter/projection stages whose compiled expressions are goroutine-safe
// (see exprParallelSafe). Stages are stored bottom-up (scan side first).
type morselFragment struct {
	table  *Table
	stages []morselStage
}

// extractFragment walks an operator chain top-down through parallel-safe
// filters and projections to a sequential table scan. It returns nil when any
// node is of another kind (joins, subquery scans, index scans) or carries a
// compiled expression that is not goroutine-safe — those plans keep the
// serial path.
func extractFragment(op operator) *morselFragment {
	var stages []morselStage
	for {
		switch o := op.(type) {
		case *filterOp:
			if !o.parSafe {
				return nil
			}
			stages = append(stages, morselStage{pred: o.pred})
			op = o.child
		case *projectOp:
			if !o.parSafe {
				return nil
			}
			stages = append(stages, morselStage{fns: o.fns})
			op = o.child
		case *scanOp:
			// Stages were collected top-down; morsels apply them bottom-up.
			for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
				stages[i], stages[j] = stages[j], stages[i]
			}
			return &morselFragment{table: o.table, stages: stages}
		default:
			return nil
		}
	}
}

// morselCount is the number of morsels the fragment's table splits into at
// the statement's batch size.
func (f *morselFragment) morselCount(qc *queryCtx) int {
	batch := qc.batchSize()
	return (len(f.table.Rows) + batch - 1) / batch
}

// run executes the fragment over all morsels with a pool of up to workers
// goroutines and calls emit once per morsel with the surviving rows. emit is
// called concurrently from multiple workers (each morsel index exactly once),
// so it must be safe for concurrent use across distinct indices; the rows
// slice is reused by the worker after emit returns and must not be retained,
// though the Row values themselves may be. Workers poll qc once per morsel,
// and the first error (emit failure, expression error, cancellation) stops
// the pool. Returns the morsel count and the worker count actually used.
func (f *morselFragment) run(qc *queryCtx, workers int, emit func(morsel int, rows []Row) error) (morsels, used int, err error) {
	rows := f.table.Rows
	batch := qc.batchSize()
	n := f.morselCount(qc)
	if n == 0 {
		return 0, 0, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]Row, 0, batch)
			var projBuf []Row
			for !failed.Load() {
				m := int(next.Add(1)) - 1
				if m >= n {
					return
				}
				if err := qc.poll(); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				lo, hi := m*batch, (m+1)*batch
				if hi > len(rows) {
					hi = len(rows)
				}
				out := append(buf[:0], rows[lo:hi]...)
				for _, st := range f.stages {
					if st.pred != nil {
						k := 0
						for _, r := range out {
							v, err := st.pred(r)
							if err != nil {
								errs[w] = err
								failed.Store(true)
								return
							}
							if v.Truthy() {
								out[k] = r
								k++
							}
						}
						out = out[:k]
					} else {
						if projBuf == nil {
							projBuf = make([]Row, 0, batch)
						}
						var err error
						if projBuf, err = projectBatch(out, st.fns, projBuf, qc); err != nil {
							errs[w] = err
							failed.Store(true)
							return
						}
						out, projBuf = projBuf, out
					}
				}
				if err := emit(m, out); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return n, workers, e
		}
	}
	return n, workers, qc.poll()
}

// exprParallelSafe reports whether the closure compiled from e may be called
// concurrently from several workers. Everything compileExpr produces is pure
// except subqueries, whose closures lazily populate a result cache on first
// call — racing workers would double-execute the subquery and race on the
// cache, so any plan containing one stays serial.
func exprParallelSafe(e Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *Literal, *ColumnRef:
		return true
	case *UnaryExpr:
		return exprParallelSafe(e.X)
	case *BinaryExpr:
		return exprParallelSafe(e.L) && exprParallelSafe(e.R)
	case *FuncCall:
		for _, a := range e.Args {
			if !exprParallelSafe(a) {
				return false
			}
		}
		return true
	case *InList:
		if !exprParallelSafe(e.X) {
			return false
		}
		for _, it := range e.Items {
			if !exprParallelSafe(it) {
				return false
			}
		}
		return true
	case *InSubquery, *ScalarSubquery:
		return false
	case *CaseExpr:
		if e.Operand != nil && !exprParallelSafe(e.Operand) {
			return false
		}
		for _, w := range e.Whens {
			if !exprParallelSafe(w.Cond) || !exprParallelSafe(w.Result) {
				return false
			}
		}
		return e.Else == nil || exprParallelSafe(e.Else)
	}
	return false
}

// parallelReporter is implemented by operators that may execute a morsel-
// parallel fragment; the DB reads the counts after execution to feed the
// engine_parallel_* metrics.
type parallelReporter interface {
	parallelRun() (workers, morsels int)
}
