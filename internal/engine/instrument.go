package engine

import (
	"fmt"
	"time"
)

// instrumentedOp wraps a physical operator and records its actual runtime
// behaviour: rows produced, re-opens (loops), and cumulative wall time spent
// inside open()+next(). Time is inclusive of children, like PostgreSQL's
// "actual time" — subtracting a child's elapsed from its parent's gives the
// operator's own cost.
type instrumentedOp struct {
	child   operator
	rowsOut int64
	loops   int
	elapsed time.Duration
}

func (i *instrumentedOp) schema() Schema { return i.child.schema() }

func (i *instrumentedOp) open() error {
	i.loops++
	start := time.Now()
	err := i.child.open()
	i.elapsed += time.Since(start)
	return err
}

func (i *instrumentedOp) next() (Row, error) {
	start := time.Now()
	r, err := i.child.next()
	i.elapsed += time.Since(start)
	if err == nil {
		i.rowsOut++
	}
	return r, err
}

func (i *instrumentedOp) close() error     { return i.child.close() }
func (i *instrumentedOp) stableRows() bool { return i.child.stableRows() }

// instrument wraps every node of an operator tree in an instrumentedOp,
// rewiring each operator's child pointers in place. The returned root is the
// wrapped input. EXPLAIN ANALYZE runs the instrumented tree and renders it;
// plain query execution stays unwrapped and pays zero overhead.
func instrument(op operator) *instrumentedOp {
	switch op := op.(type) {
	case *renameOp:
		op.child = instrument(op.child)
	case *filterOp:
		op.child = instrument(op.child)
	case *projectOp:
		op.child = instrument(op.child)
	case *hashJoinOp:
		op.left = instrument(op.left)
		op.right = instrument(op.right)
	case *crossJoinOp:
		op.left = instrument(op.left)
		op.right = instrument(op.right)
	case *sortOp:
		op.child = instrument(op.child)
	case *limitOp:
		op.child = instrument(op.child)
	case *hashAggOp:
		op.child = instrument(op.child)
	case *sgbAggOp:
		op.child = instrument(op.child)
	case *distinctOp:
		op.child = instrument(op.child)
	}
	return &instrumentedOp{child: op}
}

// opActuals is implemented by operators that can report extra post-execution
// counters — buffer sizes, build-side cardinality, SGB cost counters — for
// the EXPLAIN ANALYZE annotation line under the operator.
type opActuals interface {
	actuals() string
}

func (j *hashJoinOp) actuals() string {
	return fmt.Sprintf("Hash Build: rows=%d buckets=%d", len(j.rows), j.keys.len())
}

func (j *crossJoinOp) actuals() string {
	return fmt.Sprintf("Inner Buffer: rows=%d", len(j.rightRows))
}

func (s *sortOp) actuals() string {
	return fmt.Sprintf("Sort Buffer: rows=%d", len(s.rows))
}

func (d *distinctOp) actuals() string {
	return fmt.Sprintf("Distinct Set: keys=%d", d.seen.len())
}

func (a *hashAggOp) actuals() string {
	return fmt.Sprintf("Hash Table: groups=%d input rows=%d", a.nGroups, a.inRows)
}

// actuals surfaces the core grouper's cost counters — the quantities the
// paper's cost analysis reasons about — under the SimilarityGroupBy node.
func (a *sgbAggOp) actuals() string {
	s := a.lastStats
	return fmt.Sprintf(
		"SGB Stats: points=%d distance_comps=%d rect_tests=%d hull_tests=%d window_queries=%d index_updates=%d rounds=%d merged=%d dropped=%d",
		s.Points, s.DistanceComps, s.RectTests, s.HullTests,
		s.WindowQueries, s.IndexUpdates, s.Rounds, s.GroupsMerged, a.lastDropped)
}
