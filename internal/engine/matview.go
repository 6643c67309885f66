package engine

import (
	"fmt"
	"strings"
)

// MatViewShape is the streamable core of a materialized view definition: a
// single-table similarity GROUP BY whose group state can be maintained
// incrementally by feeding committed rows, in row order, to a long-lived
// grouper (see internal/stream). Definitions that fall outside this shape are
// rejected at CREATE MATERIALIZED VIEW time rather than silently degrading to
// full recomputation.
type MatViewShape struct {
	// Table is the base table name as written in FROM (original casing).
	Table string
	// Columns holds the bare names of the grouping columns in GROUP BY order.
	Columns []string
	// ColIdx holds the schema indexes of Columns in the base table.
	ColIdx []int
	// Spec is the similarity clause (mode, metric, eps, overlap).
	Spec SimilaritySpec
}

// matViewShape validates that q is maintainable and extracts its shape. The
// restrictions exist because incremental maintenance replays the base table's
// committed row stream directly into a grouper: a WHERE filter, HAVING, or a
// second table would make group membership depend on state the stream layer
// does not track.
func (db *DB) matViewShape(q *SelectStmt) (*MatViewShape, error) {
	if len(q.From) != 1 || q.From[0].Subquery != nil {
		return nil, fmt.Errorf("engine: materialized view must select FROM exactly one base table")
	}
	from := q.From[0]
	if _, ok := db.cat.View(from.Table); ok {
		return nil, fmt.Errorf("engine: materialized view cannot be defined over view %q", from.Table)
	}
	if _, ok := db.cat.MatView(from.Table); ok {
		return nil, fmt.Errorf("engine: materialized view cannot be defined over materialized view %q", from.Table)
	}
	t, err := db.cat.Get(from.Table)
	if err != nil {
		return nil, err
	}
	switch {
	case q.Where != nil:
		return nil, fmt.Errorf("engine: materialized view does not support WHERE")
	case q.Having != nil:
		return nil, fmt.Errorf("engine: materialized view does not support HAVING")
	case len(q.OrderBy) != 0:
		return nil, fmt.Errorf("engine: materialized view does not support ORDER BY")
	case q.Limit != -1 || q.Offset != 0:
		return nil, fmt.Errorf("engine: materialized view does not support LIMIT/OFFSET")
	case q.Distinct:
		return nil, fmt.Errorf("engine: materialized view does not support DISTINCT")
	}
	if q.GroupBy == nil || q.GroupBy.Similarity == nil {
		return nil, fmt.Errorf("engine: materialized view requires a similarity GROUP BY (WITHIN eps)")
	}
	sch := t.Schema
	if from.Alias != "" {
		sch = sch.Qualify(from.Alias)
	}
	shape := &MatViewShape{Table: from.Table, Spec: *q.GroupBy.Similarity}
	for _, e := range q.GroupBy.Exprs {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return nil, fmt.Errorf("engine: materialized view GROUP BY entries must be plain columns")
		}
		idx, err := sch.Resolve(ref.Table, ref.Name)
		if err != nil {
			return nil, err
		}
		if ty := sch[idx].T; ty != TypeFloat && ty != TypeInt {
			return nil, fmt.Errorf("engine: materialized view grouping column %s must be numeric, not %s",
				sch[idx].Name, ty)
		}
		shape.Columns = append(shape.Columns, sch[idx].Name)
		shape.ColIdx = append(shape.ColIdx, idx)
	}
	return shape, nil
}

// MatViewsOn returns the names of every materialized view defined over the
// given base table, sorted.
func (db *DB) MatViewsOn(table string) []string {
	var out []string
	for _, mv := range db.cat.MatViews() {
		if strings.EqualFold(mv.Shape.Table, table) {
			out = append(out, mv.Name)
		}
	}
	return out
}

// ScanFloats streams the grouping coordinates of the named table's rows
// [from, len) to fn, converting each projected value to float64; it returns
// the table's current row count. A NULL or non-numeric value is an error (a
// materialized view cannot place such a row in a distance-based group).
//
// Callers must already hold the statement lock — the intended call sites are
// commit hooks and commit observers, which the engine invokes under it — or
// otherwise have exclusive access to the DB.
func (db *DB) ScanFloats(table string, colIdx []int, from int, fn func(row int, coords []float64) error) (int, error) {
	t, err := db.cat.Get(table)
	if err != nil {
		return 0, err
	}
	coords := make([]float64, len(colIdx))
	for row := from; row < len(t.Rows); row++ {
		r := t.Rows[row]
		for i, ci := range colIdx {
			if ci >= len(r) {
				return 0, fmt.Errorf("engine: row %d of %s has no column %d", row, table, ci)
			}
			f, err := r[ci].AsFloat()
			if err != nil {
				return 0, fmt.Errorf("engine: %s row %d: %w", table, row, err)
			}
			coords[i] = f
		}
		if err := fn(row, coords); err != nil {
			return 0, err
		}
	}
	return len(t.Rows), nil
}
