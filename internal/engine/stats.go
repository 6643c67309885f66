package engine

import (
	"fmt"
	"math"

	"sgb/internal/geom"
)

// This file is the statistics catalog behind EXPLAIN's estimates: per-table
// row counts, per-column min/max and distinct estimates, and a 2-D grid
// density sketch over the first two FLOAT columns — the grouping space of the
// paper's similarity queries. Full statistics are computed by ANALYZE;
// between ANALYZE runs the counters are maintained incrementally on DML, with
// a staleness counter so the planner can tell how much it should trust them.

// AnalyzeStmt is a parsed ANALYZE [table]. An empty Table analyzes the whole
// catalog. ANALYZE recomputes the target tables' statistics from scratch and
// resets their staleness counters.
type AnalyzeStmt struct {
	Table string
}

func (*AnalyzeStmt) stmt() {}

// sketchGridSide is the density sketch resolution per axis. 48×48 cells keep
// the sketch a few KB per table while resolving clusters well below the
// epsilon ranges the benchmarks sweep.
const sketchGridSide = 48

// ColumnStats summarizes one column for selectivity estimation.
type ColumnStats struct {
	// Min and Max bound the column's numeric values; valid when HasRange.
	// They are widened incrementally on INSERT but never narrowed until the
	// next ANALYZE, so they stay conservative under DELETE/UPDATE.
	Min, Max float64
	HasRange bool
	// DistinctEst estimates the number of distinct non-null values
	// (exact as of the last ANALYZE).
	DistinctEst int64
	// NullCount counts NULLs as of the last ANALYZE.
	NullCount int64
}

// DensitySketch is a 2-D grid histogram over two FLOAT columns. Its occupied
// area bounds how many ε-sized groups the data can sustain, which is the SGB
// node's row estimate. Cells are sized from the data's bounding box at
// ANALYZE time; the estimate for a query ε rescales analytically.
type DensitySketch struct {
	// ColX, ColY are the sketched columns' schema positions.
	ColX, ColY int
	// MinX, MinY anchor the grid; CellW, CellH are the cell dimensions.
	MinX, MinY   float64
	CellW, CellH float64
	// Counts is the sketchGridSide×sketchGridSide histogram, row-major.
	Counts []int64
	// N is the number of points in the sketch.
	N int64
}

// TableStats is a table's statistics catalog entry. All fields are exported
// so snapshots gob-encode them alongside the table.
type TableStats struct {
	// RowCount is the live row count, maintained incrementally on DML.
	RowCount int64
	// AnalyzedRows is the row count observed by the last ANALYZE
	// (0 = never analyzed: only RowCount and Stale are meaningful).
	AnalyzedRows int64
	// Stale counts rows inserted, updated, or deleted since the last
	// ANALYZE — the staleness counter the planner checks before trusting
	// the distribution statistics.
	Stale int64
	// Columns holds per-column statistics, parallel to the table schema.
	Columns []ColumnStats
	// Sketch is the 2-D density sketch over the first two FLOAT columns,
	// nil when the table has fewer than two.
	Sketch *DensitySketch
}

// Fresh reports whether the distribution statistics (ranges, distincts,
// sketch) are trustworthy: an ANALYZE has run and fewer than half the
// analyzed rows have churned since.
func (s *TableStats) Fresh() bool {
	return s != nil && s.AnalyzedRows > 0 && s.Stale*2 <= s.AnalyzedRows
}

// Col returns the statistics for schema column i, or nil.
func (s *TableStats) Col(i int) *ColumnStats {
	if s == nil || i < 0 || i >= len(s.Columns) {
		return nil
	}
	return &s.Columns[i]
}

// ensureStats lazily attaches a stats entry whose row count starts at base
// (the table's pre-mutation cardinality, for tables that predate statistics —
// e.g. restored from an old snapshot).
func (t *Table) ensureStats(base int) *TableStats {
	if t.Stats == nil {
		t.Stats = &TableStats{RowCount: int64(base)}
	}
	return t.Stats
}

// statsNoteInsert folds a successfully appended batch into the incremental
// statistics. It must only be called after the rows are committed to the
// table (Table.Insert validates the whole batch first), so a failed or
// rolled-back INSERT never bumps the counters.
func (t *Table) statsNoteInsert(rows []Row) {
	s := t.ensureStats(len(t.Rows) - len(rows))
	s.RowCount += int64(len(rows))
	s.Stale += int64(len(rows))
	if s.AnalyzedRows == 0 {
		return
	}
	for _, r := range rows {
		for i, v := range r {
			if i >= len(s.Columns) || v.IsNull() {
				continue
			}
			f, err := v.AsFloat()
			if err != nil {
				continue
			}
			c := &s.Columns[i]
			if c.HasRange {
				if f < c.Min {
					c.Min = f
				}
				if f > c.Max {
					c.Max = f
				}
			}
		}
		if sk := s.Sketch; sk != nil {
			x, errX := r[sk.ColX].AsFloat()
			y, errY := r[sk.ColY].AsFloat()
			if errX == nil && errY == nil && !r[sk.ColX].IsNull() && !r[sk.ColY].IsNull() {
				sk.add(x, y)
			}
		}
	}
}

// statsNoteUpdate records n updated rows: values moved, so the distribution
// statistics degrade but the cardinality is unchanged.
func (t *Table) statsNoteUpdate(n int) {
	if n <= 0 {
		return
	}
	s := t.ensureStats(len(t.Rows))
	s.Stale += int64(n)
}

// statsNoteDelete records n deleted rows.
func (t *Table) statsNoteDelete(n int) {
	if n <= 0 {
		return
	}
	s := t.ensureStats(len(t.Rows) + n)
	s.RowCount -= int64(n)
	s.Stale += int64(n)
}

// Analyze recomputes the table's statistics from scratch: exact row count,
// per-column min/max/distinct/null counts, and the density sketch over the
// first two FLOAT columns. The staleness counter resets to zero.
func (t *Table) Analyze() *TableStats {
	s := &TableStats{
		RowCount:     int64(len(t.Rows)),
		AnalyzedRows: int64(len(t.Rows)),
		Columns:      make([]ColumnStats, len(t.Schema)),
	}
	distinct := make([]keyTable, len(t.Schema))
	for i := range distinct {
		distinct[i] = newKeyTable()
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i >= len(s.Columns) {
				break
			}
			c := &s.Columns[i]
			if v.IsNull() {
				c.NullCount++
				continue
			}
			if d := &distinct[i]; d.find(r[i:i+1]) < 0 {
				d.add(r[i : i+1])
			}
			if t.Schema[i].T != TypeInt && t.Schema[i].T != TypeFloat {
				continue
			}
			f, err := v.AsFloat()
			switch {
			case err != nil:
			case !c.HasRange:
				c.Min, c.Max, c.HasRange = f, f, true
			case f < c.Min:
				c.Min = f
			case f > c.Max:
				c.Max = f
			}
		}
	}
	for i := range s.Columns {
		s.Columns[i].DistinctEst = int64(distinct[i].len())
	}
	s.Sketch = t.buildSketch(s)
	t.Stats = s
	return s
}

// buildSketch builds the density sketch over the table's first two FLOAT
// columns, or returns nil when the table has fewer than two (or no rows).
func (t *Table) buildSketch(s *TableStats) *DensitySketch {
	colX, colY := -1, -1
	for i, c := range t.Schema {
		if c.T != TypeFloat {
			continue
		}
		if colX < 0 {
			colX = i
		} else {
			colY = i
			break
		}
	}
	if colX < 0 || colY < 0 || len(t.Rows) == 0 {
		return nil
	}
	cx, cy := s.Col(colX), s.Col(colY)
	if cx == nil || cy == nil || !cx.HasRange || !cy.HasRange {
		return nil
	}
	sk := &DensitySketch{
		ColX: colX, ColY: colY,
		MinX: cx.Min, MinY: cy.Min,
		CellW:  cellSize(cx.Min, cx.Max),
		CellH:  cellSize(cy.Min, cy.Max),
		Counts: make([]int64, sketchGridSide*sketchGridSide),
	}
	for _, r := range t.Rows {
		if r[colX].IsNull() || r[colY].IsNull() {
			continue
		}
		x, errX := r[colX].AsFloat()
		y, errY := r[colY].AsFloat()
		if errX != nil || errY != nil {
			continue
		}
		sk.add(x, y)
	}
	return sk
}

// cellSize sizes one sketch cell along an axis spanning [min, max]. A
// degenerate (single-valued) axis gets a unit cell so densities stay finite.
func cellSize(min, max float64) float64 {
	w := (max - min) / sketchGridSide
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 1
	}
	return w
}

// add counts one point, clamping coordinates outside the grid onto the edge
// cells so incremental inserts beyond the analyzed bounding box still land
// somewhere and N stays consistent with the counts.
func (sk *DensitySketch) add(x, y float64) {
	cx := clampCell(int((x - sk.MinX) / sk.CellW))
	cy := clampCell(int((y - sk.MinY) / sk.CellH))
	sk.Counts[cy*sketchGridSide+cx]++
	sk.N++
}

func clampCell(i int) int {
	if i < 0 {
		return 0
	}
	if i >= sketchGridSide {
		return sketchGridSide - 1
	}
	return i
}

// neighborArea is the area of the ε-neighborhood under a metric: the region a
// point's similarity predicate covers in the 2-D grouping space.
func neighborArea(m geom.Metric, eps float64) float64 {
	switch m {
	case geom.L2:
		return math.Pi * eps * eps
	default: // LInf: a (2ε)² square
		return 4 * eps * eps
	}
}

// OccupiedArea is the total area of non-empty sketch cells: the footprint the
// data actually covers, which bounds how many ε-sized groups it can sustain.
func (sk *DensitySketch) OccupiedArea() float64 {
	if sk == nil {
		return 0
	}
	var occupied int
	for _, c := range sk.Counts {
		if c > 0 {
			occupied++
		}
	}
	return float64(occupied) * sk.CellW * sk.CellH
}

// analyzeTables runs ANALYZE over one table or the whole catalog, returning
// one summary row per table.
func (db *DB) analyzeTables(name string) (*Result, error) {
	var tables []*Table
	if name != "" {
		t, err := db.cat.Get(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	} else {
		for _, n := range db.cat.Names() {
			t, err := db.cat.Get(n)
			if err != nil {
				return nil, err
			}
			tables = append(tables, t)
		}
	}
	res := &Result{Columns: []string{"table", "rows", "sketch"}}
	for _, t := range tables {
		s := t.Analyze()
		sketch := "none"
		if s.Sketch != nil {
			sketch = fmt.Sprintf("%dx%d over (%s, %s)", sketchGridSide, sketchGridSide,
				t.Schema[s.Sketch.ColX].Name, t.Schema[s.Sketch.ColY].Name)
		}
		res.Rows = append(res.Rows, Row{NewString(t.Name), NewInt(s.RowCount), NewString(sketch)})
	}
	sortRowsStable(res.Rows, 1)
	return res, nil
}
