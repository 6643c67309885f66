package engine

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Index is a single-column hash index supporting equality lookups. The
// buckets are built lazily and invalidated by DML, so persistence
// round-trips only the metadata.
type Index struct {
	Name   string
	Column string

	// mu guards the lazily built buckets: read-only statements share the
	// DB statement lock, so two concurrent SELECTs may race to (re)build the
	// buckets without it. keys numbers the column's distinct values and
	// buckets[id] lists the row positions holding value id; keys.words is
	// nil while the index is stale. key is the scratch tuple probed.
	mu      sync.Mutex
	keys    keyTable
	buckets [][]int
	key     [1]Value
}

// find returns v's bucket id, or -1. Values key the way the hash join's do
// (see canonicalKeyValue), so integer predicates hit float columns and vice
// versa without rounding distinct int keys above 2^53 together.
func (ix *Index) find(v Value) int32 {
	ix.key[0] = canonicalKeyValue(v)
	return ix.keys.find(ix.key[:])
}

// note files row position pos under its indexed value v. A NULL equals
// nothing, so it is not filed, and no lookup finds a bucket for it.
func (ix *Index) note(v Value, pos int) {
	if v.IsNull() {
		return
	}
	id := ix.find(v)
	if id < 0 {
		id = ix.keys.add(ix.key[:])
		ix.buckets = append(ix.buckets, nil)
	}
	ix.buckets[id] = append(ix.buckets[id], pos)
}

// CreateIndex registers a hash index over the named column.
func (t *Table) CreateIndex(name, column string) (*Index, error) {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, name) {
			return nil, fmt.Errorf("engine: index %q already exists on table %s", name, t.Name)
		}
	}
	if _, err := t.Schema.Resolve("", column); err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Column: column}
	t.Indexes = append(t.Indexes, ix)
	return ix, nil
}

// DropIndex removes the named index; it reports whether one was dropped.
func (t *Table) DropIndex(name string) bool {
	for i, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, name) {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			return true
		}
	}
	return false
}

// indexOn returns a usable index over the named column, or nil.
func (t *Table) indexOn(column string) *Index {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Column, column) {
			return ix
		}
	}
	return nil
}

// invalidateIndexes marks every index stale after destructive DML.
func (t *Table) invalidateIndexes() {
	for _, ix := range t.Indexes {
		ix.mu.Lock()
		ix.keys, ix.buckets = keyTable{}, nil
		ix.mu.Unlock()
	}
}

// lookup returns the row positions whose indexed column equals v,
// (re)building the buckets if necessary.
func (ix *Index) lookup(t *Table, v Value) ([]int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.keys.words == nil {
		col, err := t.Schema.Resolve("", ix.Column)
		if err != nil {
			return nil, err
		}
		ix.keys = newKeyTable()
		for pos, row := range t.Rows {
			ix.note(row[col], pos)
		}
	}
	if id := ix.find(v); id >= 0 {
		return ix.buckets[id], nil
	}
	return nil, nil
}

// addRow maintains live buckets on insert (no-op when stale).
func (ix *Index) addRow(t *Table, pos int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.keys.words == nil {
		return
	}
	col, err := t.Schema.Resolve("", ix.Column)
	if err != nil {
		ix.keys, ix.buckets = keyTable{}, nil
		return
	}
	ix.note(t.Rows[pos][col], pos)
}

// CreateIndexStmt is a parsed CREATE INDEX name ON table (column).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

func (*CreateIndexStmt) stmt() {}

// DropIndexStmt is a parsed DROP INDEX name ON table.
type DropIndexStmt struct {
	Name  string
	Table string
}

func (*DropIndexStmt) stmt() {}

// indexScanOp serves rows matching an equality predicate from a hash index
// instead of scanning the heap.
type indexScanOp struct {
	planEst
	table *Table
	ix    *Index
	sch   Schema
	keyFn evalFn // constant expression evaluated at open time

	positions []int
	pos       int
}

func (s *indexScanOp) schema() Schema   { return s.sch }
func (s *indexScanOp) close() error     { return nil }
func (s *indexScanOp) stableRows() bool { return true }

func (s *indexScanOp) open() error {
	v, err := s.keyFn(nil)
	if err != nil {
		return err
	}
	s.positions, err = s.ix.lookup(s.table, v)
	if err != nil {
		return err
	}
	s.pos = 0
	return nil
}

func (s *indexScanOp) next() (Row, error) {
	if s.pos >= len(s.positions) {
		return nil, io.EOF
	}
	r := s.table.Rows[s.positions[s.pos]]
	s.pos++
	return r, nil
}

// isConstExpr reports whether e references no columns or subqueries, so it
// can be evaluated once against the empty row.
func isConstExpr(e Expr) bool {
	switch e := e.(type) {
	case *Literal:
		return true
	case *UnaryExpr:
		return isConstExpr(e.X)
	case *BinaryExpr:
		return isConstExpr(e.L) && isConstExpr(e.R)
	case *FuncCall:
		if isAggregateName(e.Name) {
			return false
		}
		for _, a := range e.Args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	case *InList:
		if !isConstExpr(e.X) {
			return false
		}
		for _, it := range e.Items {
			if !isConstExpr(it) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// tryIndexScan rewrites a sequential scan plus an equality conjunct
// (col = constant) into an index scan when a matching index exists. It
// returns the (possibly replaced) source and the surviving conjuncts.
func tryIndexScan(src operator, conjuncts []Expr) (operator, []Expr) {
	scan, ok := src.(*scanOp)
	if !ok {
		return src, conjuncts
	}
	for i, c := range conjuncts {
		be, ok := c.(*BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		colSide, constSide := be.L, be.R
		cr, ok := colSide.(*ColumnRef)
		if !ok || !isConstExpr(constSide) {
			cr, ok = constSide.(*ColumnRef)
			if !ok || !isConstExpr(colSide) {
				continue
			}
			constSide = be.L
		}
		idx, err := scan.sch.Resolve(cr.Table, cr.Name)
		if err != nil {
			continue
		}
		ix := scan.table.indexOn(scan.table.Schema[idx].Name)
		if ix == nil {
			continue
		}
		keyFn, err := compileExpr(constSide, nil, nil)
		if err != nil {
			continue
		}
		rest := append(append([]Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		return &indexScanOp{table: scan.table, ix: ix, sch: scan.sch, keyFn: keyFn}, rest
	}
	return src, conjuncts
}
