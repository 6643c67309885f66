package engine

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"sgb/internal/core"
	"sgb/internal/geom"
)

// operator is the Volcano iterator interface: open, a stream of next calls
// terminated by io.EOF, then close. A row next returns is valid until the
// operator's following next call: projections and joins write every row into
// one reused output row. stableRows reports that the rows instead point into
// table storage or a list the operator owns, and stay valid for the whole
// statement; pass-through operators report their child's answer. The two
// consumers that keep rows across next calls, materialize and the hash-join
// build, copy the rows of an operator whose rows are not stable.
type operator interface {
	schema() Schema
	open() error
	next() (Row, error)
	close() error
	stableRows() bool
}

// materialize runs an operator to completion and buffers its output, copying
// borrowed rows into an arena. Once per cancelCheckStride rows (and once for
// the remainder at end of stream) it polls for cancellation and charges the new
// rows against the statement's row and memory budgets; the copies are covered
// by that per-row charge, so the arena charges nothing itself. qc may be nil
// (no limits, no cancellation).
func materialize(op operator, qc *queryCtx) ([]Row, error) {
	if err := op.open(); err != nil {
		return nil, err
	}
	defer op.close()
	var arena *rowArena
	if !op.stableRows() {
		arena = &rowArena{}
	}
	var rows []Row
	charged := 0
	charge := func() error {
		n := len(rows) - charged
		if n == 0 {
			return nil
		}
		charged = len(rows)
		if err := qc.poll(); err != nil {
			return err
		}
		if err := qc.addRows(n); err != nil {
			return err
		}
		return qc.growMem(int64(n) * memRowBytes(len(rows[len(rows)-1])))
	}
	for {
		r, err := op.next()
		if err == io.EOF {
			if err := charge(); err != nil {
				return nil, err
			}
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		if arena != nil {
			r, _ = arena.copy(r, nil) // charges nothing, so cannot fail
		}
		rows = append(rows, r)
		if len(rows)-charged == cancelCheckStride {
			if err := charge(); err != nil {
				return nil, err
			}
		}
	}
}

// ---- scan ----

type scanOp struct {
	planEst
	table *Table
	sch   Schema
	pos   int
	qc    *queryCtx
}

func newScanOp(t *Table, alias string, qc *queryCtx) *scanOp {
	sch := t.Schema
	if alias != "" {
		sch = t.Schema.Qualify(alias)
	}
	return &scanOp{table: t, sch: sch, qc: qc}
}

func (s *scanOp) schema() Schema   { return s.sch }
func (s *scanOp) open() error      { s.pos = 0; return nil }
func (s *scanOp) close() error     { return nil }
func (s *scanOp) stableRows() bool { return true }

func (s *scanOp) next() (Row, error) {
	if s.pos >= len(s.table.Rows) {
		return nil, io.EOF
	}
	if err := s.qc.tick(); err != nil {
		return nil, err
	}
	r := s.table.Rows[s.pos]
	s.pos++
	return r, nil
}

// ---- materialized relation (derived tables, sorts) ----

type valuesOp struct {
	planEst
	sch  Schema
	rows []Row
	pos  int
}

func (v *valuesOp) schema() Schema   { return v.sch }
func (v *valuesOp) open() error      { v.pos = 0; return nil }
func (v *valuesOp) close() error     { return nil }
func (v *valuesOp) stableRows() bool { return true }

func (v *valuesOp) next() (Row, error) {
	if v.pos >= len(v.rows) {
		return nil, io.EOF
	}
	r := v.rows[v.pos]
	v.pos++
	return r, nil
}

// singleRowOp yields one empty row: the source for FROM-less SELECTs.
func singleRowOp() *valuesOp { return &valuesOp{rows: []Row{{}}} }

// ---- filter ----

type filterOp struct {
	planEst
	child operator
	pred  evalFn
	// srcExpr is the predicate's AST, kept for selectivity estimation; nil
	// for internally synthesized predicates (HAVING), which fall back to the
	// default selectivity.
	srcExpr Expr
	// qc bounds the reject loop in next: a highly selective filter may
	// consume its whole input before producing a row, and children over
	// in-memory rows (valuesOp, distinctOp) never poll.
	qc *queryCtx
}

func (f *filterOp) schema() Schema   { return f.child.schema() }
func (f *filterOp) open() error      { return f.child.open() }
func (f *filterOp) close() error     { return f.child.close() }
func (f *filterOp) stableRows() bool { return f.child.stableRows() }

func (f *filterOp) next() (Row, error) {
	for {
		r, err := f.child.next()
		if err != nil {
			return nil, err
		}
		v, err := f.pred(r)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
		if err := f.qc.tick(); err != nil {
			return nil, err
		}
	}
}

// ---- copies of borrowed rows (materialize, hash-join build) ----

// Arena chunks grow geometrically between these row counts, so a small answer
// does not pay for a full-size chunk.
const (
	arenaFirstChunk = 64
	arenaMaxChunk   = 1024
)

// rowArena holds the copies a retaining consumer makes of borrowed rows,
// carved from []Value chunks: one allocation and one memory charge per chunk
// instead of one allocation per row. Chunks are never recycled, so every copy
// stays valid for the statement.
type rowArena struct {
	free  []Value // unused tail of the current chunk
	chunk int     // row count of the last chunk allocated
}

// copy returns a copy of r that outlives the producer's next call, charging
// each new chunk to qc (nil charges nothing). A zero-width copy is empty but
// non-nil: it is still a row (count(*) over a join nothing above reads
// counts it).
func (a *rowArena) copy(r Row, qc *queryCtx) (Row, error) {
	w := len(r)
	if w == 0 {
		return Row{}, nil
	}
	if len(a.free) < w {
		a.chunk = min(max(2*a.chunk, arenaFirstChunk), arenaMaxChunk)
		if err := qc.growMem(int64(a.chunk) * memRowBytes(w)); err != nil {
			return nil, err
		}
		a.free = make([]Value, a.chunk*w)
	}
	out := a.free[:w:w]
	copy(out, r)
	a.free = a.free[w:]
	return out, nil
}

// ---- projection ----

type projectOp struct {
	planEst
	child operator
	sch   Schema
	fns   []evalFn
	out   Row // the reused output row
}

func (p *projectOp) schema() Schema   { return p.sch }
func (p *projectOp) open() error      { p.out = make(Row, len(p.fns)); return p.child.open() }
func (p *projectOp) close() error     { return p.child.close() }
func (p *projectOp) stableRows() bool { return false }

func (p *projectOp) next() (Row, error) {
	r, err := p.child.next()
	if err != nil {
		return nil, err
	}
	for i, f := range p.fns {
		if p.out[i], err = f(r); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// ---- joins ----

// joinOutput is the output side the hash and cross joins share: which input
// columns a join emits, and the one output row it writes them into.
type joinOutput struct {
	sch         Schema
	left, right []int // input column positions emitted, left's then right's
	qc          *queryCtx
	out         Row // the reused output row; non-nil even at width 0
}

// newJoinOutput keeps the columns of left‖right that refs may reference, in
// input order; nil refs keeps them all (see joinRefs).
func newJoinOutput(left, right Schema, refs *refSet, qc *queryCtx) joinOutput {
	o := joinOutput{qc: qc}
	keep := func(sch Schema) (idx []int) {
		for i, c := range sch {
			if refs == nil || refs.references(c.Table, c.Name) {
				o.sch = append(o.sch, c)
				idx = append(idx, i)
			}
		}
		return idx
	}
	o.left = keep(left)
	o.right = keep(right)
	o.out = make(Row, len(o.sch))
	return o
}

func (o *joinOutput) stableRows() bool { return false }

// emit writes one output row from a matching pair of input rows.
func (o *joinOutput) emit(l, r Row) Row {
	for i, c := range o.left {
		o.out[i] = l[c]
	}
	n := len(o.left)
	for i, c := range o.right {
		o.out[n+i] = r[c]
	}
	return o.out
}

// ---- hash join (equi) ----

type hashJoinOp struct {
	planEst
	joinOutput
	left, right         operator
	leftKeys, rightKeys []evalFn

	// table maps an encoded build key to its bucket in buckets, whose rows
	// keep build (input) order. keyBuf is the reused key encoding buffer.
	table     map[string]int
	buckets   [][]Row
	keyBuf    []byte
	buildRows int // rows hashed into the build side
	probing   Row // current left row
	matches   []Row
	matchI    int
}

// newHashJoinOp joins left and right on the key pairs; lk and rk compile
// against the unpruned inputs, and the output keeps the columns refs may
// reference (all of them for nil refs).
func newHashJoinOp(left, right operator, lk, rk []evalFn, refs *refSet, qc *queryCtx) *hashJoinOp {
	return &hashJoinOp{
		joinOutput: newJoinOutput(left.schema(), right.schema(), refs, qc),
		left:       left, right: right, leftKeys: lk, rightKeys: rk,
	}
}

func (j *hashJoinOp) schema() Schema { return j.sch }

func (j *hashJoinOp) open() error {
	if err := j.right.open(); err != nil {
		return err
	}
	j.table = make(map[string]int)
	j.buckets = j.buckets[:0]
	j.buildRows = 0
	// The buckets keep the build rows, so borrowed ones are copied (and
	// charged) here.
	var arena *rowArena
	if !j.right.stableRows() {
		arena = &rowArena{}
	}
	for {
		r, err := j.right.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			j.right.close()
			return err
		}
		var null bool
		j.keyBuf, null, err = joinKey(j.keyBuf[:0], r, j.rightKeys)
		if err != nil {
			j.right.close()
			return err
		}
		if null {
			continue // NULL keys never match
		}
		if err := j.qc.tick(); err != nil {
			j.right.close()
			return err
		}
		if err := j.qc.addRows(1); err != nil {
			j.right.close()
			return err
		}
		if arena != nil {
			if r, err = arena.copy(r, j.qc); err != nil {
				j.right.close()
				return err
			}
		}
		b, ok := j.table[string(j.keyBuf)]
		if !ok {
			b = len(j.buckets)
			j.table[string(j.keyBuf)] = b
			j.buckets = append(j.buckets, nil)
		}
		j.buckets[b] = append(j.buckets[b], r)
		j.buildRows++
	}
	if err := j.right.close(); err != nil {
		return err
	}
	j.probing, j.matches, j.matchI = nil, nil, 0
	return j.left.open()
}

func (j *hashJoinOp) close() error { return j.left.close() }

func (j *hashJoinOp) next() (Row, error) {
	for {
		if j.matchI < len(j.matches) {
			right := j.matches[j.matchI]
			j.matchI++
			return j.emit(j.probing, right), nil
		}
		l, err := j.left.next()
		if err != nil {
			return nil, err
		}
		var null bool
		j.keyBuf, null, err = joinKey(j.keyBuf[:0], l, j.leftKeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		j.probing, j.matches, j.matchI = l, nil, 0
		if b, ok := j.table[string(j.keyBuf)]; ok {
			j.matches = j.buckets[b]
		}
	}
}

// exactInt64Bound is 2^63 as a float64 (exactly representable); floats in
// [-2^63, 2^63) that carry an integral value convert to int64 losslessly.
const exactInt64Bound = 9223372036854775808.0

// canonicalKeyValue maps a key value onto a canonical encoding under SQL
// numeric equality: a float holding an exact integer folds onto the int
// encoding, so INT 3 and FLOAT 3.0 hash identically. Crucially, ints are kept
// as ints — the old int→float widening rounded every key above 2^53 and made
// distinct large keys collide.
func canonicalKeyValue(v Value) Value {
	if v.T == TypeFloat && v.F == math.Trunc(v.F) &&
		v.F >= -exactInt64Bound && v.F < exactInt64Bound {
		return NewInt(int64(v.F))
	}
	return v
}

// joinKey evaluates the key expressions and appends their canonical encoding
// to dst, so cross-type equi-joins behave like SQL equality without losing int
// precision. null reports a NULL key, which never matches.
func joinKey(dst []byte, r Row, keys []evalFn) (_ []byte, null bool, _ error) {
	for _, k := range keys {
		v, err := k(r)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() {
			return dst, true, nil
		}
		dst = appendKey(dst, []Value{canonicalKeyValue(v)})
	}
	return dst, false, nil
}

// ---- nested-loop cross join (fallback when no equi predicate exists) ----

type crossJoinOp struct {
	planEst
	joinOutput
	left, right operator
	rightRows   []Row
	cur         Row // current left row, paired with rightRows[ri:]
	ri          int
}

func newCrossJoinOp(left, right operator, refs *refSet, qc *queryCtx) *crossJoinOp {
	return &crossJoinOp{
		joinOutput: newJoinOutput(left.schema(), right.schema(), refs, qc),
		left:       left, right: right,
	}
}

func (j *crossJoinOp) schema() Schema { return j.sch }

func (j *crossJoinOp) open() error {
	rows, err := materialize(j.right, j.qc)
	if err != nil {
		return err
	}
	// ri starts past the end, so the first next pulls a left row.
	j.rightRows = rows
	j.cur, j.ri = nil, len(rows)
	return j.left.open()
}

func (j *crossJoinOp) close() error { return j.left.close() }

func (j *crossJoinOp) next() (Row, error) {
	for {
		if j.ri < len(j.rightRows) {
			r := j.rightRows[j.ri]
			j.ri++
			return j.emit(j.cur, r), nil
		}
		l, err := j.left.next()
		if err != nil {
			return nil, err
		}
		j.cur, j.ri = l, 0
	}
}

// ---- sort ----

type sortOp struct {
	planEst
	child operator
	keys  []evalFn
	desc  []bool
	qc    *queryCtx
	rows  []Row
	pos   int
}

func (s *sortOp) schema() Schema   { return s.child.schema() }
func (s *sortOp) close() error     { return nil }
func (s *sortOp) stableRows() bool { return true }

func (s *sortOp) open() error {
	rows, err := materialize(s.child, s.qc)
	if err != nil {
		return err
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range s.keys {
			a, err := key(rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			b, err := key(rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c, err := Compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if s.desc[k] {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows, s.pos = rows, 0
	return nil
}

func (s *sortOp) next() (Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// ---- limit ----

type limitOp struct {
	planEst
	child   operator
	n       int // -1 = no limit (OFFSET only)
	offset  int
	seen    int
	skipped int
	// qc bounds the OFFSET skip in next, for the same reason as filterOp's.
	qc *queryCtx
}

func (l *limitOp) schema() Schema   { return l.child.schema() }
func (l *limitOp) open() error      { l.seen, l.skipped = 0, 0; return l.child.open() }
func (l *limitOp) close() error     { return l.child.close() }
func (l *limitOp) stableRows() bool { return l.child.stableRows() }

func (l *limitOp) next() (Row, error) {
	for l.skipped < l.offset {
		if _, err := l.child.next(); err != nil {
			return nil, err
		}
		l.skipped++
		if err := l.qc.tick(); err != nil {
			return nil, err
		}
	}
	if l.n >= 0 && l.seen >= l.n {
		return nil, io.EOF
	}
	r, err := l.child.next()
	if err != nil {
		return nil, err
	}
	l.seen++
	return r, nil
}

// ---- standard hash aggregation (equality Group-By) ----

// aggBucket is one group's key values and accumulator states.
type aggBucket struct {
	keyVals []Value
	acc     *groupAccumulator
}

// aggTable is a grouping hash table keyed by the encoded grouping values,
// preserving insertion order.
type aggTable struct {
	groupFns []evalFn
	calls    []*aggCall
	qc       *queryCtx // charges one budget row per new group
	buckets  map[string]*aggBucket
	order    []*aggBucket
	inRows   int64
	// scratch and keyBuf hold one row's group values and their encoding;
	// a bucket clones the values only when the row starts a new group.
	scratch []Value
	keyBuf  []byte
}

func newAggTable(groupFns []evalFn, calls []*aggCall, qc *queryCtx) *aggTable {
	return &aggTable{
		groupFns: groupFns, calls: calls, qc: qc,
		buckets: make(map[string]*aggBucket),
		scratch: make([]Value, len(groupFns)),
	}
}

func (t *aggTable) addRow(r Row) error {
	t.inRows++
	for i, g := range t.groupFns {
		var err error
		if t.scratch[i], err = g(r); err != nil {
			return err
		}
	}
	t.keyBuf = appendKey(t.keyBuf[:0], t.scratch)
	b, ok := t.buckets[string(t.keyBuf)]
	if !ok {
		if err := t.qc.addRows(1); err != nil {
			return err
		}
		if err := t.qc.growMem(memBucketOverheadBytes + memValueBytes*int64(len(t.scratch))); err != nil {
			return err
		}
		acc, err := newGroupAccumulator(t.calls)
		if err != nil {
			return err
		}
		b = &aggBucket{keyVals: slices.Clone(t.scratch), acc: acc}
		t.buckets[string(t.keyBuf)] = b
		t.order = append(t.order, b)
	}
	return b.acc.add(t.calls, r)
}

// hashAggOp implements the standard Group-By: groups are the distinct values
// of the grouping expressions; output rows are [groupValues..., aggResults...].
// With no grouping expressions it produces exactly one global-aggregate row.
// Output is sorted by group key for determinism.
type hashAggOp struct {
	planEst
	child      operator
	groupExprs []evalFn
	// astGroups is the grouping expressions' AST form, kept for group-count
	// estimation against the statistics catalog.
	astGroups []Expr
	calls     []*aggCall
	sch       Schema
	qc        *queryCtx

	rows []Row
	pos  int

	// inRows and nGroups record the actual input cardinality and hash-table
	// size of the last execution, for EXPLAIN ANALYZE.
	inRows  int64
	nGroups int
}

func (a *hashAggOp) schema() Schema   { return a.sch }
func (a *hashAggOp) close() error     { return nil }
func (a *hashAggOp) stableRows() bool { return true }

func (a *hashAggOp) open() error {
	tbl := newAggTable(a.groupExprs, a.calls, a.qc)
	if err := a.build(tbl); err != nil {
		return err
	}
	if len(a.groupExprs) == 0 && len(tbl.buckets) == 0 {
		// Global aggregate over an empty input still yields one row.
		acc, err := newGroupAccumulator(a.calls)
		if err != nil {
			return err
		}
		b := &aggBucket{acc: acc}
		tbl.buckets[""] = b
		tbl.order = append(tbl.order, b)
	}
	a.inRows = tbl.inRows
	a.nGroups = len(tbl.buckets)
	a.rows = a.rows[:0]
	for _, b := range tbl.order {
		out := make(Row, 0, len(a.groupExprs)+len(a.calls))
		out = append(out, b.keyVals...)
		a.rows = append(a.rows, b.acc.appendResults(out))
	}
	sortRowsStable(a.rows, len(a.groupExprs))
	a.pos = 0
	return nil
}

// build drains the child into tbl in input order, polling for cancellation
// once per cancelCheckStride rows.
func (a *hashAggOp) build(tbl *aggTable) error {
	if err := a.child.open(); err != nil {
		return err
	}
	defer a.child.close()
	for n := 1; ; n++ {
		r, err := a.child.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if n%cancelCheckStride == 0 {
			if err := a.qc.poll(); err != nil {
				return err
			}
		}
		if err := tbl.addRow(r); err != nil {
			return err
		}
	}
}

func (a *hashAggOp) next() (Row, error) {
	if a.pos >= len(a.rows) {
		return nil, io.EOF
	}
	r := a.rows[a.pos]
	a.pos++
	return r, nil
}

// ---- similarity group-by aggregation ----

// sgbAggOp is the physical SGB operator, and the only way a similarity
// aggregate runs: it buffers the child's tuples in input order, transposes the
// grouping expressions into one coordinate column each (colsOf), groups the
// points with the core SGB-All/SGB-Any machinery, and folds the aggregate
// calls over each group's member tuples. The output rows are
// [representativeGroupValues..., aggResults...], where the representative
// values come from the group's first member (similarity groups have no single
// key value). ELIMINATE'd tuples contribute to no group. Output order follows
// the smallest member position per group.
type sgbAggOp struct {
	planEst
	child      operator
	groupExprs []evalFn
	calls      []*aggCall
	sch        Schema
	spec       SimilaritySpec
	algorithm  core.Algorithm
	// algAuto records that algorithm came from cost-based selection rather
	// than an explicit \alg override, for the trace annotation.
	algAuto bool
	qc      *queryCtx

	rows []Row
	pos  int

	// LastStats exposes the core grouper's cost counters for the most
	// recent execution, used by the benchmark harness, the metrics
	// registry, and EXPLAIN ANALYZE. lastDropped counts the tuples
	// discarded by ON-OVERLAP ELIMINATE.
	lastStats   core.Stats
	lastDropped int
}

func (a *sgbAggOp) schema() Schema   { return a.sch }
func (a *sgbAggOp) close() error     { return nil }
func (a *sgbAggOp) stableRows() bool { return true }

// colsOf maps the tuples onto the columnar grouping-space point set: one flat
// float64 column per grouping expression, carved out of a single arena. The
// columns flow straight into the core groupers' batch entry points, so the
// engine never materializes per-row Point slices on the SGB hot path.
func (a *sgbAggOp) colsOf(tuples []Row) (geom.Cols, error) {
	dim := len(a.groupExprs)
	if err := a.qc.growMem(int64(dim) * int64(len(tuples)) * 8); err != nil {
		return geom.Cols{}, err
	}
	cols := geom.MakeCols(dim, len(tuples))
	for i, g := range a.groupExprs {
		col := cols.Col(i)
		for t, r := range tuples {
			v, err := g(r)
			if err != nil {
				return geom.Cols{}, err
			}
			if v.IsNull() {
				return geom.Cols{}, fmt.Errorf("engine: NULL in similarity grouping attribute %d", i+1)
			}
			if col[t], err = v.AsFloat(); err != nil {
				return geom.Cols{}, fmt.Errorf("engine: similarity grouping attribute %d: %v", i+1, err)
			}
		}
	}
	return cols, nil
}

// group feeds the columnar point set through the core grouper matching the
// spec's mode and the session's algorithm.
func (a *sgbAggOp) group(pts geom.Cols, opt core.Options) (*core.Result, error) {
	if a.spec.Mode == SGBAllMode {
		g, err := core.NewAllGrouper(opt)
		if err != nil {
			return nil, err
		}
		g.WithContext(a.qc.context())
		if err := g.AddCols(pts); err != nil {
			return nil, err
		}
		return g.Finish()
	}
	if opt.Algorithm == core.BoundsChecking {
		opt.Algorithm = core.IndexBounds // SGB-Any has no bounds variant
	}
	g, err := core.NewAnyGrouper(opt)
	if err != nil {
		return nil, err
	}
	g.WithContext(a.qc.context())
	if err := g.AddCols(pts); err != nil {
		return nil, err
	}
	return g.Finish()
}

func (a *sgbAggOp) open() error {
	tuples, err := materialize(a.child, a.qc)
	if err != nil {
		return err
	}
	a.rows, a.pos = a.rows[:0], 0
	if len(tuples) == 0 {
		return nil
	}
	cols, err := a.colsOf(tuples)
	if err != nil {
		return err
	}
	res, err := a.group(cols, core.Options{
		Metric:    a.spec.Metric,
		Eps:       a.spec.Eps,
		Overlap:   a.spec.Overlap,
		Algorithm: a.algorithm,
	})
	if err != nil {
		return err
	}
	a.lastStats = res.Stats
	a.lastDropped = len(res.Dropped)
	// The grouper's output side: one accumulator set and one result row per
	// group, charged up front rather than inside the per-group loop.
	outWidth := len(a.groupExprs) + len(a.calls)
	if err := a.qc.growMem(int64(len(res.Groups)) * (memBucketOverheadBytes + memRowBytes(outWidth))); err != nil {
		return err
	}
	// Groups are folded one at a time, so one accumulator serves them all.
	var acc groupAccumulator
	for _, grp := range res.Groups {
		if err := acc.reset(a.calls); err != nil {
			return err
		}
		for _, id := range grp.IDs {
			if err := acc.add(a.calls, tuples[id]); err != nil {
				return err
			}
		}
		rep := tuples[grp.IDs[0]]
		out := make(Row, 0, outWidth)
		for _, g := range a.groupExprs {
			v, err := g(rep)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		a.rows = append(a.rows, acc.appendResults(out))
	}
	return nil
}

func (a *sgbAggOp) next() (Row, error) {
	if a.pos >= len(a.rows) {
		return nil, io.EOF
	}
	r := a.rows[a.pos]
	a.pos++
	return r, nil
}

// ---- distinct ----

// distinctOp filters out duplicate rows (SELECT DISTINCT), preserving the
// first occurrence order.
type distinctOp struct {
	planEst
	child  operator
	seen   map[string]bool
	keyBuf []byte
}

func (d *distinctOp) schema() Schema { return d.child.schema() }

func (d *distinctOp) open() error {
	d.seen = make(map[string]bool)
	return d.child.open()
}

func (d *distinctOp) close() error     { return d.child.close() }
func (d *distinctOp) stableRows() bool { return d.child.stableRows() }

func (d *distinctOp) next() (Row, error) {
	for {
		r, err := d.child.next()
		if err != nil {
			return nil, err
		}
		d.keyBuf = appendKey(d.keyBuf[:0], r)
		if d.seen[string(d.keyBuf)] {
			continue
		}
		d.seen[string(d.keyBuf)] = true
		return r, nil
	}
}
