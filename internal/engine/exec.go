package engine

import (
	"fmt"
	"io"
	"math"
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

// exactRows reports how many rows op will produce when that is known before
// it runs: a scan's or a values list's row count, passed up through the
// operators that map rows one to one. Estimates (a filter's, a join's) are
// not exact and report false.
func exactRows(op operator) (int, bool) {
	switch o := op.(type) {
	case *scanOp:
		return len(o.table.Rows), true
	case *valuesOp:
		return len(o.rows), true
	case *projectOp:
		return exactRows(o.child)
	case *renameOp:
		return exactRows(o.child)
	case *instrumentedOp:
		return exactRows(o.child)
	}
	return 0, false
}

// materialize runs an operator to completion and buffers its output, copying
// borrowed rows into an arena; the buffer is sized once when exactRows knows
// the count. Once per cancelCheckStride rows (and once for the remainder at
// end of stream) it polls for cancellation and charges the new rows against
// the statement's row and memory budgets; the copies are covered by that
// per-row charge, so the arena charges nothing itself. qc may be nil (no
// limits, no cancellation).
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
	if n, ok := exactRows(op); ok {
		rows = make([]Row, 0, n)
	}
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
	leftKeys, rightKeys []operand

	// keys maps a build row's canonical key to its bucket id. Bucket b's rows
	// are a chain from head[b] to tail[b], in build order.
	keys       keyTable
	rows       []Row   // the build rows
	chain      []int32 // the following row of the same bucket, -1 at its tail
	head, tail []int32
	key        []Value // one row's canonical key values
	probing    Row     // current left row
	match      int32   // next row of probing's bucket to emit, -1 when none
}

// newHashJoinOp joins left and right on the key pairs; lk and rk compile
// against the unpruned inputs, and the output keeps the columns refs may
// reference (all of them for nil refs).
func newHashJoinOp(left, right operator, lk, rk []operand, refs *refSet, qc *queryCtx) *hashJoinOp {
	return &hashJoinOp{
		joinOutput: newJoinOutput(left.schema(), right.schema(), refs, qc),
		left:       left, right: right, leftKeys: lk, rightKeys: rk,
		key: make([]Value, len(lk)),
	}
}

func (j *hashJoinOp) schema() Schema { return j.sch }

func (j *hashJoinOp) open() error {
	if err := j.right.open(); err != nil {
		return err
	}
	j.keys = newKeyTable()
	j.rows, j.chain, j.head, j.tail = j.rows[:0], j.chain[:0], j.head[:0], j.tail[:0]
	if n, ok := exactRows(j.right); ok && n > cap(j.rows) { // a bound: NULL keys build no row
		j.rows, j.chain = make([]Row, 0, n), make([]int32, 0, n)
	}
	// The chains keep the build rows, so borrowed ones are copied (and
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
		null, err := j.joinKey(r, j.rightKeys)
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
		at := int32(len(j.rows))
		j.rows, j.chain = append(j.rows, r), append(j.chain, -1)
		if b := j.keys.find(j.key); b >= 0 {
			j.chain[j.tail[b]], j.tail[b] = at, at
		} else {
			j.keys.add(j.key)
			j.head, j.tail = append(j.head, at), append(j.tail, at)
		}
	}
	if err := j.right.close(); err != nil {
		return err
	}
	j.probing, j.match = nil, -1
	return j.left.open()
}

func (j *hashJoinOp) close() error { return j.left.close() }

func (j *hashJoinOp) next() (Row, error) {
	for {
		if j.match >= 0 {
			right := j.rows[j.match]
			j.match = j.chain[j.match]
			return j.emit(j.probing, right), nil
		}
		l, err := j.left.next()
		if err != nil {
			return nil, err
		}
		null, err := j.joinKey(l, j.leftKeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		if b := j.keys.find(j.key); b >= 0 {
			j.probing, j.match = l, j.head[b]
		}
	}
}

// joinKey evaluates r's key into j.key as canonical values (SQL equality
// across INT and FLOAT); null reports a NULL key, which never matches.
func (j *hashJoinOp) joinKey(r Row, keys []operand) (null bool, _ error) {
	for i, k := range keys {
		v, err := k.eval(r)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		j.key[i] = canonicalKeyValue(v)
	}
	return false, nil
}

// exactInt64Bound is 2^63 as a float64 (exactly representable); floats in
// [-2^63, 2^63) that carry an integral value convert to int64 losslessly.
const exactInt64Bound = 9223372036854775808.0

// canonicalKeyValue maps a key value onto a canonical encoding under SQL
// numeric equality: a float holding an exact integer folds onto the int
// encoding, so INT 3 and FLOAT 3.0 hash identically, and ints stay ints, so
// keys above 2^53 stay distinct.
func canonicalKeyValue(v Value) Value {
	if v.T == TypeFloat && v.F == math.Trunc(v.F) &&
		v.F >= -exactInt64Bound && v.F < exactInt64Bound {
		return NewInt(int64(v.F))
	}
	return v
}

// keyTable maps key tuples to dense int32 ids in order of first insertion. A
// tuple of at most two INTs keys as its machine words (a table's tuples share
// one width, so a spare word is zero), any other as its appendKey encoding;
// INT 3 and FLOAT 3.0 differ unless the caller canonicalizes.
type keyTable struct {
	words map[[2]int64]int32
	enc   map[string]int32
	buf   []byte // the last encoded tuple; find and add reuse it
}

func newKeyTable() keyTable {
	return keyTable{words: make(map[[2]int64]int32), enc: make(map[string]int32)}
}

// wordKey packs vals into two words when they are at most two INTs.
func wordKey(vals []Value) (w [2]int64, ok bool) {
	for i, v := range vals {
		if i == 2 || v.T != TypeInt {
			return w, false
		}
		w[i] = v.I
	}
	return w, true
}

// find returns the id of vals, or -1 when the table does not hold it. The
// maps hold id+1, so a missing tuple reads as -1.
func (t *keyTable) find(vals []Value) int32 {
	if w, words := wordKey(vals); words {
		return t.words[w] - 1
	}
	t.buf = appendKey(t.buf[:0], vals)
	return t.enc[string(t.buf)] - 1
}

// add gives vals, which the last find reported absent, the next id.
func (t *keyTable) add(vals []Value) int32 {
	id := t.len()
	if w, words := wordKey(vals); words {
		t.words[w] = id + 1
	} else {
		t.enc[string(t.buf)] = id + 1
	}
	return id
}

func (t *keyTable) len() int32 { return int32(len(t.words) + len(t.enc)) }

// reset empties the table for reuse, keeping its maps' storage.
func (t *keyTable) reset() {
	if t.words == nil {
		*t = newKeyTable()
	}
	clear(t.words)
	clear(t.enc)
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

// aggTable is a grouping hash table: its key table maps the grouping values
// to a dense group id, in order of first appearance. Group g's output row,
// rows[g], holds its grouping values from the start and the calls' results,
// read from their state columns at the same id, once the input is drained;
// the rows are carved from shared chunks.
type aggTable struct {
	groupFns []operand
	calls    []*aggCall
	qc       *queryCtx // charges one budget row per new group
	keys     keyTable
	rows     []Row
	arena    []Value // the chunk new rows are carved from
	inRows   int64
	// scratch holds one row's group values; a new group's row copies them.
	scratch []Value
}

func newAggTable(groupFns []operand, calls []*aggCall, qc *queryCtx) *aggTable {
	for _, c := range calls {
		c.reset()
	}
	return &aggTable{
		groupFns: groupFns, calls: calls, qc: qc, keys: newKeyTable(),
		scratch: make([]Value, len(groupFns)),
	}
}

// addGroup appends a group with the values in scratch and returns its id.
func (t *aggTable) addGroup() int {
	width := len(t.scratch) + len(t.calls)
	if cap(t.arena)-len(t.arena) < width {
		t.arena = make([]Value, 0, max(64*width, 2*cap(t.arena)))
	}
	n := len(t.arena)
	t.arena = t.arena[:n+width]
	t.rows = append(t.rows, t.arena[n:n+width:n+width])
	copy(t.arena[n:], t.scratch)
	for _, c := range t.calls {
		c.grow(1)
	}
	return len(t.rows) - 1
}

func (t *aggTable) addRow(r Row) error {
	t.inRows++
	for i, g := range t.groupFns {
		var err error
		if t.scratch[i], err = g.eval(r); err != nil {
			return err
		}
	}
	id := t.keys.find(t.scratch)
	if id < 0 {
		if err := t.qc.addRows(1); err != nil {
			return err
		}
		if err := t.qc.growMem(memBucketOverheadBytes + memValueBytes*int64(len(t.scratch))); err != nil {
			return err
		}
		t.addGroup()
		id = t.keys.add(t.scratch)
	}
	return foldRow(t.calls, int(id), r)
}

// finish fills in every group's aggregate results and returns the rows,
// [groupValues..., aggResults...], in group id order.
func (t *aggTable) finish() []Row {
	for g, row := range t.rows {
		for j, c := range t.calls {
			row[len(t.scratch)+j] = c.result(g)
		}
	}
	return t.rows
}

// hashAggOp implements the standard Group-By: groups are the distinct values
// of the grouping expressions; output rows are [groupValues..., aggResults...].
// With no grouping expressions it produces exactly one global-aggregate row.
// Output is sorted by group key for determinism.
type hashAggOp struct {
	planEst
	child      operator
	groupExprs []operand
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
	if len(a.groupExprs) == 0 && len(tbl.rows) == 0 {
		// Global aggregate over an empty input still yields one row.
		tbl.addGroup()
	}
	a.inRows = tbl.inRows
	a.nGroups = len(tbl.rows)
	a.rows = tbl.finish()
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
// aggregate runs: it buffers the child's tuples in input order, feeds each
// one's grouping-space point to the core SGB-All/SGB-Any grouper with Add,
// and folds the aggregate calls over each group's member tuples. The output
// rows are [representativeGroupValues..., aggResults...], where the
// representative values come from the group's first member (similarity
// groups have no single key value). ELIMINATE'd tuples contribute to no
// group. Output order follows the smallest member position per group.
type sgbAggOp struct {
	planEst
	child      operator
	groupExprs []operand
	calls      []*aggCall
	sch        Schema
	spec       SimilaritySpec
	algorithm  core.Algorithm
	qc         *queryCtx

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

// group feeds the tuples' grouping-space points, in input order, through the
// core grouper matching the spec's mode and the session's algorithm. Each
// tuple's grouping expressions are evaluated into one reused point, which Add
// copies into the grouper's own storage; that copy is what growMem charges.
// The grouper reserves its storage once: for exactly len(tuples) points, and
// for the planner's group estimate, which cannot exceed them.
func (a *sgbAggOp) group(tuples []Row, opt core.Options) (*core.Result, error) {
	dim := len(a.groupExprs)
	if err := a.qc.growMem(int64(dim) * int64(len(tuples)) * 8); err != nil {
		return nil, err
	}
	var g interface {
		Reserve(points, groups int)
		Add(geom.Point) (int, error)
		Finish() (*core.Result, error)
	}
	if a.spec.Mode == SGBAllMode {
		all, err := core.NewAllGrouper(opt)
		if err != nil {
			return nil, err
		}
		g = all.WithContext(a.qc.context())
	} else {
		if opt.Algorithm == core.BoundsChecking {
			opt.Algorithm = core.IndexBounds // SGB-Any has no bounds variant
		}
		anyG, err := core.NewAnyGrouper(opt)
		if err != nil {
			return nil, err
		}
		g = anyG.WithContext(a.qc.context())
	}
	groups := 0
	if est := a.EstRows(); est > 0 {
		groups = int(min(est, float64(len(tuples))))
	}
	g.Reserve(len(tuples), groups)
	p := make(geom.Point, dim)
	for _, r := range tuples {
		for i, e := range a.groupExprs {
			v, err := e.eval(r)
			switch {
			case err != nil:
				return nil, err
			case v.T == TypeFloat:
				p[i] = v.F
			case v.IsNull():
				return nil, fmt.Errorf("engine: NULL in similarity grouping attribute %d", i+1)
			default:
				if p[i], err = v.AsFloat(); err != nil {
					return nil, fmt.Errorf("engine: similarity grouping attribute %d: %v", i+1, err)
				}
			}
		}
		if _, err := g.Add(p); err != nil {
			return nil, err
		}
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
	res, err := a.group(tuples, core.Options{
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
	// Result group i is aggregate group id i; the output rows are carved
	// from one backing array.
	for _, c := range a.calls {
		c.reset()
		c.grow(len(res.Groups))
	}
	all := make([]Value, 0, len(res.Groups)*outWidth)
	if len(res.Groups) > cap(a.rows) {
		a.rows = make([]Row, 0, len(res.Groups))
	}
	for i, grp := range res.Groups {
		for _, id := range grp.IDs {
			if err := foldRow(a.calls, i, tuples[id]); err != nil {
				return err
			}
		}
		rep := tuples[grp.IDs[0]]
		for _, g := range a.groupExprs {
			v, err := g.eval(rep)
			if err != nil {
				return err
			}
			all = append(all, v)
		}
		for _, c := range a.calls {
			all = append(all, c.result(i))
		}
		a.rows = append(a.rows, all[i*outWidth:(i+1)*outWidth:(i+1)*outWidth])
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
	child operator
	seen  keyTable
}

func (d *distinctOp) schema() Schema { return d.child.schema() }

func (d *distinctOp) open() error {
	d.seen = newKeyTable()
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
		if d.seen.find(r) >= 0 {
			continue
		}
		d.seen.add(r)
		return r, nil
	}
}
