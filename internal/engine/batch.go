package engine

import "io"

// defaultBatchSize is the number of rows moved per nextBatch call when the
// session does not override it (DB.SetBatchSize). ~1K rows amortizes the
// interface-call and cancellation-poll overhead of the Volcano iterator to
// noise while keeping per-batch buffers comfortably cache-resident.
const defaultBatchSize = 1024

// DefaultBatchSize reports the engine's default batch row count — the
// granularity the vectorized executor (and the wire protocol's row-batch
// streaming) uses when no session override is set.
func DefaultBatchSize() int { return defaultBatchSize }

// batchOperator is the vectorized side of the Volcano interface. nextBatch
// appends up to cap(dst) rows (defaultBatchSize when dst has no capacity)
// onto dst[:0] and returns the filled slice; at end of stream it returns
// (nil, io.EOF). A non-nil batch is never returned together with an error.
//
// The dst slice header is owned by the caller and reused across calls; the
// Row values appended into it must remain valid after the next call (they
// are either references to table storage or freshly allocated), so consumers
// may retain them.
type batchOperator interface {
	operator
	nextBatch(dst []Row) ([]Row, error)
}

// fetchBatch pulls one batch from op: directly when op implements
// batchOperator, otherwise through a row-at-a-time adapter so unconverted
// operators compose with batch consumers unchanged. The adapter polls qc once
// per batch it assembles: row-at-a-time children rely on their own tick()
// stride, but an operator chain with no batch-aware member in it would
// otherwise only observe cancellation every cancelCheckStride next() calls
// per operator — the poll here restores the one-check-per-batch guarantee the
// batch contract promises regardless of what op is.
func fetchBatch(op operator, dst []Row, qc *queryCtx) ([]Row, error) {
	if b, ok := op.(batchOperator); ok {
		return b.nextBatch(dst)
	}
	if err := qc.poll(); err != nil {
		return nil, err
	}
	limit := cap(dst)
	if limit == 0 {
		limit = defaultBatchSize
	}
	dst = dst[:0]
	for len(dst) < limit {
		r, err := op.next()
		if err == io.EOF {
			if len(dst) == 0 {
				return nil, io.EOF
			}
			return dst, nil
		}
		if err != nil {
			return nil, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// batchCap resolves the row capacity of a caller-supplied batch buffer.
func batchCap(dst []Row) int {
	if c := cap(dst); c > 0 {
		return c
	}
	return defaultBatchSize
}

// ---- batch implementations for the pipeline operators ----

func (s *scanOp) nextBatch(dst []Row) ([]Row, error) {
	if s.pos >= len(s.table.Rows) {
		return nil, io.EOF
	}
	if err := s.qc.poll(); err != nil {
		return nil, err
	}
	n := batchCap(dst)
	if rest := len(s.table.Rows) - s.pos; n > rest {
		n = rest
	}
	dst = append(dst[:0], s.table.Rows[s.pos:s.pos+n]...)
	s.pos += n
	return dst, nil
}

func (v *valuesOp) nextBatch(dst []Row) ([]Row, error) {
	if v.pos >= len(v.rows) {
		return nil, io.EOF
	}
	n := batchCap(dst)
	if rest := len(v.rows) - v.pos; n > rest {
		n = rest
	}
	dst = append(dst[:0], v.rows[v.pos:v.pos+n]...)
	v.pos += n
	return dst, nil
}

func (s *indexScanOp) nextBatch(dst []Row) ([]Row, error) {
	if s.pos >= len(s.positions) {
		return nil, io.EOF
	}
	n := batchCap(dst)
	if rest := len(s.positions) - s.pos; n > rest {
		n = rest
	}
	dst = dst[:0]
	for _, p := range s.positions[s.pos : s.pos+n] {
		dst = append(dst, s.table.Rows[p])
	}
	s.pos += n
	return dst, nil
}

func (r *renameOp) nextBatch(dst []Row) ([]Row, error) {
	return fetchBatch(r.child, dst, r.qc)
}

func (f *filterOp) nextBatch(dst []Row) ([]Row, error) {
	limit := batchCap(dst)
	if f.buf == nil {
		f.buf = make([]Row, 0, limit)
	}
	dst = dst[:0]
	for {
		batch, err := fetchBatch(f.child, f.buf, f.qc)
		if err == io.EOF {
			if len(dst) == 0 {
				return nil, io.EOF
			}
			return dst, nil
		}
		if err != nil {
			return nil, err
		}
		for _, r := range batch {
			v, err := f.pred(r)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				dst = append(dst, r)
			}
		}
		// Partial batches are fine; returning as soon as anything qualified
		// keeps latency low under selective predicates. The qualify-nothing
		// loop polls here itself: it must not depend on the child for
		// cancellation, since batch-aware children over in-memory rows
		// (valuesOp) never poll.
		if len(dst) > 0 {
			return dst, nil
		}
		if err := f.qc.poll(); err != nil {
			return nil, err
		}
	}
}

// nextBatch evaluates the projection over a child batch, carving the output
// rows out of one flat Value arena — a single allocation per batch instead of
// one per row. The arena is never recycled, so the produced rows stay valid
// for consumers that retain them; its size is charged against the statement's
// memory account.
func (p *projectOp) nextBatch(dst []Row) ([]Row, error) {
	if p.buf == nil {
		p.buf = make([]Row, 0, batchCap(dst))
	}
	batch, err := fetchBatch(p.child, p.buf, p.qc)
	if err != nil {
		return nil, err
	}
	fns := p.fns
	dst = dst[:0]
	if err := p.qc.growMem(int64(len(batch)) * memRowBytes(len(fns))); err != nil {
		return nil, err
	}
	arena := make([]Value, len(batch)*len(fns))
	for _, r := range batch {
		out := arena[:len(fns):len(fns)]
		arena = arena[len(fns):]
		for i, f := range fns {
			v, err := f(r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		dst = append(dst, out)
	}
	return dst, nil
}

func (l *limitOp) nextBatch(dst []Row) ([]Row, error) {
	if l.n >= 0 && l.seen >= l.n {
		return nil, io.EOF
	}
	if l.buf == nil {
		l.buf = make([]Row, 0, batchCap(dst))
	}
	for {
		batch, err := fetchBatch(l.child, l.buf, l.qc)
		if err != nil {
			return nil, err
		}
		if skip := l.offset - l.skipped; skip > 0 {
			if skip > len(batch) {
				skip = len(batch)
			}
			l.skipped += skip
			batch = batch[skip:]
			if len(batch) == 0 {
				// Same reasoning as the filter's qualify-nothing loop: the
				// OFFSET-skipping spin must poll for itself.
				if err := l.qc.poll(); err != nil {
					return nil, err
				}
				continue
			}
		}
		if l.n >= 0 && len(batch) > l.n-l.seen {
			batch = batch[:l.n-l.seen]
		}
		l.seen += len(batch)
		return append(dst[:0], batch...), nil
	}
}
