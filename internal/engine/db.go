package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sgb/internal/core"
	"sgb/internal/obs"
)

// DB is the engine's top-level handle: a catalog plus its default Session.
// DB.Exec, SetSGBAlgorithm, SetLimits, LastTrace and the other Session
// methods are the default session's, promoted; NewSession hands out further
// sessions that start from a copy of its settings.
//
// A DB is safe for concurrent use. Statements are isolated by a
// readers-writer lock: read-only statements (SELECT, EXPLAIN) run
// concurrently with each other, while DDL/DML (CREATE, DROP, INSERT, UPDATE,
// DELETE, COPY, index maintenance) runs exclusively. A statement that fails
// or is canceled mid-flight leaves no partial catalog or table mutations
// behind.
type DB struct {
	// Session is the default session. Its own mutex guards only its
	// settings and last-statement state.
	Session

	// mu is the statement lock: RLock for read-only statements, Lock for
	// DDL/DML.
	mu  sync.RWMutex
	cat *Catalog

	metrics atomic.Pointer[obs.Registry]

	// traceEvery is the plan-capture sampling rate: every Nth statement runs
	// with instrumented operators and stashes its EXPLAIN ANALYZE tree on the
	// trace. 1 = every statement, 0 = never. sampleTick is the statement
	// counter the rate divides.
	traceEvery atomic.Int64
	sampleTick atomic.Uint64

	// commitHook, when set, is invoked for every successfully applied
	// mutating statement while the exclusive statement lock is still held —
	// the engine's durability seam. See SetCommitHook.
	commitHook atomic.Pointer[CommitHook]

	// execHook, when set, runs with every statement's SQL text on the
	// executing goroutine before parsing. It exists for fault injection: the
	// chaos tests install a hook that panics or stalls at a precise engine
	// point. See SetExecHook.
	execHook atomic.Pointer[func(string)]

	// gov is the process-wide memory governor: statement admission and
	// scratch-memory accounting. See SetMemoryBudget.
	gov memGovernor

	// aaMu guards the auto-ANALYZE trigger state: aaCh is the pending-table
	// queue (nil = disabled), aaPending dedups queued tables by lowercased
	// name. See autoanalyze.go.
	aaMu      sync.Mutex
	aaCh      chan string
	aaPending map[string]struct{}
}

// NewDB returns an empty database whose default session has the zero
// Settings: SGB algorithm selection is auto (the cost-based optimizer picks
// per query), no limits, optimizer on. Each DB owns its metrics registry;
// callers wanting process-wide aggregation can swap in obs.Default via
// SetMetrics.
func NewDB() *DB {
	db := &DB{cat: NewCatalog()}
	db.Session.db = db
	db.metrics.Store(obs.NewRegistry())
	db.traceEvery.Store(DefaultTraceSampling)
	db.gov.db = db
	db.gov.queueCap = defaultMemQueueCap
	return db
}

// SetExecHook installs a hook invoked with every statement's SQL text on the
// executing goroutine, before parsing; nil removes it. It is a fault-
// injection seam for the chaos tests — a hook that panics simulates an engine
// bug inside statement execution, proving the serving layer's isolation.
func (db *DB) SetExecHook(h func(sql string)) {
	if h == nil {
		db.execHook.Store(nil)
		return
	}
	db.execHook.Store(&h)
}

// DefaultTraceSampling is the default plan-capture rate: one statement in 64
// runs instrumented. Cheap enough to leave on in production (the acceptance
// bar is <3% overhead on the benchmark probes) while still populating the
// server's slow-query log with real operator actuals.
const DefaultTraceSampling = 64

// SetTraceSampling sets the plan-capture sampling rate: every nth statement
// executes with instrumented operators and attaches its EXPLAIN ANALYZE tree
// (per-operator actual rows/loops/time) to the statement trace. n = 1
// instruments every statement, n = 0 disables capture entirely.
func (db *DB) SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	db.traceEvery.Store(int64(n))
}

// sampleNow decides whether the statement starting now is a sampled one.
func (db *DB) sampleNow() bool {
	n := db.traceEvery.Load()
	if n <= 0 {
		return false
	}
	return db.sampleTick.Add(1)%uint64(n) == 0
}

// Metrics exposes the engine's metrics registry: query/error counters,
// latency histograms, and the cumulative SGB cost counters of the paper's
// analysis (sgb_distance_comps_total and friends).
func (db *DB) Metrics() *obs.Registry { return db.metrics.Load() }

// SetMetrics replaces the metrics registry (e.g. with obs.Default to share
// one registry across several DBs in a process). reg must not be nil.
func (db *DB) SetMetrics(reg *obs.Registry) {
	if reg != nil {
		db.metrics.Store(reg)
	}
}

// CommitHook is the durability seam: it runs after a mutating statement
// (DDL/DML) has applied successfully, while the exclusive statement lock is
// still held, and before the statement is reported successful to the caller.
// A write-ahead log hooks here to make the statement durable; a non-nil
// error fails the statement with a *DurabilityError, so it is never
// acknowledged without its log record.
//
// sql is the statement's original text when it entered through ExecContext /
// Session.ExecContext, and "" for pre-parsed statements (ExecStmtContext),
// which a logging hook may refuse. tr is the statement's live trace (never
// nil): a WAL hook records wal_append/wal_fsync spans on it so the commit's
// durability cost shows up in the query's end-to-end breakdown. The hook must
// not re-enter the DB.
type CommitHook func(stmt Statement, sql string, tr *obs.Trace) error

// SetCommitHook installs hook (nil removes it). It is normally wired once at
// boot, after recovery replay, so replayed statements are not re-logged.
func (db *DB) SetCommitHook(hook CommitHook) {
	if hook == nil {
		db.commitHook.Store(nil)
		return
	}
	db.commitHook.Store(&hook)
}

// DurabilityError reports that a statement applied in memory but its commit
// hook (the write-ahead log) failed, so durability is not guaranteed and the
// statement was not acknowledged. The in-process state may be ahead of the
// durable state; the serving layer treats this as fatal for subsequent
// writes.
type DurabilityError struct {
	Err error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("engine: commit not durable: %v", e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// Catalog exposes the table catalog for programmatic loading (the data
// generators bypass SQL INSERT for bulk loads). The catalog is not
// independently locked; load data before serving concurrent queries, or
// synchronize externally.
func (db *DB) Catalog() *Catalog { return db.cat }

// Result is a materialized statement result.
type Result struct {
	// Columns names the output columns (empty for DDL/DML).
	Columns []string
	// Rows holds the output tuples.
	Rows []Row
	// RowsAffected counts rows inserted, updated, deleted or copied by DML.
	RowsAffected int
}

// isReadOnly reports whether stmt cannot mutate the catalog or table data,
// and may therefore share the statement lock with other readers. EXPLAIN
// ANALYZE executes its query but discards the rows, so it is a reader too.
func isReadOnly(stmt Statement) bool {
	switch stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		return true
	}
	return false
}

// execTraced is the shared statement driver: it applies the configured time
// limit, takes the statement lock in the right mode, runs the statement, and
// folds the outcome into the metrics registry and the session state. The
// session's settings are snapshotted once here — the statement's whole
// execution shape (algorithm, limits, optimizer) is fixed at plan time, so
// concurrent sessions adjusting their own knobs cannot affect it. sql is the
// statement's original text ("" for pre-parsed statements), handed to the
// commit hook for write-ahead logging.
func (s *Session) execTraced(ctx context.Context, stmt Statement, tr *obs.Trace, sql string) (*Result, error) {
	db := s.db
	set := s.Settings()
	m := db.Metrics()
	m.Counter("engine_statements_total").Inc()

	lim := set.Limits
	parent := ctx
	if lim.MaxExecutionTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.MaxExecutionTime)
		defer cancel()
	}

	var res *Result
	err := ctx.Err()
	// Memory admission: when a process budget (or per-query memory limit) is
	// configured, the statement gets an account with the governor before it
	// takes the statement lock — an exhausted pool queues or sheds it here,
	// where it holds no locks, rather than mid-execution.
	var acct *memAccount
	if err == nil {
		tr.SetState("admitting")
		acct, err = db.gov.admit(ctx, lim.MaxMemoryBytes)
		if acct != nil {
			defer acct.release()
		}
	}
	if err == nil {
		qc := &queryCtx{ctx: ctx, set: set, sess: s, mem: acct}
		if qc.analyze = db.sampleNow(); qc.analyze {
			m.Counter("engine_statements_sampled_total").Inc()
		}
		tr.SetState("executing")
		if isReadOnly(stmt) {
			db.mu.RLock()
			res, err = db.execStmt(stmt, tr, qc)
			db.mu.RUnlock()
		} else {
			db.mu.Lock()
			// SELECT-ish statements record their own plan/execute spans inside
			// execStmt; give every other write its execute span here so plain
			// DML/DDL traces still cover the whole application phase.
			var span *obs.Span
			if ins, ok := stmt.(*InsertStmt); !ok || ins.Query == nil {
				span = tr.StartSpan("execute")
			}
			res, err = db.execStmt(stmt, tr, qc)
			if span != nil {
				span.End()
			}
			// Durability seam: the statement has applied; log it before it
			// can be acknowledged, while the exclusive lock still serializes
			// the commit order against other writers and checkpoints.
			if err == nil {
				if hp := db.commitHook.Load(); hp != nil {
					tr.SetState("committing")
					hookStart := time.Now()
					herr := (*hp)(stmt, sql, tr)
					m.Histogram("engine_commit_hook_seconds", obs.DefBuckets).
						Observe(time.Since(hookStart).Seconds())
					if herr != nil {
						m.Counter("engine_commit_hook_failures_total").Inc()
						err = &DurabilityError{Err: herr}
					}
				}
			}
			// With the write committed (and durable), check whether it pushed
			// the table's statistics past the staleness threshold; if so, queue
			// a background re-ANALYZE. Non-blocking — see autoanalyze.go.
			if err == nil {
				db.maybeAutoAnalyze(stmt)
			}
			db.mu.Unlock()
		}
	}
	// A deadline installed by MaxExecutionTime (rather than by the caller's
	// own context) surfaces as the typed limit error, not a cancellation.
	if errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil && lim.MaxExecutionTime > 0 {
		err = &ResourceLimitError{Resource: "time", Limit: lim.MaxExecutionTime.String()}
	}
	s.mu.Lock()
	s.lastTrace = tr
	s.mu.Unlock()
	if err != nil {
		m.Counter("engine_errors_total").Inc()
		var rle *ResourceLimitError
		switch {
		case errors.As(err, &rle):
			m.Counter("engine_queries_limited_total").Inc()
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			m.Counter("engine_queries_canceled_total").Inc()
		}
	}
	return res, err
}

// recordQueryMetrics folds one executed query into the registry, the trace
// annotations and the issuing session's LastSGBStats.
func (db *DB) recordQueryMetrics(pc *planContext, tr *obs.Trace, dur time.Duration, rowsOut int) {
	m := db.Metrics()
	m.Counter("engine_queries_total").Inc()
	m.Counter("engine_rows_returned_total").Add(int64(rowsOut))
	m.Histogram("engine_query_seconds", obs.DefBuckets).Observe(dur.Seconds())
	var last *core.Stats
	if n := len(pc.sgbOps); n > 0 {
		stats := pc.sgbOps[n-1].lastStats
		last = &stats
	}
	s := pc.qc.sess
	s.mu.Lock()
	s.lastSGBStats = last
	s.mu.Unlock()
	for _, op := range pc.sgbOps {
		s := op.lastStats
		m.Counter("sgb_queries_total").Inc()
		m.Counter("sgb_points_total").Add(int64(s.Points))
		m.Counter("sgb_distance_comps_total").Add(s.DistanceComps)
		m.Counter("sgb_rect_tests_total").Add(s.RectTests)
		m.Counter("sgb_hull_tests_total").Add(s.HullTests)
		m.Counter("sgb_window_queries_total").Add(s.WindowQueries)
		m.Counter("sgb_index_updates_total").Add(s.IndexUpdates)
		m.Counter("sgb_groups_merged_total").Add(s.GroupsMerged)
		m.Counter("sgb_rounds_total").Add(int64(s.Rounds))
		tr.Annotate("points=%d distance_comps=%d rounds=%d",
			s.Points, s.DistanceComps, s.Rounds)
		// Surface what the planner picked: operators can tell auto selection
		// from a manual \alg override, so \timing and the slowlog show both
		// the algorithm and how it was chosen.
		how := "manual"
		if op.algAuto {
			how = "auto"
		}
		tr.Annotate("sgb_alg=%s (%s)", op.algorithm, how)
	}
}

func (db *DB) execStmt(stmt Statement, tr *obs.Trace, qc *queryCtx) (*Result, error) {
	switch stmt := stmt.(type) {
	case *CreateTableStmt:
		if _, err := db.cat.Create(stmt.Name, stmt.Columns); err != nil {
			return nil, err
		}
		db.Metrics().Gauge("engine_catalog_tables").Set(float64(len(db.cat.Names())))
		return &Result{}, nil

	case *DropTableStmt:
		if deps := db.MatViewsOn(stmt.Name); len(deps) != 0 {
			return nil, fmt.Errorf("engine: cannot drop table %q: materialized view %s depends on it",
				stmt.Name, deps[0])
		}
		db.cat.Drop(stmt.Name)
		db.Metrics().Gauge("engine_catalog_tables").Set(float64(len(db.cat.Names())))
		return &Result{}, nil

	case *CreateViewStmt:
		// Validate the definition eagerly so broken views fail at
		// creation, not first use.
		pc := &planContext{db: db}
		if _, err := pc.planSelect(stmt.Query); err != nil {
			return nil, fmt.Errorf("engine: invalid view definition: %w", err)
		}
		if err := db.cat.CreateView(stmt.Name, stmt.Query); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *DropViewStmt:
		if !db.cat.DropView(stmt.Name) {
			return nil, fmt.Errorf("engine: unknown view %q", stmt.Name)
		}
		return &Result{}, nil

	case *CreateMaterializedViewStmt:
		// Validate both ways a definition can be broken: as a query (it must
		// plan) and as a maintainable stream (it must match the incremental
		// shape — see matViewShape).
		pc := &planContext{db: db}
		if _, err := pc.planSelect(stmt.Query); err != nil {
			return nil, fmt.Errorf("engine: invalid materialized view definition: %w", err)
		}
		shape, err := db.matViewShape(stmt.Query)
		if err != nil {
			return nil, err
		}
		mv := &MatView{Name: stmt.Name, Query: stmt.Query, SQL: stmt.QuerySQL, Shape: shape}
		if err := db.cat.CreateMatView(mv); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *DropMaterializedViewStmt:
		if !db.cat.DropMatView(stmt.Name) {
			return nil, fmt.Errorf("engine: unknown materialized view %q", stmt.Name)
		}
		return &Result{}, nil

	case *InsertStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		// Stage every row before touching the table: Table.Insert validates
		// the whole batch up front, so a failed or canceled INSERT leaves no
		// partial rows behind.
		var rows []Row
		if stmt.Query != nil {
			pc := &planContext{db: db, qc: qc}
			span := tr.StartSpan("plan")
			op, err := pc.planSelect(stmt.Query)
			span.End()
			if err != nil {
				return nil, err
			}
			root := op
			if qc != nil && qc.analyze {
				root = instrument(op)
			}
			span = tr.StartSpan("execute")
			qrows, err := materialize(root, qc)
			span.End()
			if err != nil {
				return nil, err
			}
			if qc != nil && qc.analyze {
				tr.SetPlan(explainPlan(root))
			}
			rows = make([]Row, len(qrows))
			for i, row := range qrows {
				rows[i] = row.Clone()
			}
		} else {
			rows = make([]Row, 0, len(stmt.Rows))
			for _, exprs := range stmt.Rows {
				if err := qc.tick(); err != nil {
					return nil, err
				}
				row := make(Row, len(exprs))
				for i, e := range exprs {
					f, err := compileExpr(e, nil, nil)
					if err != nil {
						return nil, fmt.Errorf("engine: INSERT values must be constants: %w", err)
					}
					if row[i], err = f(nil); err != nil {
						return nil, err
					}
				}
				rows = append(rows, row)
			}
		}
		if err := t.Insert(rows...); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: len(rows)}, nil

	case *UpdateStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		var pred evalFn
		if stmt.Where != nil {
			pc := &planContext{db: db, qc: qc}
			if pred, err = compileExpr(stmt.Where, t.Schema, pc); err != nil {
				return nil, err
			}
		}
		type assign struct {
			col int
			fn  evalFn
		}
		assigns := make([]assign, len(stmt.Set))
		for i, sc := range stmt.Set {
			col, err := t.Schema.Resolve("", sc.Column)
			if err != nil {
				return nil, err
			}
			pc := &planContext{db: db, qc: qc}
			fn, err := compileExpr(sc.Value, t.Schema, pc)
			if err != nil {
				return nil, err
			}
			assigns[i] = assign{col: col, fn: fn}
		}
		// Evaluate the whole scan into a staged change list before applying
		// anything, so an evaluation error or cancellation mid-table leaves
		// every row untouched.
		type change struct {
			ri  int
			row Row
		}
		var changes []change
		for ri, row := range t.Rows {
			if err := qc.tick(); err != nil {
				return nil, err
			}
			if pred != nil {
				v, err := pred(row)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			// Evaluate all assignments against the pre-update row, then
			// apply — SQL's simultaneous-assignment semantics.
			newVals := make([]Value, len(assigns))
			for i, a := range assigns {
				v, err := a.fn(row)
				if err != nil {
					return nil, err
				}
				if !v.IsNull() {
					want := t.Schema[a.col].T
					if want == TypeFloat && v.T == TypeInt {
						v = NewFloat(float64(v.I))
					} else if v.T != want {
						return nil, fmt.Errorf("engine: UPDATE column %s expects %s, got %s",
							t.Schema[a.col].Name, want, v.T)
					}
				}
				newVals[i] = v
			}
			updated := row.Clone()
			for i, a := range assigns {
				updated[a.col] = newVals[i]
			}
			changes = append(changes, change{ri: ri, row: updated})
		}
		for _, c := range changes {
			t.Rows[c.ri] = c.row
		}
		res := &Result{RowsAffected: len(changes)}
		if res.RowsAffected > 0 {
			t.invalidateIndexes()
			// Only reached after every change applied: an error or
			// cancellation above returns before the staged changes (and thus
			// the staleness counter) touch the table.
			t.statsNoteUpdate(res.RowsAffected)
		}
		return res, nil

	case *DeleteStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		if stmt.Where == nil {
			n := len(t.Rows)
			t.Rows = nil
			t.invalidateIndexes()
			t.statsNoteDelete(n)
			return &Result{RowsAffected: n}, nil
		}
		pc := &planContext{db: db, qc: qc}
		pred, err := compileExpr(stmt.Where, t.Schema, pc)
		if err != nil {
			return nil, err
		}
		// Build the survivor list in fresh storage and swap it in only after
		// the full scan succeeds, so a predicate error or cancellation
		// mid-table cannot leave a half-deleted relation.
		res := &Result{}
		keep := make([]Row, 0, len(t.Rows))
		for _, row := range t.Rows {
			if err := qc.tick(); err != nil {
				return nil, err
			}
			v, err := pred(row)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				res.RowsAffected++
			} else {
				keep = append(keep, row)
			}
		}
		t.Rows = keep
		if res.RowsAffected > 0 {
			t.invalidateIndexes()
			t.statsNoteDelete(res.RowsAffected)
		}
		return res, nil

	case *CreateIndexStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		if _, err := t.CreateIndex(stmt.Name, stmt.Column); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *DropIndexStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		if !t.DropIndex(stmt.Name) {
			return nil, fmt.Errorf("engine: no index %q on table %s", stmt.Name, stmt.Table)
		}
		return &Result{}, nil

	case *AnalyzeStmt:
		// ANALYZE runs as a write: it mutates the statistics catalog under
		// the exclusive lock and flows through the commit hook, so statistics
		// survive WAL replay deterministically.
		return db.analyzeTables(stmt.Table)

	case *CopyStmt:
		t, err := db.cat.Get(stmt.Table)
		if err != nil {
			return nil, err
		}
		n, err := copyFromCSV(t, stmt.Path)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n}, nil

	case *ExplainStmt:
		pc := &planContext{db: db, qc: qc}
		span := tr.StartSpan("plan")
		planStart := time.Now()
		op, err := pc.planSelect(stmt.Query)
		planDur := time.Since(planStart)
		span.End()
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"plan"}}
		if !stmt.Analyze {
			for _, line := range explainPlan(op) {
				res.Rows = append(res.Rows, Row{NewString(line)})
			}
			return res, nil
		}
		// EXPLAIN ANALYZE: wrap every operator, run the query to completion
		// (discarding its rows), and render the annotated tree.
		root := instrument(op)
		span = tr.StartSpan("execute")
		execStart := time.Now()
		rows, err := materialize(root, qc)
		execDur := time.Since(execStart)
		span.End()
		if err != nil {
			return nil, err
		}
		db.recordQueryMetrics(pc, tr, execDur, len(rows))
		for _, line := range explainPlan(root) {
			res.Rows = append(res.Rows, Row{NewString(line)})
		}
		res.Rows = append(res.Rows,
			Row{NewString(fmt.Sprintf("Planning Time: %.3f ms", float64(planDur.Nanoseconds())/1e6))},
			Row{NewString(fmt.Sprintf("Execution Time: %.3f ms", float64(execDur.Nanoseconds())/1e6))})
		return res, nil

	case *SelectStmt:
		pc := &planContext{db: db, qc: qc}
		span := tr.StartSpan("plan")
		op, err := pc.planSelect(stmt)
		span.End()
		if err != nil {
			return nil, err
		}
		// A sampled statement runs the instrumented tree, so its trace carries
		// the EXPLAIN ANALYZE rendering with per-operator actuals.
		root := op
		if qc != nil && qc.analyze {
			root = instrument(op)
		}
		span = tr.StartSpan("execute")
		execStart := time.Now()
		rows, err := materialize(root, qc)
		execDur := time.Since(execStart)
		span.End()
		if err != nil {
			return nil, err
		}
		db.recordQueryMetrics(pc, tr, execDur, len(rows))
		if qc != nil && qc.analyze {
			tr.SetPlan(explainPlan(root))
		}
		return &Result{Columns: op.schema().Names(), Rows: rows}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// Query is a convenience wrapper asserting the statement is a SELECT.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query with ExecContext's cancellation semantics.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := stmt.(*SelectStmt); !ok {
		return nil, fmt.Errorf("engine: Query expects a SELECT statement")
	}
	return db.ExecStmtContext(ctx, stmt)
}
