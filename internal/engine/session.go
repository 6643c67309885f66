package engine

import (
	"context"
	"sync"

	"sgb/internal/core"
	"sgb/internal/obs"
)

// Settings is the complete set of session-scoped execution knobs. A snapshot
// of Settings is taken when a statement starts and is threaded through
// planning and execution (via queryCtx), so a statement's behaviour is fixed
// at plan time: concurrent sessions changing their own knobs can never race a
// statement that is already in flight, and two sessions can hold different
// settings against the same shared DB.
type Settings struct {
	// SGBAlgorithm selects the physical similarity group-by implementation
	// (All-Pairs, Bounds-Checking, or the on-the-fly index). It is a manual
	// override only when SGBAuto is false; under SGBAuto it is the fallback
	// hint the optimizer uses when cost-based selection has nothing to go on.
	SGBAlgorithm core.Algorithm
	// SGBAuto (the default for new DBs) lets the cost-based optimizer choose
	// the SGB algorithm per query from the statistics catalog.
	SGBAuto bool
	// Limits bounds the resources a single statement may consume.
	Limits Limits
	// NoOptimize disables the cost-based analyzer rules, producing the naive
	// plan lowering. Semantics are unchanged; plan-equivalence tests use it
	// as the reference.
	NoOptimize bool
}

// Session is a per-client view of a shared DB: it carries its own Settings
// while executing against the DB's catalog and statement lock. Sessions are
// cheap; the network server creates one per connection. A Session is safe for
// concurrent use, though the server executes at most one statement per
// session at a time.
//
// Settings start as a snapshot of the DB-level defaults at creation time and
// evolve independently afterwards: SetLimits on one session never affects
// another session or the DB defaults.
type Session struct {
	db  *DB
	mu  sync.Mutex
	set Settings
}

// NewSession creates a session over db whose settings are initialized from
// the DB-level defaults.
func (db *DB) NewSession() *Session {
	return &Session{db: db, set: db.settings()}
}

// DB returns the shared database this session executes against.
func (s *Session) DB() *DB { return s.db }

// Settings returns a snapshot of the session's current settings.
func (s *Session) Settings() Settings {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set
}

// SetSGBAlgorithm forces the SGB physical implementation for subsequent
// statements on this session only, overriding cost-based selection.
func (s *Session) SetSGBAlgorithm(a core.Algorithm) {
	s.mu.Lock()
	s.set.SGBAlgorithm = a
	s.set.SGBAuto = false
	s.mu.Unlock()
}

// SetSGBAlgorithmAuto restores cost-based SGB algorithm selection for
// subsequent statements on this session only.
func (s *Session) SetSGBAlgorithmAuto() {
	s.mu.Lock()
	s.set.SGBAuto = true
	s.mu.Unlock()
}

// SetOptimizer enables or disables the cost-based analyzer rules for
// subsequent statements on this session only.
func (s *Session) SetOptimizer(on bool) {
	s.mu.Lock()
	s.set.NoOptimize = !on
	s.mu.Unlock()
}

// SetLimits installs per-query resource limits for subsequent statements on
// this session only. The zero Limits removes all bounds.
func (s *Session) SetLimits(lim Limits) {
	s.mu.Lock()
	s.set.Limits = lim
	s.mu.Unlock()
}

// Exec parses and executes one SQL statement under the session's settings.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under the session's
// settings, with DB.ExecContext's cancellation semantics.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return s.db.execSQL(ctx, sql, s.Settings())
}

// ExecContextTrace is ExecContext recording onto a caller-provided trace.
// The network server passes the trace carrying the query's propagated trace
// ID here, so engine spans (parse/plan/execute) and commit-hook spans (WAL
// append/fsync) join the server's wire-level spans on one trace. tr must not
// be nil.
func (s *Session) ExecContextTrace(ctx context.Context, sql string, tr *obs.Trace) (*Result, error) {
	return s.db.execSQLTrace(ctx, sql, s.Settings(), tr)
}

// ExecStmtContext executes an already parsed statement under the session's
// settings.
func (s *Session) ExecStmtContext(ctx context.Context, stmt Statement) (*Result, error) {
	return s.db.execTraced(ctx, stmt, obs.NewTrace(), s.Settings(), "")
}
