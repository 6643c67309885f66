package engine

import (
	"context"
	"fmt"
	"sync"

	"sgb/internal/core"
	"sgb/internal/obs"
)

// Settings is the complete set of session-scoped execution knobs. A snapshot
// of Settings is taken when a statement starts and is threaded through
// planning and execution (via queryCtx), so a statement's behaviour is fixed
// at plan time: concurrent sessions changing their own knobs can never race a
// statement that is already in flight, and two sessions can hold different
// settings against the same shared DB. The zero Settings is the default:
// cost-based SGB algorithm selection, no limits, optimizer on.
type Settings struct {
	// SGBAlgorithm selects the physical similarity group-by implementation.
	// Its zero value, SGBAuto, lets the cost-based optimizer choose per query
	// from the statistics catalog.
	SGBAlgorithm SGBAlgorithm
	// Limits bounds the resources a single statement may consume.
	Limits Limits
	// NoOptimize disables the cost-based analyzer rules, producing the naive
	// plan lowering. Semantics are unchanged; plan-equivalence tests use it
	// as the reference.
	NoOptimize bool
}

// SGBAlgorithm is a session's choice of physical similarity group-by
// implementation: SGBAuto (the zero value) leaves it to the cost-based
// optimizer, the others force one of the paper's three variants.
type SGBAlgorithm uint8

const (
	// SGBAuto picks the cost-minimal variant per query.
	SGBAuto SGBAlgorithm = iota
	// SGBAllPairs forces core.AllPairs.
	SGBAllPairs
	// SGBBounds forces core.BoundsChecking (SGB-All only; SGB-Any runs the
	// on-the-fly index instead).
	SGBBounds
	// SGBIndex forces core.IndexBounds, the on-the-fly index.
	SGBIndex
)

// String is the algorithm's spelling in sgbd's -alg flag, sgbcli's \alg and
// the wire's sgb_algorithm setting: auto, allpairs, bounds or index.
func (a SGBAlgorithm) String() string {
	switch a {
	case SGBAuto:
		return "auto"
	case SGBAllPairs:
		return "allpairs"
	case SGBBounds:
		return "bounds"
	case SGBIndex:
		return "index"
	}
	return fmt.Sprintf("SGBAlgorithm(%d)", uint8(a))
}

// ParseSGBAlgorithm is the inverse of SGBAlgorithm.String; ok is false for
// any other spelling.
func ParseSGBAlgorithm(s string) (SGBAlgorithm, bool) {
	for a := SGBAuto; a <= SGBIndex; a++ {
		if a.String() == s {
			return a, true
		}
	}
	return SGBAuto, false
}

// forced returns the core algorithm a manual choice pins; ok is false under
// SGBAuto.
func (a SGBAlgorithm) forced() (alg core.Algorithm, ok bool) {
	switch a {
	case SGBAllPairs:
		return core.AllPairs, true
	case SGBBounds:
		return core.BoundsChecking, true
	case SGBIndex:
		return core.IndexBounds, true
	}
	return 0, false
}

// Session is a per-client view of a shared DB: it carries its own Settings
// and most-recent-statement state while executing against the DB's catalog
// and statement lock. Sessions are cheap; the network server creates one per
// connection, and every DB embeds a default one that DB.Exec and the DB's
// setters run on. A Session is safe for concurrent use; LastTrace and
// LastSGBStats then describe whichever statement finished last.
//
// A new Session starts from a copy of the DB's default settings and evolves
// independently afterwards: SetLimits on one session never affects another
// session or the default.
type Session struct {
	db  *DB
	mu  sync.Mutex
	set Settings
	// lastTrace is the completed trace of the session's most recent
	// statement; lastSGBStats the SGB cost counters of its most recent query,
	// nil when that query ran no SGB operator.
	lastTrace    *obs.Trace
	lastSGBStats *core.Stats
}

// NewSession creates a session over db whose settings start as a copy of
// the default session's.
func (db *DB) NewSession() *Session {
	return &Session{db: db, set: db.Settings()}
}

// Settings returns a snapshot of the session's current settings.
func (s *Session) Settings() Settings {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set
}

// SetSGBAlgorithm selects the SGB physical implementation for subsequent
// statements on this session: SGBAuto restores cost-based selection, the
// other values override it.
func (s *Session) SetSGBAlgorithm(a SGBAlgorithm) {
	s.mu.Lock()
	s.set.SGBAlgorithm = a
	s.mu.Unlock()
}

// SetOptimizer enables or disables the cost-based analyzer rules for
// subsequent statements on this session. Disabling (on=false) yields the
// naive plan lowering — semantically identical, used as the reference in
// plan-equivalence tests.
func (s *Session) SetOptimizer(on bool) {
	s.mu.Lock()
	s.set.NoOptimize = !on
	s.mu.Unlock()
}

// SetLimits installs per-query resource limits for subsequent statements on
// this session. The zero Limits removes all bounds.
func (s *Session) SetLimits(lim Limits) {
	s.mu.Lock()
	s.set.Limits = lim
	s.mu.Unlock()
}

// LastTrace returns the span trace (parse/plan/execute) of the session's
// most recent statement, or nil before the first one.
func (s *Session) LastTrace() *obs.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTrace
}

// LastSGBStats returns the core operator counters of the session's most
// recent query when it executed a similarity group-by, or nil.
func (s *Session) LastSGBStats() *core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSGBStats
}

// Exec parses and executes one SQL statement under the session's settings.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under the session's
// settings and a context: once ctx is canceled or its deadline expires, the
// statement aborts promptly (operators poll on a row stride) and ExecContext
// returns ctx.Err(). A canceled statement leaves no partial catalog or table
// mutations behind.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return s.ExecContextTrace(ctx, sql, obs.NewTrace())
}

// ExecContextTrace is ExecContext recording onto a caller-provided trace.
// The network server passes the trace carrying the query's propagated trace
// ID here, so engine spans (parse/plan/execute) and commit-hook spans (WAL
// append/fsync) join the server's wire-level spans on one trace. tr must not
// be nil.
func (s *Session) ExecContextTrace(ctx context.Context, sql string, tr *obs.Trace) (*Result, error) {
	db := s.db
	if hp := db.execHook.Load(); hp != nil {
		(*hp)(sql)
	}
	tr.SetState("parsing")
	span := tr.StartSpan("parse")
	stmt, err := Parse(sql)
	span.End()
	if err != nil {
		s.mu.Lock()
		s.lastTrace = tr
		s.mu.Unlock()
		db.Metrics().Counter("engine_parse_errors_total").Inc()
		return nil, err
	}
	return s.execTraced(ctx, stmt, tr, sql)
}

// ExecStmtContext executes an already parsed statement under the session's
// settings, with ExecContext's cancellation semantics.
func (s *Session) ExecStmtContext(ctx context.Context, stmt Statement) (*Result, error) {
	return s.execTraced(ctx, stmt, obs.NewTrace(), "")
}
