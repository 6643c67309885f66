package engine

import (
	"context"
	"fmt"
	"time"
)

// Limits bounds the resources a single statement may consume. A query that
// exceeds a limit fails with a *ResourceLimitError instead of running the
// process out of memory or holding the engine hostage — the statement-timeout
// and work_mem style guard rails of a production DBMS.
type Limits struct {
	// MaxRowsMaterialized caps the number of rows a statement may buffer
	// across all of its materializing operators (final result, sort buffers,
	// join build sides, aggregation inputs). 0 means unlimited.
	MaxRowsMaterialized int64
	// MaxExecutionTime caps a statement's wall-clock execution time.
	// 0 means unlimited.
	MaxExecutionTime time.Duration
	// MaxMemoryBytes caps the scratch memory a single statement may charge
	// against the memory governor's accounting (hash-join builds, aggregation
	// tables, SGB grouping points, materialized results). 0 means unlimited —
	// the statement is then bounded only by the process budget, if one is
	// set (DB.SetMemoryBudget).
	MaxMemoryBytes int64
}

// ResourceLimitError scopes: a per-query limit blames the statement itself;
// global pressure blames overall load — the statement was a victim and is
// worth retrying once the process quiets down.
const (
	// LimitScopeQuery marks a per-query limit (the Scope zero value).
	LimitScopeQuery = "query"
	// LimitScopeGlobal marks process-wide pressure: the shared memory budget
	// was exhausted or the admission queue overflowed.
	LimitScopeGlobal = "global"
)

// ResourceLimitError is the typed error a statement fails with when it
// exceeds a configured per-query limit. Callers distinguish it from ordinary
// query errors (and from context cancellation) with errors.As.
type ResourceLimitError struct {
	// Resource names what ran out: "rows", "time", or "memory".
	Resource string
	// Limit is the configured bound, rendered for the message.
	Limit string
	// Scope distinguishes a per-query limit ("" / LimitScopeQuery) from
	// process-wide pressure (LimitScopeGlobal). The serving layer maps
	// global errors to a retryable wire code, per-query ones to a terminal
	// resource-limit code.
	Scope string
}

func (e *ResourceLimitError) Error() string {
	if e.Global() {
		return fmt.Sprintf("engine: %s budget exhausted under load (%s); retry later", e.Resource, e.Limit)
	}
	return fmt.Sprintf("engine: query exceeded %s limit (%s)", e.Resource, e.Limit)
}

// Global reports whether the error is process-wide pressure rather than a
// per-query limit.
func (e *ResourceLimitError) Global() bool { return e.Scope == LimitScopeGlobal }

// cancelCheckStride is how many next() steps pass between context polls:
// frequent enough that cancellation lands promptly mid-scan, rare enough that
// the poll never shows up in a profile. Operators that count their own rows
// (materialize, hash-aggregate build) poll and charge budgets once per stride;
// the rest tick the statement's shared counter (see queryCtx.tick).
const cancelCheckStride = 1024

// queryCtx threads cancellation, row accounting, and the statement's
// Settings snapshot (SGB algorithm, limits, optimizer) through one
// statement's operator tree. Every operator of a plan shares one instance
// (including the plans of scalar/IN subqueries), so the row budget is per
// statement, not per operator. The nil *queryCtx is valid and never cancels
// or limits — plan-only contexts (view validation) use it.
type queryCtx struct {
	ctx context.Context
	set Settings
	// sess is the issuing session, which records the statement's
	// LastSGBStats.
	sess *Session
	// analyze marks a trace-sampled statement: the executor wraps the plan in
	// instrumented operators and stashes the EXPLAIN ANALYZE tree on the
	// statement trace (see DB.SetTraceSampling).
	analyze bool
	rows    int64
	calls   uint64
	// mem is the statement's memory account with the process governor; nil
	// when no budget or per-query memory limit is configured.
	mem *memAccount
}

// tick is called once per row-at-a-time operator step; every
// cancelCheckStride calls it polls the context so a canceled or
// deadline-expired statement aborts mid-scan, mid-join-build, and
// mid-aggregation.
func (q *queryCtx) tick() error {
	if q == nil {
		return nil
	}
	q.calls++
	if q.calls%cancelCheckStride != 0 {
		return nil
	}
	return q.ctx.Err()
}

// poll checks for cancellation unconditionally. Callers that count their own
// rows call it once per cancelCheckStride rows.
func (q *queryCtx) poll() error {
	if q == nil {
		return nil
	}
	return q.ctx.Err()
}

// addRows charges n newly materialized rows against the row budget.
func (q *queryCtx) addRows(n int) error {
	if q == nil || q.set.Limits.MaxRowsMaterialized <= 0 {
		return nil
	}
	q.rows += int64(n)
	if limit := q.set.Limits.MaxRowsMaterialized; q.rows > limit {
		return &ResourceLimitError{
			Resource: "rows",
			Limit:    fmt.Sprintf("%d rows materialized", limit),
		}
	}
	return nil
}

// growMem charges n bytes of statement-scratch growth against the per-query
// memory limit and the process budget. Operators call it at the allocation
// sites that actually grow — hash-join build copies, new aggregation buckets,
// SGB grouping points, materialized rows — so accounting tracks real footprint
// without a per-row branch.
func (q *queryCtx) growMem(n int64) error {
	if q == nil || q.mem == nil {
		return nil
	}
	return q.mem.grow(n)
}

// context returns the statement's context (Background for the nil queryCtx),
// for handing to the core groupers.
func (q *queryCtx) context() context.Context {
	if q == nil || q.ctx == nil {
		return context.Background()
	}
	return q.ctx
}

// sgbAlgorithm is the statement's SGB algorithm setting. Plan-only contexts
// (view validation) have no session and plan under SGBAuto.
func (q *queryCtx) sgbAlgorithm() SGBAlgorithm {
	if q == nil {
		return SGBAuto
	}
	return q.set.SGBAlgorithm
}

// optimize reports whether the cost-based analyzer rules run for this
// statement. Plan-only contexts optimize (the rules are semantics-preserving).
func (q *queryCtx) optimize() bool {
	return q == nil || !q.set.NoOptimize
}
