package engine

import (
	"context"
	"fmt"
	"sync"
	"unsafe"
)

// Memory-footprint estimates for the governor's accounting. Charges are
// deliberately coarse — slice headers, Value boxes, hash-bucket overhead —
// because the governor bounds aggregate pressure, not exact bytes; what
// matters is that charges are proportional to real allocations and are
// applied per chunk/bucket, never per row in a hot loop.
const (
	// memValueBytes is one Value as rows and group keys hold it: inline in a
	// []Value, its string payload shared with storage, not copied.
	memValueBytes = int64(unsafe.Sizeof(Value{}))
	// memRowOverheadBytes approximates one materialized row's slice header
	// and allocator slack.
	memRowOverheadBytes = 24
	// memBucketOverheadBytes approximates one aggregation hash bucket
	// (map entry, key string header, accumulator structs).
	memBucketOverheadBytes = 96
)

// memRowBytes estimates one materialized row of the given width.
func memRowBytes(width int) int64 {
	return memRowOverheadBytes + memValueBytes*int64(width)
}

// memSmallFryDivisor: a statement whose own charged footprint is below
// budget/memSmallFryDivisor is never failed by *global* pressure — the pool
// briefly overshoots instead. This sheds the elephant that drove the pool
// over the line, not the mouse that happened to allocate next; per-query
// limits still apply to everyone.
const memSmallFryDivisor = 64

// defaultMemQueueCap bounds how many over-budget statements may wait for
// admission before new arrivals are shed outright.
const defaultMemQueueCap = 16

// memGovernor is the process-wide memory budget for statement scratch. It
// admits statements (queueing or shedding when the pool is exhausted), tracks
// usage charged through per-statement memAccounts plus non-failing background
// reservations (matview delta rings), and fails the allocation that drives
// the pool over budget with a global-scoped ResourceLimitError.
type memGovernor struct {
	db *DB // metrics sink

	mu       sync.Mutex
	budget   int64 // 0 = no budget (accounting still runs for the gauge)
	used     int64
	queueCap int
	waiters  []chan struct{} // FIFO admission queue
}

// setBudget installs the process budget; 0 removes it and wakes everything.
func (g *memGovernor) setBudget(bytes int64) {
	g.mu.Lock()
	g.budget = bytes
	if g.queueCap == 0 {
		g.queueCap = defaultMemQueueCap
	}
	g.wakeLocked()
	g.mu.Unlock()
	g.publish()
}

func (g *memGovernor) setQueueCap(n int) {
	g.mu.Lock()
	if n <= 0 {
		n = defaultMemQueueCap
	}
	g.queueCap = n
	g.mu.Unlock()
}

func (g *memGovernor) usedBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// admit gates one statement on the memory budget. When the pool has headroom
// (or no budget is set) it returns immediately; when exhausted the statement
// waits in a bounded FIFO queue for released memory, and beyond the queue cap
// it is shed with a global-scoped ResourceLimitError. The returned account
// (nil when no budget and no per-query limit apply — accounting then costs
// nothing) must be released when the statement finishes.
func (g *memGovernor) admit(ctx context.Context, perQueryLimit int64) (*memAccount, error) {
	g.mu.Lock()
	if g.budget <= 0 && perQueryLimit <= 0 {
		g.mu.Unlock()
		return nil, nil
	}
	m := g.db.Metrics()
	if g.budget > 0 && g.used >= g.budget {
		if len(g.waiters) >= g.queueCap {
			used, budget := g.used, g.budget
			g.mu.Unlock()
			m.Counter("engine_mem_queries_shed_total").Inc()
			return nil, &ResourceLimitError{
				Resource: "memory",
				Scope:    LimitScopeGlobal,
				Limit:    fmt.Sprintf("%d of %d budget bytes in use, admission queue full", used, budget),
			}
		}
		ch := make(chan struct{})
		g.waiters = append(g.waiters, ch)
		queued := len(g.waiters)
		g.mu.Unlock()
		m.Counter("engine_mem_admission_waits_total").Inc()
		m.Gauge("engine_mem_admission_queued").Set(float64(queued))
		select {
		case <-ch:
		case <-ctx.Done():
			g.abandon(ch)
			return nil, ctx.Err()
		}
	} else {
		g.mu.Unlock()
	}
	return &memAccount{gov: g, limit: perQueryLimit}, nil
}

// abandon removes a canceled waiter; if its slot was already granted, the
// grant is passed on so a release is never lost.
func (g *memGovernor) abandon(ch chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, w := range g.waiters {
		if w == ch {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
	// Not queued anymore: release already closed ch. Wake the next waiter in
	// its place.
	g.wakeLocked()
}

// grow charges n freshly allocated bytes. acctTotal is the charging
// statement's own running total, used for the small-fry exemption.
func (g *memGovernor) grow(n, acctTotal int64) error {
	g.mu.Lock()
	g.used += n
	over := g.budget > 0 && g.used > g.budget && acctTotal > g.budget/memSmallFryDivisor
	used, budget := g.used, g.budget
	g.mu.Unlock()
	g.publish()
	if over {
		g.db.Metrics().Counter("engine_mem_limit_errors_total").Inc()
		return &ResourceLimitError{
			Resource: "memory",
			Scope:    LimitScopeGlobal,
			Limit:    fmt.Sprintf("%d bytes in use of %d budget", used, budget),
		}
	}
	return nil
}

// release returns n bytes to the pool and wakes queued statements that now
// fit.
func (g *memGovernor) release(n int64) {
	if n == 0 {
		return
	}
	g.mu.Lock()
	g.used -= n
	if g.used < 0 {
		g.used = 0
	}
	g.wakeLocked()
	g.mu.Unlock()
	g.publish()
}

// reserve adjusts the pool by n bytes (negative frees) on behalf of
// background subsystems. It never fails: background state must not break
// commits; the reservation just makes admission decisions see the true
// footprint.
func (g *memGovernor) reserve(n int64) {
	g.mu.Lock()
	g.used += n
	if g.used < 0 {
		g.used = 0
	}
	if n < 0 {
		g.wakeLocked()
	}
	g.mu.Unlock()
	g.publish()
}

// wakeLocked admits queued statements while the pool has headroom. Admission
// is optimistic — all woken statements start charging and the one that drives
// the pool back over fails then — so a single release can unblock several
// small queries at once.
func (g *memGovernor) wakeLocked() {
	for len(g.waiters) > 0 && (g.budget <= 0 || g.used < g.budget) {
		close(g.waiters[0])
		g.waiters = g.waiters[1:]
	}
}

// publish refreshes the engine_mem_* gauges.
func (g *memGovernor) publish() {
	g.mu.Lock()
	used, budget, queued := g.used, g.budget, len(g.waiters)
	g.mu.Unlock()
	m := g.db.Metrics()
	m.Gauge("engine_mem_used_bytes").Set(float64(used))
	m.Gauge("engine_mem_budget_bytes").Set(float64(budget))
	m.Gauge("engine_mem_admission_queued").Set(float64(queued))
}

// memAccount is one statement's ledger with the governor. Charges go through
// grow (atomic per-account total + shared pool); the full total is returned
// to the pool in one release when the statement ends.
type memAccount struct {
	gov   *memGovernor
	limit int64 // per-query cap; 0 = none
	mu    sync.Mutex
	used  int64
}

// grow charges n bytes: per-query limit first (query-scoped error), then the
// shared pool (global-scoped error on exhaustion).
func (a *memAccount) grow(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	a.mu.Lock()
	a.used += n
	total := a.used
	a.mu.Unlock()
	if a.limit > 0 && total > a.limit {
		a.gov.db.Metrics().Counter("engine_mem_limit_errors_total").Inc()
		return &ResourceLimitError{
			Resource: "memory",
			Limit:    fmt.Sprintf("%d bytes charged of %d per-query budget", total, a.limit),
		}
	}
	return a.gov.grow(n, total)
}

// release returns everything the statement charged.
func (a *memAccount) release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	n := a.used
	a.used = 0
	a.mu.Unlock()
	a.gov.release(n)
}

// SetMemoryBudget installs a process-wide cap, in bytes, on the statement
// scratch memory the engine will admit concurrently — hash-join build copies,
// aggregation tables, columnar scratch, materialized results, matview delta
// rings. 0 removes the cap (accounting still runs so the gauge stays
// truthful). When the pool is exhausted, new statements queue (bounded, see
// SetMemoryAdmissionQueue) and the allocation that drives the pool over
// budget fails with a global-scoped *ResourceLimitError; statements whose own
// footprint is tiny are exempt from global failure so heavy queries cannot
// starve cheap ones.
func (db *DB) SetMemoryBudget(bytes int64) {
	db.gov.setBudget(bytes)
}

// ReserveMemory adjusts the memory pool by n bytes (negative releases) on
// behalf of background subsystems — matview delta rings, caches — that grow
// outside any statement. It never fails; it only makes the governor's
// admission decisions and gauges reflect the true process footprint.
func (db *DB) ReserveMemory(n int64) { db.gov.reserve(n) }
