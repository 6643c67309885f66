package engine

import "strings"

// Auto-ANALYZE keeps the statistics catalog fresh without operator
// intervention: when a committed write pushes a table's staleness counter past
// the Fresh() threshold (half the analyzed rows churned), the table is queued
// for a background ANALYZE. The re-analysis runs as an ordinary statement —
// exclusive lock, commit hook — so in durable mode it is WAL-logged and the
// rebuilt statistics survive crash recovery deterministically.
//
// The trigger is edge-cheap: one counter comparison on the write path, a
// non-blocking enqueue, and per-table dedup so a burst of writes schedules one
// ANALYZE, not hundreds. ANALYZE resets Stale to zero, so the cadence is
// self-limiting at roughly one re-analysis per 50% table churn.

// autoAnalyzeMinRows is the seeding floor: a never-analyzed table gets its
// first automatic ANALYZE once it reaches this many rows, after which the
// staleness rule takes over. Below the floor the planner's fallback heuristics
// are fine and re-analyzing every tiny table on each insert would be noise.
const autoAnalyzeMinRows = 256

// autoAnalyzeQueue bounds the pending-table channel. Dedup keeps the queue at
// one entry per stale table, so depth only matters when many tables go stale
// in the same instant; a full queue just retries on the next write.
const autoAnalyzeQueue = 32

// SetAutoAnalyze enables or disables automatic background re-analysis of
// stale tables (disabled by default). Enabling starts one worker goroutine;
// disabling stops it and drops any queued work. Safe to call at any time.
func (db *DB) SetAutoAnalyze(on bool) {
	db.aaMu.Lock()
	defer db.aaMu.Unlock()
	if on == (db.aaCh != nil) {
		return
	}
	if on {
		db.aaCh = make(chan string, autoAnalyzeQueue)
		db.aaPending = make(map[string]struct{})
		go db.autoAnalyzeWorker(db.aaCh)
		return
	}
	close(db.aaCh)
	db.aaCh = nil
	db.aaPending = nil
}

// maybeAutoAnalyze is the write-path trigger: called for each successfully
// applied mutating statement, with the exclusive statement lock still held
// (so the stats read is consistent). It never blocks — a full queue is a
// dropped trigger, retried by whichever write next finds the table stale.
func (db *DB) maybeAutoAnalyze(stmt Statement) {
	var table string
	switch s := stmt.(type) {
	case *InsertStmt:
		table = s.Table
	case *UpdateStmt:
		table = s.Table
	case *DeleteStmt:
		table = s.Table
	case *CopyStmt:
		table = s.Table
	default:
		return
	}
	db.aaMu.Lock()
	defer db.aaMu.Unlock()
	if db.aaCh == nil {
		return
	}
	t, err := db.cat.Get(table)
	if err != nil || t.Stats == nil {
		return
	}
	s := t.Stats
	if s.AnalyzedRows == 0 {
		if s.RowCount < autoAnalyzeMinRows {
			return
		}
	} else if s.Fresh() {
		return
	}
	key := strings.ToLower(t.Name)
	if _, queued := db.aaPending[key]; queued {
		return
	}
	select {
	case db.aaCh <- t.Name:
		db.aaPending[key] = struct{}{}
		db.Metrics().Counter("engine_auto_analyze_triggers_total").Inc()
	default:
		// Queue full; the table stays stale, so the next write re-triggers.
	}
}

// autoAnalyzeWorker drains the trigger queue, re-analyzing one table at a
// time. It owns ch and exits when SetAutoAnalyze(false) closes it.
func (db *DB) autoAnalyzeWorker(ch chan string) {
	for name := range ch {
		db.aaMu.Lock()
		delete(db.aaPending, strings.ToLower(name))
		db.aaMu.Unlock()
		// Plain SQL so the commit hook sees loggable statement text; a table
		// dropped between trigger and here just fails quietly.
		if _, err := db.Exec("ANALYZE " + name); err != nil {
			db.Metrics().Counter("engine_auto_analyze_failures_total").Inc()
			continue
		}
		db.Metrics().Counter("engine_auto_analyze_total").Inc()
	}
}
