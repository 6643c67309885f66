package engine

import "context"

// The planner's SGB cost constants, for the external planner-cost test, which
// prices the work a run counted in the cost model's own units.
const (
	CostDistComp    = costDistComp
	CostRectTest    = costRectTest
	CostWindowQuery = costWindowQuery
	CostGridProbe   = costGridProbe
)

// ExecStmt executes an already parsed statement.
func (db *DB) ExecStmt(stmt Statement) (*Result, error) {
	return db.ExecStmtContext(context.Background(), stmt)
}

// MemoryUsed reports the bytes currently charged against the pool.
func (db *DB) MemoryUsed() int64 { return db.gov.usedBytes() }

// SetMemoryAdmissionQueue caps how many statements may wait for memory
// admission before new arrivals are shed with a global ResourceLimitError;
// n <= 0 restores the default.
func (db *DB) SetMemoryAdmissionQueue(n int) { db.gov.setQueueCap(n) }

// StatsSnapshot returns a copy of the table's statistics entry taken under
// the statement read lock, or nil when the table is unknown or has no
// statistics yet — a race-free probe for tests and monitoring (the live
// *TableStats is mutated by concurrent writers and ANALYZE).
func (db *DB) StatsSnapshot(table string) *TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.cat.Get(table)
	if err != nil || t.Stats == nil {
		return nil
	}
	s := *t.Stats
	s.Columns = append([]ColumnStats(nil), t.Stats.Columns...)
	if sk := t.Stats.Sketch; sk != nil {
		skCopy := *sk
		skCopy.Counts = append([]int64(nil), sk.Counts...)
		s.Sketch = &skCopy
	}
	return &s
}
