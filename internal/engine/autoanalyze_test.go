package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// waitForStats polls the table's statistics until cond holds or the deadline
// passes — the auto-ANALYZE worker is asynchronous by design.
func waitForStats(t *testing.T, db *DB, table string, cond func(*TableStats) bool) *TableStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := db.StatsSnapshot(table)
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never reached expected state; last = %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAutoAnalyzeSeedsAndRefreshes drives the two trigger edges: a
// never-analyzed table crossing the seeding floor gets its first ANALYZE, and
// churning more than half the analyzed rows gets a refresh.
func TestAutoAnalyzeSeedsAndRefreshes(t *testing.T) {
	db := NewDB()
	db.SetAutoAnalyze(true)
	defer db.SetAutoAnalyze(false)
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")

	// Stay below the seeding floor: no ANALYZE may trigger.
	insertN(t, db, 0, autoAnalyzeMinRows-1)
	time.Sleep(20 * time.Millisecond)
	if s := db.StatsSnapshot("pts"); s != nil && s.AnalyzedRows != 0 {
		t.Fatalf("analyzed below the seeding floor: %+v", s)
	}

	// Crossing the floor seeds the first ANALYZE in the background.
	insertN(t, db, autoAnalyzeMinRows-1, autoAnalyzeMinRows)
	s := waitForStats(t, db, "pts", func(s *TableStats) bool {
		return s != nil && s.AnalyzedRows == autoAnalyzeMinRows && s.Stale == 0
	})
	if !s.Fresh() {
		t.Fatalf("seeded stats not fresh: %+v", s)
	}

	// Churn past half the analyzed rows: Fresh() flips false and the worker
	// refreshes. The refresh may run at any point of the churn — an ANALYZE
	// that lands mid-stream leaves statistics the policy itself calls fresh,
	// and nothing re-triggers — so the postcondition is the policy's, not
	// "every row analyzed": fresh statistics, newer than the seed, that
	// account for every inserted row.
	insertN(t, db, autoAnalyzeMinRows, 2*autoAnalyzeMinRows)
	waitForStats(t, db, "pts", func(s *TableStats) bool {
		return s.Fresh() && s.AnalyzedRows > autoAnalyzeMinRows && s.AnalyzedRows+s.Stale == 2*autoAnalyzeMinRows
	})
}

// TestAutoAnalyzeDisabled pins that the default-off state never analyzes.
func TestAutoAnalyzeDisabled(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	insertN(t, db, 0, 2*autoAnalyzeMinRows)
	time.Sleep(20 * time.Millisecond)
	if s := db.StatsSnapshot("pts"); s != nil && s.AnalyzedRows != 0 {
		t.Fatalf("auto-ANALYZE ran while disabled: %+v", s)
	}
}

// insertN appends rows [from, to) in a few batches, the way a live workload
// would trickle them in.
func insertN(t *testing.T, db *DB, from, to int) {
	t.Helper()
	const batch = 64
	for lo := from; lo < to; lo += batch {
		hi := lo + batch
		if hi > to {
			hi = to
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO pts VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d.5, %d.5)", i, i%50, i%30)
		}
		mustExec(t, db, sb.String())
	}
}
