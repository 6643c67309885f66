package engine

import (
	"fmt"
	"strings"
	"testing"
)

// seedRows is the table size both tests grow to before the first ANALYZE.
const seedRows = 256

// TestAutoAnalyzeSeedsAndRefreshes pins that statistics change only when a
// client runs ANALYZE: writes keep the row count and staleness counter, an
// ANALYZE seeds fresh statistics, churn past half the analyzed rows makes
// them stale, and the next ANALYZE refreshes them.
func TestAutoAnalyzeSeedsAndRefreshes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")

	insertN(t, db, 0, seedRows)
	s := db.StatsSnapshot("pts")
	if s == nil || s.AnalyzedRows != 0 || s.Stale != seedRows || s.RowCount != seedRows || s.Fresh() {
		t.Fatalf("stats after %d inserted rows: %+v", seedRows, s)
	}

	mustExec(t, db, "ANALYZE pts")
	s = db.StatsSnapshot("pts")
	if s.AnalyzedRows != seedRows || s.Stale != 0 || !s.Fresh() || s.Sketch == nil {
		t.Fatalf("seeded stats: %+v", s)
	}

	// Half the analyzed rows churned is still fresh; one more row is not.
	insertN(t, db, seedRows, seedRows+seedRows/2)
	if s = db.StatsSnapshot("pts"); !s.Fresh() || s.AnalyzedRows != seedRows {
		t.Fatalf("stats after churning half the analyzed rows: %+v", s)
	}
	insertN(t, db, seedRows+seedRows/2, 2*seedRows)
	s = db.StatsSnapshot("pts")
	if s.Fresh() || s.AnalyzedRows != seedRows || s.Stale != seedRows || s.RowCount != 2*seedRows {
		t.Fatalf("stats after churning every analyzed row: %+v", s)
	}

	mustExec(t, db, "ANALYZE pts")
	s = db.StatsSnapshot("pts")
	if s.AnalyzedRows != 2*seedRows || s.Stale != 0 || !s.Fresh() || s.Sketch.N != 2*seedRows {
		t.Fatalf("refreshed stats: %+v", s)
	}
}

// TestAutoAnalyzeDisabled pins that no write analyzes a table, however far
// it churns: INSERT, UPDATE and DELETE only count.
func TestAutoAnalyzeDisabled(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	insertN(t, db, 0, 2*seedRows)
	mustExec(t, db, "UPDATE pts SET x = x + 1")
	mustExec(t, db, fmt.Sprintf("DELETE FROM pts WHERE id >= %d", seedRows))
	s := db.StatsSnapshot("pts")
	if s == nil || s.AnalyzedRows != 0 || s.Sketch != nil || s.RowCount != seedRows || s.Stale != 5*seedRows {
		t.Fatalf("a write analyzed the table: %+v", s)
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
