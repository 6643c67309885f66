package stream

import (
	"fmt"
	"strconv"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/engine"
)

// TestInsertMaintenanceAllocBudget is the stream row of the counter budgets:
// over 5000 check-ins, one INSERT with live view maintenance must allocate at
// least 10× less than recomputing the view (DROP + CREATE MATERIALIZED VIEW),
// and stay within 5 % of what it measured when the row last moved: 41 for the
// SGB-Any view, whose deltas come from the grouper's merge links, and 704 for
// the SGB-All view, which diffs a snapshot of its groups (1,372 before the
// diff stopped allocating a source list per group that grew in place;
// recompute: 24,211 and 9,490, 39,328 before SGB-All's index moved to the
// ε-grid). Allocations are counted rather than core.Stats because the
// snapshot diff does no distance work. An INSERT routed through the
// rebuild path fails both bounds. Budgets only ratchet down.
func TestInsertMaintenanceAllocBudget(t *testing.T) {
	const (
		n       = 5000
		inserts = 100
	)
	for _, c := range []struct {
		mode   string
		budget float64
	}{
		{"DISTANCE-TO-ANY L2 WITHIN 0.25", 43},
		{"DISTANCE-TO-ALL LINF WITHIN 0.25 ON-OVERLAP JOIN-ANY", 745},
	} {
		db := engine.NewDB()
		NewManager().AttachEngine(db)
		if err := checkin.Load(db, "checkins", checkin.Generate(checkin.Config{N: n, Seed: 1})); err != nil {
			t.Fatal(err)
		}
		create := "CREATE MATERIALIZED VIEW v AS SELECT lat, lon FROM checkins GROUP BY lat, lon " + c.mode
		exec(t, db, create)
		recompute := testing.AllocsPerRun(3, func() {
			exec(t, db, "DROP MATERIALIZED VIEW v")
			exec(t, db, create)
		})

		stmts := make([]string, 0, inserts)
		for _, ck := range checkin.Generate(checkin.Config{N: inserts, Seed: 1001}) {
			stmts = append(stmts, fmt.Sprintf("INSERT INTO checkins VALUES (%d, %s, %s)", ck.UserID,
				strconv.FormatFloat(ck.Lat, 'f', 6, 64), strconv.FormatFloat(ck.Lon, 'f', 6, 64)))
		}
		next := 0
		insert := testing.AllocsPerRun(inserts-1, func() {
			exec(t, db, stmts[next])
			next++
		})
		t.Logf("%.0f allocs per insert, %.0f per recompute (%.1f×): %s", insert, recompute, recompute/insert, c.mode)
		if insert > c.budget {
			t.Errorf("%.0f allocs per insert, budget %.0f: %s", insert, c.budget, c.mode)
		}
		if recompute < 10*insert {
			t.Errorf("insert maintenance allocates %.0f, recompute %.0f: not 10× apart: %s", insert, recompute, c.mode)
		}
	}
}
