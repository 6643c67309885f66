package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sgb/internal/core"
)

// loadSessionTable creates a small 2-D point table for session tests.
func loadSessionTable(t *testing.T, db *DB, rows int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE pts (id INT, x FLOAT, y FLOAT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.25, %d.75)", i, i%50, i%37)
	}
	mustExec(t, db, sb.String())
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", firstWords(sql), err)
	}
	return res
}

func firstWords(sql string) string {
	if len(sql) > 60 {
		return sql[:60] + "..."
	}
	return sql
}

// TestSessionSettingsIsolated is the regression test for the global-knob bug:
// session setters must not leak into other sessions or the DB defaults.
// Before settings were session-scoped, SetLimits and SetSGBAlgorithm
// mutated the shared DB, so two connections raced each other's knobs.
func TestSessionSettingsIsolated(t *testing.T) {
	db := NewDB()
	loadSessionTable(t, db, 100)

	a := db.NewSession()
	b := db.NewSession()

	a.SetLimits(Limits{MaxRowsMaterialized: 10})
	a.SetSGBAlgorithm(SGBAllPairs)

	// b and the DB's default session are untouched by a's setters.
	if got := b.Settings(); got.Limits.MaxRowsMaterialized != 0 || got.SGBAlgorithm != SGBAuto {
		t.Fatalf("session b settings contaminated by a: %+v", got)
	}
	if got := db.Settings(); got != (Settings{}) {
		t.Fatalf("DB default session contaminated by session setters: %+v", got)
	}

	// a's row limit applies to a only: the table has 100 rows.
	if _, err := a.Exec("SELECT id FROM pts"); err == nil {
		t.Fatalf("session a: want row-limit error, got nil")
	} else {
		var rle *ResourceLimitError
		if !errors.As(err, &rle) {
			t.Fatalf("session a: want ResourceLimitError, got %v", err)
		}
	}
	if res, err := b.Exec("SELECT id FROM pts"); err != nil {
		t.Fatalf("session b: %v", err)
	} else if len(res.Rows) != 100 {
		t.Fatalf("session b: got %d rows, want 100", len(res.Rows))
	}
	// The DB default path is equally unaffected.
	if res, err := db.Exec("SELECT id FROM pts"); err != nil {
		t.Fatalf("db default: %v", err)
	} else if len(res.Rows) != 100 {
		t.Fatalf("db default: got %d rows, want 100", len(res.Rows))
	}
}

// TestSessionSettingsResolvedAtPlanTime pins that a statement's execution
// shape comes from its own session snapshot: two sessions forcing different
// SGB algorithms produce different EXPLAIN plans against the same DB.
func TestSessionSettingsResolvedAtPlanTime(t *testing.T) {
	db := NewDB()
	loadSessionTable(t, db, 4096)

	allPairs := db.NewSession()
	allPairs.SetSGBAlgorithm(SGBAllPairs)
	index := db.NewSession()
	index.SetSGBAlgorithm(SGBIndex)

	const q = "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"
	planOf := func(s *Session) string {
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("explain: %v", err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			sb.WriteString(r[0].S)
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	for s, alg := range map[*Session]core.Algorithm{allPairs: core.AllPairs, index: core.IndexBounds} {
		if p := planOf(s); !strings.Contains(p, "["+alg.String()+"]") {
			t.Fatalf("session forcing %v produced:\n%s", alg, p)
		}
	}
}

// TestSessionSettingsRace runs two sessions that continuously flip their own
// knobs while executing, under -race: per-session snapshots mean neither the
// knob writes nor the in-flight statements may conflict.
func TestSessionSettingsRace(t *testing.T) {
	db := NewDB()
	loadSessionTable(t, db, 512)

	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < iters; i++ {
				s.SetLimits(Limits{MaxRowsMaterialized: int64(4096) << (i % 3)})
				if i%2 == 0 {
					s.SetSGBAlgorithm(SGBAllPairs)
				} else {
					s.SetSGBAlgorithm(SGBIndex)
				}
				res, err := s.Exec("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				if len(res.Rows) == 0 {
					t.Errorf("worker %d iter %d: empty result", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
