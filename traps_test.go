package sgb

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/client"
	"sgb/internal/server"
)

// The tests in this file pin behaviour the benchmark of record
// (benchmark/layers.go) depends on and no compiler checks.

// rowZeroEstRows parses est_rows from row 0 of an EXPLAIN answer the way the
// benchmark's rootEstRows does: the first field after "est_rows=".
func rowZeroEstRows(t *testing.T, db *DB, sql string) float64 {
	t.Helper()
	plan, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	_, rest, ok := strings.Cut(plan.Rows[0][0].S, "est_rows=")
	if !ok {
		t.Fatalf("%s: row 0 has no est_rows=: %q", sql, plan.Rows[0][0].S)
	}
	v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		t.Fatalf("%s: row 0 est_rows is not a number: %q", sql, plan.Rows[0][0].S)
	}
	return v
}

// TestTrapExplainEstRows: row 0 of EXPLAIN carries est_rows=<number>, the
// parse reads the estimate itself, and EXPLAIN ANALYZE reads the same.
func TestTrapExplainEstRows(t *testing.T) {
	db := NewDB()
	for _, q := range []string{
		"CREATE TABLE pts (id INT, x FLOAT, y FLOAT)",
		"CREATE TABLE t (x INT)",
		"INSERT INTO t VALUES (1), (2), (3)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rowZeroEstRows(t, db, "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.25")
	if got := rowZeroEstRows(t, db, "EXPLAIN SELECT x FROM t"); got != 3 {
		t.Errorf("EXPLAIN over a 3-row table parses to est_rows %v, want 3", got)
	}
	if got := rowZeroEstRows(t, db, "EXPLAIN ANALYZE SELECT x FROM t"); got != 3 {
		t.Errorf("EXPLAIN ANALYZE over a 3-row table parses to est_rows %v, want EXPLAIN's 3", got)
	}
}

// TestTrapServedSpanNames: a served statement's trace, read back from the
// slowlog, carries the fixed span names; a write adds the WAL's two.
func TestTrapServedSpanNames(t *testing.T) {
	store, err := server.OpenStore(server.StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := server.New(store.DB(), server.Config{Store: store})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c, err := client.Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, q := range []string{"CREATE TABLE pts (id INT, x FLOAT)", "INSERT INTO pts VALUES (1, 0.5)", "SELECT count(*) FROM pts"} {
		if _, err := c.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	log, err := c.SlowLog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"INSERT": {"wire_decode", "parse", "execute", "wal_append", "wal_fsync"},
		"SELECT": {"wire_decode", "parse", "plan", "execute"},
	}
	for _, q := range log {
		kind := strings.Fields(q.SQL)[0]
		spans := map[string]bool{}
		for _, sp := range q.Trace.Spans {
			spans[sp.Name] = true
		}
		for _, n := range want[kind] {
			if !spans[n] {
				t.Errorf("%q: no %q span in %v", q.SQL, n, q.Trace.Spans)
			}
		}
		delete(want, kind)
	}
	if len(want) != 0 {
		t.Errorf("slowlog holds no entry for %v", want)
	}
}

// TestTrapIndexBoundsAnyIsGrid: IndexBounds on SGB-Any reports the ε-grid's
// counters — under one distance computation per point on the 8000 check-ins.
func TestTrapIndexBoundsAnyIsGrid(t *testing.T) {
	const n = 8000
	pts := checkin.Points(checkin.Generate(checkin.Config{N: n, Seed: 1}))
	res, err := GroupAny(pts, Options{Metric: L2, Eps: 0.25, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(res.Stats.DistanceComps) / n; per >= 1 {
		t.Fatalf("IndexBounds SGB-Any: %.2f distance computations per point, want < 1 (the grid)", per)
	}
}
