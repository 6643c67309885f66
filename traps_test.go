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

// TestTrapExplainEstRows: row 0 of EXPLAIN carries est_rows=<number>.
func TestTrapExplainEstRows(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Exec("EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.25")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(plan.Rows[0][0].S, "est_rows=")
	if !ok {
		t.Fatalf("EXPLAIN row 0 has no est_rows=: %q", plan.Rows[0][0].S)
	}
	if _, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err != nil {
		t.Fatalf("EXPLAIN row 0 est_rows is not a number: %q", plan.Rows[0][0].S)
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
