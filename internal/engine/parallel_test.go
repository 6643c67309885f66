package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// loadNums bulk-creates a table with integer-valued columns only, so every
// aggregate (including float avg/sum) is exactly representable and the
// parallel two-phase merge must reproduce the serial results bit-for-bit.
func loadNums(t *testing.T, db *DB, n int, seed int64) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE nums (id INT, k INT, v INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Get("nums")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			NewInt(int64(i)),
			NewInt(int64(r.Intn(23))),
			NewInt(int64(r.Intn(1000))),
			NewFloat(float64(r.Intn(200))),
			NewFloat(float64(r.Intn(200))),
		}
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func sortedRowStrings(res *Result) []string {
	out := rowStrings(res)
	sort.Strings(out)
	return out
}

// TestParallelMatchesSerial is the equivalence property test: for GROUP BY,
// SGB-Any, join, and LIMIT queries, execution with any worker count (1
// included) and a small batch size — which forces morsel-parallel plans where
// the planner has them (hash aggregation; SGB has one plan at any count) —
// returns a row multiset identical to the serial run.
func TestParallelMatchesSerial(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 11)
	if _, err := db.Exec("CREATE TABLE dim (k INT, label TEXT)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 23; k++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO dim VALUES (%d, 'k%d')", k, k)); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		"SELECT k, count(*), sum(v), min(v), max(v), avg(v) FROM nums WHERE v > 100 GROUP BY k",
		"SELECT k, array_agg(v) FROM nums WHERE id < 500 GROUP BY k",
		"SELECT count(*), sum(v + k) FROM nums WHERE mod(id, 3) = 0",
		"SELECT count(*), min(id) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 3",
		"SELECT d.label, count(*) FROM nums n, dim d WHERE n.k = d.k AND n.v > 500 GROUP BY d.label",
		"SELECT id, v FROM nums WHERE v > 900 ORDER BY id LIMIT 37 OFFSET 5",
	}

	db.SetParallelism(1)
	serial := make([][]string, len(queries))
	for i, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		serial[i] = sortedRowStrings(res)
	}

	db.SetBatchSize(64) // 3000 rows -> ~47 morsels, forcing parallel plans
	for _, workers := range []int{1, 2, 3, 8} {
		db.SetParallelism(workers)
		for i, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, q, err)
			}
			got := sortedRowStrings(res)
			if len(got) != len(serial[i]) {
				t.Fatalf("workers=%d %q: %d rows, serial had %d", workers, q, len(got), len(serial[i]))
			}
			for j := range got {
				if got[j] != serial[i][j] {
					t.Fatalf("workers=%d %q: row %d = %q, serial %q", workers, q, j, got[j], serial[i][j])
				}
			}
		}
	}
}

// TestParallelPlanShape asserts that a qualifying plan actually takes the
// parallel path (EXPLAIN label, ANALYZE actuals, metrics) and that
// disqualified plans — similarity aggregates, DISTINCT aggregates, subquery
// predicates, small tables — stay serial.
func TestParallelPlanShape(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 2000, 3)
	db.SetParallelism(4)
	db.SetBatchSize(128)

	plan := func(sql string) string {
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			sb.WriteString(r[0].String())
			sb.WriteString("\n")
		}
		return sb.String()
	}

	p := plan("EXPLAIN SELECT k, count(*) FROM nums WHERE v > 10 GROUP BY k")
	if !strings.Contains(p, "Parallel HashAggregate") {
		t.Fatalf("expected Parallel HashAggregate, got:\n%s", p)
	}
	p = plan("EXPLAIN ANALYZE SELECT k, count(*) FROM nums WHERE v > 10 GROUP BY k")
	if !strings.Contains(p, "workers=4") || !strings.Contains(p, "batches=") {
		t.Fatalf("expected workers=4 batches= in ANALYZE actuals, got:\n%s", p)
	}
	// SGB has one plan whatever the worker count.
	p = plan("EXPLAIN ANALYZE SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2")
	if !strings.Contains(p, "SimilarityGroupBy") || strings.Contains(p, "Parallel") || strings.Contains(p, "workers=") {
		t.Fatalf("expected the plain SimilarityGroupBy node, got:\n%s", p)
	}

	snap := db.Metrics().Snapshot()
	if snap.Counters["engine_parallel_morsels_total"] == 0 {
		t.Fatal("engine_parallel_morsels_total did not advance")
	}
	if got := snap.Gauges["engine_parallel_workers"]; got != 4 {
		t.Fatalf("engine_parallel_workers = %v, want 4", got)
	}

	// DISTINCT aggregates cannot be merged: the plan must stay serial.
	p = plan("EXPLAIN SELECT k, count(DISTINCT v) FROM nums GROUP BY k")
	if strings.Contains(p, "Parallel") {
		t.Fatalf("DISTINCT aggregate must not parallelize, got:\n%s", p)
	}
	// Subquery predicates carry lazily-cached closures: serial.
	p = plan("EXPLAIN SELECT k, count(*) FROM nums WHERE v > (SELECT min(v) FROM nums) GROUP BY k")
	if strings.Contains(p, "Parallel") {
		t.Fatalf("subquery predicate must not parallelize, got:\n%s", p)
	}
	// Tables at or below one batch stay serial.
	db.SetBatchSize(4000)
	p = plan("EXPLAIN SELECT k, count(*) FROM nums GROUP BY k")
	if strings.Contains(p, "Parallel") {
		t.Fatalf("sub-batch table must not parallelize, got:\n%s", p)
	}
	db.SetBatchSize(0)

	// Workers=1 disables parallel marking entirely.
	db.SetParallelism(1)
	db.SetBatchSize(128)
	p = plan("EXPLAIN SELECT k, count(*) FROM nums GROUP BY k")
	if strings.Contains(p, "Parallel") {
		t.Fatalf("workers=1 must not parallelize, got:\n%s", p)
	}
}

// TestParallelStressRace hammers one DB with concurrent morsel-parallel
// queries (run under -race in CI) and cross-checks every result against the
// serial answer.
func TestParallelStressRace(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 2000, 5)
	db.SetParallelism(1)
	want := map[string][]string{}
	queries := []string{
		"SELECT k, count(*), sum(v) FROM nums WHERE v > 250 GROUP BY k",
		"SELECT count(*), min(id) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 4",
		"SELECT count(*) FROM nums WHERE mod(v, 2) = 0",
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = sortedRowStrings(res)
	}

	db.SetParallelism(4)
	db.SetBatchSize(64)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := db.Query(q)
				if err != nil {
					errCh <- fmt.Errorf("%q: %w", q, err)
					return
				}
				got := sortedRowStrings(res)
				if strings.Join(got, ";") != strings.Join(want[q], ";") {
					errCh <- fmt.Errorf("%q: result diverged under concurrency", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestParallelCancellationPrompt cancels a morsel-parallel aggregation
// mid-flight: the worker pool must drain and surface context.Canceled well
// before the query's natural runtime.
func TestParallelCancellationPrompt(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 200000, 9)
	db.SetParallelism(4)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT id, count(*), sum(v), avg(v) FROM nums GROUP BY id")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", elapsed)
	}
	// The DB must remain fully usable.
	if _, err := db.Query("SELECT count(*) FROM nums"); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestParallelRowLimitAcrossWorkers checks that the per-query row budget is
// charged atomically across morsel workers: a parallel aggregation whose
// input exceeds the budget fails with ResourceLimitError, not a wrong answer.
func TestParallelRowLimitAcrossWorkers(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 13)
	db.SetParallelism(4)
	db.SetBatchSize(64)
	db.SetLimits(Limits{MaxRowsMaterialized: 500})
	_, err := db.Query("SELECT id, count(*) FROM nums WHERE v >= 0 GROUP BY id")
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want ResourceLimitError", err)
	}
	db.SetLimits(Limits{})
	if _, err := db.Query("SELECT count(*) FROM nums"); err != nil {
		t.Fatalf("query after limit error: %v", err)
	}
}

// TestPointConversionAllocs pins the allocation profile of the row→column
// conversion: one coordinate arena plus one column-header slice, regardless
// of tuple count — not one allocation per row.
func TestPointConversionAllocs(t *testing.T) {
	op := &sgbAggOp{groupExprs: []evalFn{
		func(r Row) (Value, error) { return r[0], nil },
		func(r Row) (Value, error) { return r[1], nil },
	}}
	tuples := make([]Row, 512)
	for i := range tuples {
		tuples[i] = Row{NewFloat(float64(i)), NewFloat(float64(i * 2))}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := op.colsOf(tuples); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("colsOf allocates %v times per run, want <= 2 (arena + headers)", allocs)
	}
}

// BenchmarkPointConversion measures the arena-backed conversion so an
// accidental return to per-row allocation is visible in the bench smoke run.
func BenchmarkPointConversion(b *testing.B) {
	op := &sgbAggOp{groupExprs: []evalFn{
		func(r Row) (Value, error) { return r[0], nil },
		func(r Row) (Value, error) { return r[1], nil },
	}}
	tuples := make([]Row, 1024)
	for i := range tuples {
		tuples[i] = Row{NewFloat(float64(i)), NewFloat(float64(i * 3))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := op.colsOf(tuples); err != nil {
			b.Fatal(err)
		}
	}
}
