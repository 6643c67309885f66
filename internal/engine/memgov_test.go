package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// govTestDB builds a DB with a loaded table sized so SGB/aggregation queries
// charge a meaningful number of bytes against the governor.
func govTestDB(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.%d, %d.5)", i, i%97, i%7, i%61)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

const govQuery = "SELECT count(*), avg(x) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2.5 ORDER BY count(*)"

// TestMemoryGovernorPerQueryLimit: a statement over its per-query cap fails
// with a query-scoped typed error, and the pool drains back to zero.
func TestMemoryGovernorPerQueryLimit(t *testing.T) {
	db := govTestDB(t, 2000)
	lim := db.Limits()
	lim.MaxMemoryBytes = 4 << 10 // far below the query's working set
	db.SetLimits(lim)

	_, err := db.Exec(govQuery)
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("got %v, want *ResourceLimitError", err)
	}
	if rle.Global() {
		t.Fatalf("per-query overrun reported as global: %v", rle)
	}
	if rle.Resource != "memory" {
		t.Fatalf("resource %q, want memory", rle.Resource)
	}
	if used := db.MemoryUsed(); used != 0 {
		t.Fatalf("pool holds %d bytes after the failed statement", used)
	}

	// Raising the limit lets the same statement through.
	lim.MaxMemoryBytes = 0
	db.SetLimits(lim)
	if _, err := db.Exec(govQuery); err != nil {
		t.Fatalf("unlimited rerun: %v", err)
	}
	if used := db.MemoryUsed(); used != 0 {
		t.Fatalf("pool holds %d bytes after a successful statement", used)
	}
}

// TestMemoryChargesMatchAcrossInstrumentation pins that a statement charges
// the same memory however it runs: plainly, under EXPLAIN ANALYZE, or
// trace-sampled. Each mode's smallest per-query MaxMemoryBytes at which the
// statement succeeds must be equal, for a projection and for a hash join
// (whose materialized result is charged).
func TestMemoryChargesMatchAcrossInstrumentation(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 11)
	mustExec(t, db, "CREATE TABLE dim (k INT, label TEXT)")
	for i := 0; i < 23; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'd%d')", i, i))
	}
	minBudget := func(sql string, sampling int) int64 {
		db.SetTraceSampling(sampling)
		fits := func(limit int64) bool {
			db.SetLimits(Limits{MaxMemoryBytes: limit})
			_, err := db.Exec(sql)
			var rle *ResourceLimitError
			if err != nil && !errors.As(err, &rle) {
				t.Fatalf("%s at %d bytes: %v", sql, limit, err)
			}
			return err == nil
		}
		lo, hi := int64(1), int64(1)<<26 // fits(hi), and 0 would mean unlimited
		if !fits(hi) {
			t.Fatalf("%s does not fit in %d bytes", sql, hi)
		}
		for lo < hi {
			if mid := lo + (hi-lo)/2; fits(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	for _, q := range []string{
		"SELECT id, v + 1, k * 2 FROM nums WHERE v > 10",
		"SELECT n.id, d.label FROM nums n, dim d WHERE n.k = d.k AND n.v > 10",
	} {
		plain := minBudget(q, 0)
		analyze := minBudget("EXPLAIN ANALYZE "+q, 0)
		sampled := minBudget(q, 1)
		t.Logf("%s: smallest budget: plain %d, EXPLAIN ANALYZE %d, trace-sampled %d bytes", q, plain, analyze, sampled)
		if plain != analyze || plain != sampled {
			t.Errorf("%s: memory charged differs: plain %d, EXPLAIN ANALYZE %d, trace-sampled %d bytes", q, plain, analyze, sampled)
		}
	}
}

// TestJoinMemoryChargedWhereRetained: joins and projections reuse one output
// row and charge nothing for it; only the consumers that keep rows charge for
// them. Under a per-query limit an unaggregated join whose rows the result
// keeps still fails, and the same join under count(*) no longer does (it
// failed while every join and projection row was carved and charged).
func TestJoinMemoryChargedWhereRetained(t *testing.T) {
	db := analyzerDB(t)
	const join = "SELECT n.id, d.label FROM nums n, dim d WHERE n.k = d.k"
	db.SetLimits(Limits{MaxMemoryBytes: 64 << 10}) // 3000 result rows need ~300 KB
	var rle *ResourceLimitError
	if _, err := db.Exec(join); !errors.As(err, &rle) || rle.Resource != "memory" {
		t.Fatalf("materialized join: got %v, want a memory *ResourceLimitError", err)
	}
	res, err := db.Exec("SELECT count(*) FROM (" + join + ") j")
	if err != nil {
		t.Fatalf("join under count(*): %v", err)
	}
	if got := res.Rows[0][0]; got != NewInt(3000) {
		t.Fatalf("count = %v, want 3000", got)
	}
}

// TestMemoryGovernorGlobalBudget: with a tiny process budget, a heavy
// statement fails with a global-scoped error; removing the budget heals it.
func TestMemoryGovernorGlobalBudget(t *testing.T) {
	db := govTestDB(t, 2000)
	db.SetMemoryBudget(16 << 10)

	_, err := db.Exec(govQuery)
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("got %v, want *ResourceLimitError", err)
	}
	if !rle.Global() {
		t.Fatalf("budget overrun reported as per-query: %v", rle)
	}
	if used := db.MemoryUsed(); used != 0 {
		t.Fatalf("pool holds %d bytes after the failed statement", used)
	}

	db.SetMemoryBudget(0)
	if _, err := db.Exec(govQuery); err != nil {
		t.Fatalf("after removing budget: %v", err)
	}
}

// TestMemoryGovernorSmallFryExempt: statements with tiny footprints never
// fail on global pressure, even when background reservations have pushed the
// pool past its budget.
func TestMemoryGovernorSmallFryExempt(t *testing.T) {
	db := govTestDB(t, 50)
	db.SetMemoryBudget(1 << 20)
	// Background state holds the whole budget.
	db.ReserveMemory(1 << 20)
	defer db.ReserveMemory(-(1 << 20))

	// The pool is exhausted, so the statement waits for admission — release
	// enough for the wake, then verify the small query completes despite the
	// pool running over.
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("SELECT count(*) FROM pts")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	db.ReserveMemory(-1024) // tiny headroom: wakes the waiter
	defer db.ReserveMemory(1024)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("small statement failed under global pressure: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("small statement never admitted")
	}
}

// TestMemoryGovernorQueueAndShed: when the pool is exhausted, statements
// queue; beyond the queue cap they shed immediately with a global error.
func TestMemoryGovernorQueueAndShed(t *testing.T) {
	db := govTestDB(t, 50)
	db.SetMemoryBudget(1 << 20)
	db.SetMemoryAdmissionQueue(1)
	db.ReserveMemory(2 << 20) // pool exhausted
	defer db.ReserveMemory(-(2 << 20))

	// First statement queues.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := db.Exec("SELECT count(*) FROM pts")
		queuedErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Counter("engine_mem_admission_waits_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first statement never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Second statement finds the queue full and sheds.
	_, err := db.Exec("SELECT count(*) FROM pts")
	var rle *ResourceLimitError
	if !errors.As(err, &rle) || !rle.Global() {
		t.Fatalf("over-queue statement got %v, want global *ResourceLimitError", err)
	}
	if got := db.Metrics().Counter("engine_mem_queries_shed_total").Value(); got == 0 {
		t.Fatal("engine_mem_queries_shed_total not incremented")
	}

	// Free the pool: the queued statement completes.
	db.ReserveMemory(-(2 << 20))
	defer db.ReserveMemory(2 << 20) // rebalance the deferred releases
	select {
	case err := <-queuedErr:
		if err != nil {
			t.Fatalf("queued statement: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued statement never completed")
	}
}

// TestMemoryGovernorCanceledWhileQueued: a context cancellation while waiting
// for admission returns the context error promptly.
func TestMemoryGovernorCanceledWhileQueued(t *testing.T) {
	db := govTestDB(t, 50)
	db.SetMemoryBudget(1 << 20)
	db.ReserveMemory(2 << 20)
	defer db.ReserveMemory(-(2 << 20))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.ExecContext(ctx, "SELECT count(*) FROM pts")
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Counter("engine_mem_admission_waits_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
}

// TestMemoryGovernorStress is the acceptance stress: under a budget sized so
// some statements shed or queue, concurrent in-budget queries that do
// complete return results bit-identical to an unloaded run, and the pool
// returns to zero. Run under -race in CI's chaos suite.
func TestMemoryGovernorStress(t *testing.T) {
	db := govTestDB(t, 1500)

	// Reference results on the unloaded, un-governed engine.
	want, err := db.Exec(govQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantSmall, err := db.Exec("SELECT count(*) FROM pts")
	if err != nil {
		t.Fatal(err)
	}

	db.SetMemoryBudget(2 << 20)
	db.SetMemoryAdmissionQueue(4)

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q, ref := govQuery, want
				if w%2 == 0 {
					q, ref = "SELECT count(*) FROM pts", wantSmall
				}
				res, err := db.Exec(q)
				if err != nil {
					var rle *ResourceLimitError
					if errors.As(err, &rle) {
						continue // shed or over budget: typed, acceptable
					}
					errs <- fmt.Errorf("worker %d: untyped failure: %w", w, err)
					return
				}
				if len(res.Rows) != len(ref.Rows) {
					errs <- fmt.Errorf("worker %d: %d rows, want %d", w, len(res.Rows), len(ref.Rows))
					return
				}
				for i := range ref.Rows {
					for j := range ref.Rows[i] {
						if res.Rows[i][j] != ref.Rows[i][j] {
							errs <- fmt.Errorf("worker %d: row %d col %d: %v != %v",
								w, i, j, res.Rows[i][j], ref.Rows[i][j])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if used := db.MemoryUsed(); used != 0 {
		t.Fatalf("pool holds %d bytes after the stress run", used)
	}
}
