package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// alwaysFalse compiles to a predicate no row satisfies.
func alwaysFalse(Row) (Value, error) { return NewBool(false), nil }

// TestFilterCancellationNonBatchChild pins the fix for the cancellation hole
// in the batch fallback: a qualify-nothing filter over an operator chain with
// no batch-aware member (distinctOp adapts row-at-a-time) must observe a
// canceled statement within one batch, not after scanning the whole input —
// and must not spin forever on an infinite source.
func TestFilterCancellationNonBatchChild(t *testing.T) {
	rows := make([]Row, 200000)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first batch
	qc := newQueryCtx(ctx, Limits{})
	f := &filterOp{
		child: &distinctOp{child: &valuesOp{rows: rows, sch: sch}},
		pred:  alwaysFalse,
		qc:    qc,
	}
	if err := f.open(); err != nil {
		t.Fatal(err)
	}
	defer f.close()
	_, err := f.nextBatch(make([]Row, 0, 64))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("nextBatch = %v, want context.Canceled", err)
	}
}

// TestBatchBufferRetainContract pins the batchOperator contract: rows a
// consumer retains from a returned batch must stay valid (same contents)
// after subsequent nextBatch calls reuse the destination buffer, through a
// rename→project→filter→limit stack over a values source.
func TestBatchBufferRetainContract(t *testing.T) {
	n := 10 * defaultBatchSize
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString(fmt.Sprintf("s%d", i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}, {Name: "s", T: TypeString}}
	qc := newQueryCtx(context.Background(), Limits{})
	var op operator = &valuesOp{rows: rows, sch: sch}
	op = &renameOp{child: op, sch: sch, qc: qc}
	op = &projectOp{child: op, sch: sch, fns: []evalFn{
		func(r Row) (Value, error) { return r[0], nil },
		func(r Row) (Value, error) { return r[1], nil },
	}, qc: qc}
	op = &filterOp{child: op, pred: func(r Row) (Value, error) {
		return NewBool(r[0].I%3 != 1), nil
	}, qc: qc}
	op = &limitOp{child: op, n: n, offset: 5, qc: qc}
	if err := op.open(); err != nil {
		t.Fatal(err)
	}
	defer op.close()

	b := op.(batchOperator)
	type kept struct {
		row  Row
		want []Value
	}
	var retained []kept
	buf := make([]Row, 0, 128)
	for {
		batch, err := b.nextBatch(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Retain a reference to the first row of every batch, with a deep
		// copy of its expected contents.
		r := batch[0]
		retained = append(retained, kept{row: r, want: append([]Value(nil), r...)})
		buf = batch // hand the same header back, as materialize does
	}
	if len(retained) < 10 {
		t.Fatalf("only %d batches seen, want >= 10", len(retained))
	}
	for i, k := range retained {
		if !reflect.DeepEqual([]Value(k.row), k.want) {
			t.Fatalf("retained row from batch %d was clobbered by a later nextBatch: %v != %v", i, k.row, k.want)
		}
	}
}

// loadNums bulk-creates a table with integer-valued columns only, so every
// aggregate (including float avg/sum) is exactly representable.
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

// TestBatchSizeMatchesDefault is the batch-boundary property test: GROUP BY,
// SGB-Any, join and LIMIT queries return the same rows, in the same order, at
// a 64-row batch size (~47 batches over 3000 rows) as at the default.
func TestBatchSizeMatchesDefault(t *testing.T) {
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
	run := func(batch int) []string {
		db.SetBatchSize(batch)
		var out []string
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("batch=%d %q: %v", batch, q, err)
			}
			out = append(out, strings.Join(rowStrings(res), ";"))
		}
		return out
	}
	want, got := run(0), run(64)
	for i, q := range queries {
		if got[i] != want[i] {
			t.Fatalf("%q: batch=64 gives\n%s\ndefault gives\n%s", q, got[i], want[i])
		}
	}
}

// TestParallelStressRace hammers one DB with concurrent queries at a small
// batch size (run under -race in CI) and cross-checks every result against
// the answer computed alone.
func TestParallelStressRace(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 2000, 5)
	db.SetBatchSize(64)
	want := map[string]string{}
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
		want[q] = strings.Join(rowStrings(res), ";")
	}

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
				if strings.Join(rowStrings(res), ";") != want[q] {
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

// TestHashAggCancellationPrompt cancels a hash aggregation mid-build: the
// batch loop must surface context.Canceled well before the query's natural
// runtime.
func TestHashAggCancellationPrompt(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 200000, 9)

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

// TestHashAggRowLimit checks that the per-query row budget is charged per new
// group: an aggregation whose groups exceed the budget fails with
// ResourceLimitError, not a wrong answer.
func TestHashAggRowLimit(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 13)
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
