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

// TestFilterCancellationNonPollingChild pins cancellation in the filter's
// reject loop: a qualify-nothing filter over children that never poll
// (distinctOp over valuesOp) must observe a canceled statement within
// cancelCheckStride rows, not after consuming the whole input — and must not
// spin forever on an infinite source.
func TestFilterCancellationNonPollingChild(t *testing.T) {
	rows := make([]Row, 200000)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first row
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
	if _, err := f.next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("next = %v, want context.Canceled", err)
	}
}

// TestRowRetainContract pins the operator contract: rows a consumer retains
// from next() stay valid (same contents) after later next() calls, through a
// rename→project→filter→limit stack and through a hash join, each over a
// values source. Both outputs span many arena chunks.
func TestRowRetainContract(t *testing.T) {
	n := 10 * arenaMaxChunk
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString(fmt.Sprintf("s%d", i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}, {Name: "s", T: TypeString}}
	qc := newQueryCtx(context.Background(), Limits{})
	col := func(i int) evalFn { return func(r Row) (Value, error) { return r[i], nil } }

	retain := func(t *testing.T, op operator, want int) {
		t.Helper()
		if err := op.open(); err != nil {
			t.Fatal(err)
		}
		defer op.close()
		type kept struct {
			row  Row
			want []Value
		}
		var retained []kept
		for {
			r, err := op.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			retained = append(retained, kept{row: r, want: append([]Value(nil), r...)})
		}
		if len(retained) != want {
			t.Fatalf("%d rows, want %d", len(retained), want)
		}
		for i, k := range retained {
			if !reflect.DeepEqual([]Value(k.row), k.want) {
				t.Fatalf("retained row %d was clobbered by a later next: %v != %v", i, k.row, k.want)
			}
		}
	}

	t.Run("project", func(t *testing.T) {
		var op operator = &valuesOp{rows: rows, sch: sch}
		op = &renameOp{child: op, sch: sch}
		op = &projectOp{child: op, sch: sch, fns: []evalFn{col(0), col(1)}, qc: qc}
		op = &filterOp{child: op, pred: func(r Row) (Value, error) {
			return NewBool(r[0].I%3 != 1), nil
		}, qc: qc}
		op = &limitOp{child: op, n: n, offset: 5, qc: qc}
		retain(t, op, n-n/3-5)
	})
	t.Run("hash join", func(t *testing.T) {
		// Every left row matches its right twin: n rows of width 4, carved
		// from chunks of 64, 128, ..., 1024 rows.
		left := &valuesOp{rows: rows, sch: sch.Qualify("l")}
		right := &valuesOp{rows: rows, sch: sch.Qualify("r")}
		op := newHashJoinOp(left, right, []evalFn{col(0)}, []evalFn{col(0)}, nil, qc)
		retain(t, op, n)
	})
}

// TestZeroWidthJoinRows is the regression for a join whose output nothing
// above it reads: it emits zero-width rows, which must still count, and a
// cross join above must pair each of them with every right row.
func TestZeroWidthJoinRows(t *testing.T) {
	var a rowArena
	if r, err := a.row(0, nil); err != nil || r == nil {
		t.Fatalf("zero-width row = %#v, %v; want a non-nil empty row", r, err)
	}
	db := analyzerDB(t)
	const q = "SELECT count(*) FROM nums n, dim d, dim e WHERE n.k = d.k"
	for _, optimize := range []bool{false, true} {
		db.SetOptimizer(optimize)
		res := mustExec(t, db, q)
		if got := res.Rows[0][0]; got != NewInt(3000*23) {
			t.Errorf("optimizer %v: count = %v, want %d", optimize, got, 3000*23)
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

// TestParallelStressRace hammers one DB with concurrent queries (run under
// -race in CI) and cross-checks every result against the answer computed
// alone.
func TestParallelStressRace(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 2000, 5)
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
// build loop must surface context.Canceled well before the query's natural
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
