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
	qc := &queryCtx{ctx: ctx}
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

// TestRowRetainContract pins the operator contract: a row is valid until its
// operator's next call unless the operator reports stableRows, and the rows a
// consumer keeps across next calls survive them because the keepers copy
// borrowed rows. Rows out of materialize, a hash-join build, a sort and a cross
// join's right side each come from a borrowed source (a join over a join, a
// project under a sort, a join as a join's build side) spanning many arena
// chunks.
func TestRowRetainContract(t *testing.T) {
	n := 10 * arenaMaxChunk
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewString(fmt.Sprintf("s%d", i))}
	}
	sch := Schema{{Name: "id", T: TypeInt}, {Name: "s", T: TypeString}}
	qc := &queryCtx{ctx: context.Background()}
	col := func(i int) evalFn { return func(r Row) (Value, error) { return r[i], nil } }
	values := func(alias string) operator { return &valuesOp{rows: rows, sch: sch.Qualify(alias)} }
	// join matches every row of left with its id twin in right.
	join := func(left, right operator) operator {
		return newHashJoinOp(left, right, []evalFn{col(0)}, []evalFn{col(0)}, nil, qc)
	}
	// tripled is row i of a join of three values sources.
	tripled := func(i int) Row {
		return append(append(append(Row{}, rows[i]...), rows[i]...), rows[i]...)
	}
	// drain returns the rows op.next returned, and a copy of each taken
	// before the following next call.
	drain := func(t *testing.T, op operator) (got, copies []Row) {
		t.Helper()
		if err := op.open(); err != nil {
			t.Fatal(err)
		}
		defer op.close()
		for {
			r, err := op.next()
			if err == io.EOF {
				return got, copies
			}
			if err != nil {
				t.Fatal(err)
			}
			got, copies = append(got, r), append(copies, r.Clone())
		}
	}
	check := func(t *testing.T, got []Row, want func(i int) Row) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%d rows, want %d", len(got), n)
		}
		for i, r := range got {
			if w := want(i); !reflect.DeepEqual(r, w) {
				t.Fatalf("row %d = %v, want %v", i, r, w)
			}
		}
	}

	t.Run("materialize", func(t *testing.T) {
		op := join(join(values("a"), values("b")), values("c"))
		if op.stableRows() {
			t.Fatal("a join reports stable rows")
		}
		got, err := materialize(op, qc)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got, tripled)
	})
	t.Run("hash-join build", func(t *testing.T) {
		_, copies := drain(t, join(values("a"), join(values("b"), values("c"))))
		check(t, copies, tripled)
	})
	t.Run("sort", func(t *testing.T) {
		// The project swaps the columns; the sort orders by id descending.
		proj := &projectOp{child: values("a"), sch: Schema{sch[1], sch[0]}, fns: []evalFn{col(1), col(0)}}
		op := &sortOp{child: proj, keys: []evalFn{col(1)}, desc: []bool{true}, qc: qc}
		if !op.stableRows() {
			t.Fatal("sort reports borrowed rows")
		}
		got, _ := drain(t, op)
		check(t, got, func(i int) Row { r := rows[n-1-i]; return Row{r[1], r[0]} })
	})
	t.Run("cross join right side", func(t *testing.T) {
		one := &valuesOp{rows: rows[:1], sch: sch.Qualify("a")}
		proj := &projectOp{child: values("b"), sch: sch.Qualify("b"), fns: []evalFn{col(0), col(1)}}
		_, copies := drain(t, newCrossJoinOp(one, proj, nil, qc))
		check(t, copies, func(i int) Row { return append(append(Row{}, rows[0]...), rows[i]...) })
	})
}

// TestZeroWidthJoinRows is the regression for a join whose output nothing
// above it reads: it emits zero-width rows, which must still count, and a
// cross join above must pair each of them with every right row.
func TestZeroWidthJoinRows(t *testing.T) {
	var a rowArena
	if r, err := a.copy(Row{}, nil); err != nil || r == nil {
		t.Fatalf("zero-width copy = %#v, %v; want a non-nil empty row", r, err)
	}
	if o := newJoinOutput(nil, nil, nil, nil); o.emit(nil, nil) == nil {
		t.Fatal("zero-width join row is nil; want a non-nil empty row")
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
