package engine

import (
	"strings"
	"testing"
)

// evalScalar parses and evaluates a single constant SELECT item.
func evalScalar(t *testing.T, db *DB, expr string) (Value, error) {
	t.Helper()
	res, err := db.Query("SELECT " + expr)
	if err != nil {
		return Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("scalar query returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// TestExpressionEvalTable drives the expression evaluator through a broad
// table of cases covering arithmetic, comparisons, logic, NULL propagation
// and coercions.
func TestExpressionEvalTable(t *testing.T) {
	db := NewDB()
	cases := []struct {
		expr string
		want string
	}{
		// Integer arithmetic stays integral except division.
		{"1 + 2", "3"},
		{"7 - 10", "-3"},
		{"6 * 7", "42"},
		{"7 / 2", "3.5"},
		{"2 * 3 + 4 * 5", "26"},
		{"(2 + 3) * 4", "20"},
		{"-(3 + 4)", "-7"},
		{"- - 5", "5"},
		// Mixed-type arithmetic promotes to float.
		{"1 + 2.5", "3.5"},
		{"10 * 0.5", "5"},
		// Comparisons.
		{"1 < 2", "true"},
		{"2 <= 2", "true"},
		{"3 > 4", "false"},
		{"3 >= 4", "false"},
		{"1 = 1.0", "true"},
		{"1 <> 2", "true"},
		{"'abc' < 'abd'", "true"},
		{"'a' = 'a'", "true"},
		{"TRUE = TRUE", "true"},
		{"FALSE < TRUE", "true"},
		// Logic.
		{"TRUE AND FALSE", "false"},
		{"TRUE OR FALSE", "true"},
		{"NOT TRUE", "false"},
		{"NOT FALSE AND TRUE", "true"},
		// NULL propagation.
		{"NULL + 1", "NULL"},
		{"NULL = NULL", "NULL"},
		{"NOT NULL", "NULL"},
		{"NULL AND TRUE", "NULL"},
		{"NULL AND FALSE", "false"}, // short-circuit three-valued logic
		{"NULL OR TRUE", "true"},
		{"NULL OR FALSE", "NULL"},
		{"coalesce(NULL, NULL, 7)", "7"},
		{"coalesce(NULL, NULL)", "NULL"},
		// Strings.
		{"'a' || 'b' || 'c'", "abc"},
		{"1 || 'x'", "1x"},
		{"length('héllo')", "6"}, // bytes, not runes
		{"upper('mixed') || lower('CASE')", "MIXEDcase"},
		// Scalar functions.
		{"abs(-2.5)", "2.5"},
		{"abs(3)", "3"},
		{"sqrt(16.0)", "4"},
		{"floor(3.9)", "3"},
		{"ceil(3.1)", "4"},
		{"mod(17, 5)", "2"},
		{"least(5, 2, 9)", "2"},
		{"greatest(5, 2, 9)", "9"},
		{"least('b', 'a', 'c')", "a"},
		// IN lists.
		{"2 IN (1, 2, 3)", "true"},
		{"5 IN (1, 2, 3)", "false"},
		{"5 NOT IN (1, 2, 3)", "true"},
		{"NULL IN (1, 2)", "NULL"},
		// CASE.
		{"CASE WHEN 1 < 2 THEN 'y' ELSE 'n' END", "y"},
		{"CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' END", "c"},
		{"CASE 9 WHEN 1 THEN 'a' END", "NULL"},
		// BETWEEN-desugared.
		{"5 BETWEEN 1 AND 10", "true"},
		{"0 BETWEEN 1 AND 10", "false"},
		{"0 NOT BETWEEN 1 AND 10", "true"},
		// LIKE.
		{"'hello' LIKE 'he%'", "true"},
		{"'hello' LIKE 'h_llo'", "true"},
		{"'hello' NOT LIKE '%z%'", "true"},
	}
	for _, c := range cases {
		v, err := evalScalar(t, db, c.expr)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if v.String() != c.want {
			t.Errorf("%s = %s, want %s", c.expr, v.String(), c.want)
		}
	}
}

// TestExpressionEvalErrors drives the evaluator's error paths.
// TestScalarCallAllocBudget is the scalar-function row of the counter
// budgets: a compiled scalar call evaluates its arguments into a slice it
// owns, so a statement of scalar calls allocates nothing per row beyond its
// result. The result's own allocations (arena chunks, the row list) grow with
// the log of the row count: 1000 more rows may add a handful, not one per
// call (3000 before the scratch slice).
func TestScalarCallAllocBudget(t *testing.T) {
	const q = "SELECT abs(x), coalesce(x, y), greatest(x, y) FROM nums"
	allocs := func(n int) float64 {
		db := NewDB()
		loadNums(t, db, n, 3)
		return testing.AllocsPerRun(5, func() { mustExec(t, db, q) })
	}
	small, large := allocs(1000), allocs(2000)
	t.Logf("%.0f allocs at 1000 rows, %.0f at 2000", small, large)
	if large-small > 10 {
		t.Errorf("1000 more rows cost %.0f more allocs, want at most 10 (0 per row)", large-small)
	}
}

func TestExpressionEvalErrors(t *testing.T) {
	db := NewDB()
	bad := []string{
		"1 / 0",
		"1.0 / 0.0",
		"mod(1, 0)",
		"sqrt(-1.0)",
		"'a' + 1",
		"'a' < 1",
		"NOT 5",
		"-'x'",
		"TRUE AND 3",
		"5 OR FALSE",
		"abs('x')",
		"abs(1, 2)",
		"least()",
		"5 LIKE '%'",
	}
	for _, expr := range bad {
		if _, err := evalScalar(t, db, expr); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

// TestErrorPropagationThroughOperators: runtime errors raised mid-stream
// must surface through every operator, not be swallowed.
func TestErrorPropagationThroughOperators(t *testing.T) {
	db := testDB(t)
	bad := []string{
		// filter
		"SELECT name FROM emp WHERE salary / (dept - 10) > 0",
		// projection
		"SELECT salary / (dept - 10) FROM emp",
		// sort key
		"SELECT name FROM emp ORDER BY salary / (dept - 10)",
		// aggregation input
		"SELECT sum(salary / (dept - 10)) FROM emp",
		// having
		"SELECT dept FROM emp GROUP BY dept HAVING sum(salary) / (min(dept) - 10) > 0",
		// join key evaluation
		"SELECT e.name FROM emp e, dept d WHERE e.dept / (e.dept - 10) = d.id",
		// SGB grouping attribute
		"SELECT count(*) FROM emp GROUP BY salary / (dept - 10), salary DISTANCE-TO-ALL L2 WITHIN 1",
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("error swallowed: %s", q)
		} else if !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: unexpected error %v", q, err)
		}
	}
}

// TestAllPairsExactComparisonCount pins the All-Pairs cost model: under
// ELIMINATE (no early break) with all points isolated (every point its own
// group, no overlaps), FindCloseGroups performs exactly n(n-1)/2 distance
// computations — the paper's quadratic bound, measured not estimated.
func TestAllPairsExactComparisonCount(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE iso (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("iso")
	const n = 40
	for i := 0; i < n; i++ {
		// Far apart: no groups ever merge, no overlaps.
		if err := tbl.Insert(Row{NewFloat(float64(i) * 100), NewFloat(0)}); err != nil {
			t.Fatal(err)
		}
	}
	db.SetSGBAlgorithm(SGBAllPairs)
	if _, err := db.Query("SELECT count(*) FROM iso GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP ELIMINATE"); err != nil {
		t.Fatal(err)
	}
	st := db.LastSGBStats()
	if st == nil {
		t.Fatal("no stats")
	}
	want := int64(n * (n - 1) / 2)
	if st.DistanceComps != want {
		t.Fatalf("All-Pairs performed %d comparisons, want exactly %d", st.DistanceComps, want)
	}
}
