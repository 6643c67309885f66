package engine

import (
	"fmt"
	"reflect"
	"testing"
)

func TestDistinct(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT DISTINCT dept FROM emp ORDER BY dept")
	want := [][]string{{"10"}, {"20"}, {"30"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Multi-column distinct keeps distinct combinations.
	if _, err := db.Exec("INSERT INTO emp VALUES (6, 'ann', 10, 1000.0)"); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT DISTINCT name, dept FROM emp WHERE dept = 10 ORDER BY name")
	want = [][]string{{"ann", "10"}, {"bob", "10"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Rows compare by type and bits, in first-occurrence order: INT 3 and
	// FLOAT 3.0 stay apart, as do -0.0 and 0.0, and NULLs are one row.
	mustExec(t, db, "CREATE TABLE m (a INT, b FLOAT)")
	mustExec(t, db, "INSERT INTO m VALUES (3, 3.0), (3, -0.0), (NULL, 0.0), (NULL, NULL), (3, 3), (NULL, -0.0)")
	for _, c := range []struct{ sql, want string }{
		{"SELECT DISTINCT a FROM m", "[[INT 3] [NULL NULL]]"},
		{"SELECT DISTINCT b FROM m", "[[FLOAT 3] [FLOAT -0] [FLOAT 0] [NULL NULL]]"},
		{"SELECT DISTINCT CASE WHEN b > 0 THEN b ELSE a END FROM m", "[[FLOAT 3] [INT 3] [NULL NULL]]"},
		{"SELECT DISTINCT a, b FROM m", "[[INT 3 FLOAT 3] [INT 3 FLOAT -0] [NULL NULL FLOAT 0] [NULL NULL NULL NULL] [NULL NULL FLOAT -0]]"},
	} {
		if got := typedRows(queryRows(t, db, c.sql)); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
	}
}

// typedRows renders rows with each value's type, so that INT 3 and FLOAT 3
// read differently.
func typedRows(rows []Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			out[i] = append(out[i], v.T.String(), v.String())
		}
	}
	return fmt.Sprint(out)
}

func TestDistinctWithLimit(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2")
	want := [][]string{{"10"}, {"20"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestBetween(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp WHERE salary BETWEEN 1000 AND 1500 ORDER BY name")
	want := [][]string{{"ann"}, {"bob"}, {"dan"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	got = queryStrings(t, db, "SELECT name FROM emp WHERE salary NOT BETWEEN 1000 AND 1500 ORDER BY name")
	want = [][]string{{"cat"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// BETWEEN binds tighter than AND: the outer conjunct still applies.
	got = queryStrings(t, db, "SELECT name FROM emp WHERE salary BETWEEN 1000 AND 1500 AND dept = 10 ORDER BY name")
	want = [][]string{{"ann"}, {"bob"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestLike(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE s (v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO s VALUES ('alpha'), ('beta'), ('alphabet'), ('ALPHA'), ('a'), ('')"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pattern string
		want    []string
	}{
		{"alpha", []string{"alpha"}},
		{"alpha%", []string{"alpha", "alphabet"}},
		{"%a", []string{"a", "alpha", "beta"}},
		{"%alph%", []string{"alpha", "alphabet"}},
		{"_lpha", []string{"alpha"}},
		{"%", []string{"", "ALPHA", "a", "alpha", "alphabet", "beta"}},
		{"_", []string{"a"}},
		{"", []string{""}},
	}
	for _, c := range cases {
		got := queryStrings(t, db, "SELECT v FROM s WHERE v LIKE '"+c.pattern+"' ORDER BY v")
		flat := make([]string, len(got))
		for i, r := range got {
			flat[i] = r[0]
		}
		if !reflect.DeepEqual(flat, c.want) {
			t.Errorf("LIKE %q = %v, want %v", c.pattern, flat, c.want)
		}
	}
	got := queryStrings(t, db, "SELECT v FROM s WHERE v NOT LIKE '%a%' ORDER BY v")
	if len(got) != 3 { // "", ALPHA, beta? beta has 'a'. So "", "ALPHA" only -> 2
		// beta contains 'a', ALPHA is case-sensitive no lowercase a, "" has none.
		if len(got) != 2 {
			t.Fatalf("NOT LIKE result: %v", got)
		}
	}
	if _, err := db.Query("SELECT v FROM s WHERE v LIKE 5"); err == nil {
		t.Error("LIKE accepted a non-string pattern")
	}
}

func TestLikeMatchUnit(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"", "", true},
		{"%", "", true},
		{"%%", "anything", true},
		{"a%c", "abc", true},
		{"a%c", "ac", true},
		{"a%c", "abd", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%b%", "abc", true},
		{"%b%", "xyz", false},
		{"abc", "ab", false},
		{"ab", "abc", false},
		{"%abc", "xxabc", true},
		{"abc%", "abcxx", true},
		{"%a%b%c%", "1a2b3c4", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestDistinctInExplain(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec("EXPLAIN SELECT DISTINCT dept FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if !containsLine(res, "Distinct") {
		t.Fatalf("plan missing Distinct:\n%s", planText(res))
	}
}

func containsLine(res *Result, substr string) bool {
	for _, r := range res.Rows {
		if len(r) > 0 && r[0].T == TypeString && contains(r[0].S, substr) {
			return true
		}
	}
	return false
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCaseSearched(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `
		SELECT name, CASE WHEN salary >= 1500 THEN 'high'
		                  WHEN salary >= 1000 THEN 'mid'
		                  ELSE 'low' END AS band
		FROM emp ORDER BY name`)
	want := [][]string{
		{"ann", "mid"}, {"bob", "mid"}, {"cat", "low"}, {"dan", "high"}, {"eve", "high"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestCaseSimpleForm(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `
		SELECT name, CASE dept WHEN 10 THEN 'eng' WHEN 20 THEN 'ops' END AS d
		FROM emp ORDER BY name`)
	if got[4][1] != "NULL" { // eve, dept 30, no ELSE
		t.Fatalf("missing ELSE should yield NULL: %v", got)
	}
	if got[0][1] != "eng" || got[2][1] != "ops" {
		t.Fatalf("got %v", got)
	}
}

func TestCaseInAggregateAndGroupBy(t *testing.T) {
	db := testDB(t)
	// Pivot-style conditional aggregation.
	got := queryStrings(t, db, `
		SELECT sum(CASE WHEN dept = 10 THEN salary ELSE 0 END),
		       sum(CASE WHEN dept <> 10 THEN salary ELSE 0 END)
		FROM emp`)
	want := [][]string{{"2200", "4400"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// CASE over a grouped column.
	got = queryStrings(t, db, `
		SELECT CASE WHEN dept = 10 THEN 'eng' ELSE 'other' END, count(*)
		FROM emp GROUP BY dept ORDER BY dept`)
	if got[0][0] != "eng" || got[1][0] != "other" {
		t.Fatalf("got %v", got)
	}
}

func TestCaseErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query("SELECT CASE END FROM emp"); err == nil {
		t.Error("CASE without WHEN accepted")
	}
	if _, err := db.Query("SELECT CASE WHEN 1 THEN 2 FROM emp"); err == nil {
		t.Error("CASE without END accepted")
	}
	// Searched CASE requires boolean conditions; an integer is never truthy.
	got := queryStrings(t, db, "SELECT CASE WHEN salary THEN 1 ELSE 0 END FROM emp LIMIT 1")
	if got[0][0] != "0" {
		t.Fatalf("non-boolean WHEN treated as true: %v", got)
	}
}

func TestCaseNullOperand(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (NULL), (1)"); err != nil {
		t.Fatal(err)
	}
	// NULL operand matches no WHEN arm (SQL semantics).
	got := queryStrings(t, db, "SELECT CASE v WHEN 1 THEN 'one' ELSE 'other' END FROM t")
	if got[0][0] != "other" || got[1][0] != "one" {
		t.Fatalf("got %v", got)
	}
}

func TestGroupByCaseExpression(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `
		SELECT CASE WHEN salary >= 1200 THEN 'senior' ELSE 'junior' END AS band, count(*)
		FROM emp
		GROUP BY CASE WHEN salary >= 1200 THEN 'senior' ELSE 'junior' END
		ORDER BY band`)
	want := [][]string{{"junior", "2"}, {"senior", "3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestStddevVariance(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE v (g INT, x FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO v VALUES (1, 2), (1, 4), (1, 4), (1, 4), (1, 5), (1, 5), (1, 7), (1, 9), (2, 3)"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT g, variance(x), stddev(x) FROM v GROUP BY g ORDER BY g")
	// Sample variance of {2,4,4,4,5,5,7,9} is 32/7.
	if got[0][1] != "4.571428571428571" {
		t.Fatalf("variance = %v", got[0])
	}
	// A single-value group has undefined sample variance.
	if got[1][1] != "NULL" || got[1][2] != "NULL" {
		t.Fatalf("singleton variance = %v", got[1])
	}
	if _, err := db.Query("SELECT stddev(x, 2) FROM v"); err == nil {
		t.Error("stddev with two args accepted")
	}
}

func TestInsertSelect(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE rich (name TEXT, salary FLOAT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO rich SELECT name, salary FROM emp WHERE salary >= 1200")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("inserted %d rows", res.RowsAffected)
	}
	got := queryStrings(t, db, "SELECT name FROM rich ORDER BY name")
	want := [][]string{{"bob"}, {"dan"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Arity and type mismatches error out.
	if _, err := db.Exec("INSERT INTO rich SELECT name FROM emp"); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.Exec("INSERT INTO rich SELECT salary, name FROM emp"); err == nil {
		t.Error("type mismatch accepted")
	}
	// Materializing an SGB result into a table.
	if _, err := db.Exec("CREATE TABLE bands (members INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO bands
		SELECT count(*) FROM emp
		GROUP BY salary, dept DISTANCE-TO-ALL L2 WITHIN 150 ON-OVERLAP JOIN-ANY`); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT sum(members) FROM bands")
	if got[0][0] != "5" {
		t.Fatalf("materialized SGB members = %v", got)
	}
}

func TestAggregateDistinct(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE d (g INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO d VALUES (1, 5), (1, 5), (1, 7), (2, 9), (2, 9), (2, 9)"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, `
		SELECT g, count(v), count(DISTINCT v), sum(DISTINCT v), avg(DISTINCT v)
		FROM d GROUP BY g ORDER BY g`)
	want := [][]string{
		{"1", "3", "2", "12", "6"},
		{"2", "3", "1", "9", "9"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// DISTINCT and plain versions of the same aggregate are separate calls.
	got = queryStrings(t, db, "SELECT count(v), count(DISTINCT v) FROM d")
	if got[0][0] != "6" || got[0][1] != "3" {
		t.Fatalf("got %v", got)
	}
	if _, err := db.Query("SELECT count(DISTINCT *) FROM d"); err == nil {
		t.Error("count(DISTINCT *) accepted")
	}
	if _, err := db.Query("SELECT abs(DISTINCT v) FROM d"); err == nil {
		t.Error("DISTINCT on a scalar function accepted")
	}
	// array_agg(DISTINCT ...) dedups the list.
	got = queryStrings(t, db, "SELECT array_agg(DISTINCT v) FROM d WHERE g = 2")
	if got[0][0] != "{9}" {
		t.Fatalf("got %v", got)
	}
	// Arguments compare by type and bits, per group: INT 3 and FLOAT 3.0
	// count twice, as do -0.0 and 0.0, and NULL not at all.
	mustExec(t, db, "CREATE TABLE m (a INT, b FLOAT)")
	mustExec(t, db, "INSERT INTO m VALUES (3, 3.0), (3, -0.0), (NULL, 0.0), (NULL, NULL), (3, 3), (NULL, -0.0)")
	got = queryStrings(t, db, `SELECT a, count(DISTINCT b), count(DISTINCT CASE WHEN b > 0 THEN b ELSE a END)
		FROM m GROUP BY a ORDER BY a`)
	if want := [][]string{{"NULL", "2", "0"}, {"3", "2", "2"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("per-group DISTINCT over mixed keys = %v, want %v", got, want)
	}
}

func TestOrderByAggregateNotInSelect(t *testing.T) {
	// ORDER BY may introduce an aggregate that the SELECT list does not
	// project; the rewriter must register it with the aggregation operator.
	db := testDB(t)
	got := queryStrings(t, db, "SELECT dept FROM emp GROUP BY dept ORDER BY sum(salary) DESC")
	want := [][]string{{"20"}, {"10"}, {"30"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// And mixed with a projected aggregate.
	got = queryStrings(t, db, "SELECT dept, count(*) FROM emp GROUP BY dept ORDER BY max(salary)")
	if got[0][0] != "10" || got[2][0] != "30" {
		t.Fatalf("got %v", got)
	}
}
