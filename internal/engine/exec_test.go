package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testDB builds a database with a few small tables.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE emp (id INT, name TEXT, dept INT, salary FLOAT)")
	mustExec(`INSERT INTO emp VALUES
		(1, 'ann', 10, 1000.0),
		(2, 'bob', 10, 1200.0),
		(3, 'cat', 20, 900.0),
		(4, 'dan', 20, 1500.0),
		(5, 'eve', 30, 2000.0)`)
	mustExec("CREATE TABLE dept (id INT, dname TEXT)")
	mustExec("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops'), (30, 'hr')")
	return db
}

func queryStrings(t *testing.T, db *DB, sql string) [][]string {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

// queryRows runs sql and returns its rows as values.
func queryRows(t *testing.T, db *DB, sql string) []Row {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

func TestSelectFilterProject(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name, salary * 2 AS double FROM emp WHERE dept = 10 ORDER BY name")
	want := [][]string{{"ann", "2000"}, {"bob", "2400"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT * FROM dept ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.Columns) != 2 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if res.Columns[0] != "id" || res.Columns[1] != "dname" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectNoFrom(t *testing.T) {
	db := NewDB()
	got := queryStrings(t, db, "SELECT 1 + 2, 'a' || 'b', -3.5, NOT FALSE")
	want := [][]string{{"3", "ab", "-3.5", "true"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestHashJoin(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id AND e.salary >= 1200 ORDER BY e.name")
	want := [][]string{{"bob", "eng"}, {"dan", "ops"}, {"eve", "hr"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestJoinSugar(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id WHERE d.dname = 'eng' ORDER BY e.name")
	want := [][]string{{"ann"}, {"bob"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT e.name, d.dname FROM emp e, dept d WHERE e.salary > 1900")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // eve × 3 departments
		t.Fatalf("cross join rows = %d, want 3", len(res.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT dept, count(*), sum(salary), min(salary), max(salary), avg(salary) FROM emp GROUP BY dept ORDER BY dept")
	want := [][]string{
		{"10", "2", "2200", "1000", "1200", "1100"},
		{"20", "2", "2400", "900", "1500", "1200"},
		{"30", "1", "2000", "2000", "2000", "2000"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT dept FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept")
	want := [][]string{{"10"}, {"20"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestGlobalAggregate(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT count(*), sum(salary) FROM emp")
	want := [][]string{{"5", "6600"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Global aggregate over empty input yields one row.
	got = queryStrings(t, db, "SELECT count(*) FROM emp WHERE salary > 99999")
	want = [][]string{{"0"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty aggregate got %v", got)
	}
}

func TestArrayAggAndListID(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT dept, array_agg(name) FROM emp GROUP BY dept ORDER BY dept")
	if got[0][1] != "{ann,bob}" {
		t.Fatalf("array_agg = %q", got[0][1])
	}
	got = queryStrings(t, db,
		"SELECT dept, list_id(id) FROM emp GROUP BY dept ORDER BY dept")
	if got[1][1] != "{3,4}" {
		t.Fatalf("list_id = %q", got[1][1])
	}
}

func TestDerivedTableAndInSubquery(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `
		SELECT r.dept, r.total FROM
		(SELECT dept, sum(salary) AS total FROM emp GROUP BY dept) AS r
		WHERE r.total > 2100 ORDER BY r.dept`)
	want := [][]string{{"10", "2200"}, {"20", "2400"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	got = queryStrings(t, db, `
		SELECT name FROM emp
		WHERE dept IN (SELECT id FROM dept WHERE dname = 'eng' OR dname = 'hr')
		ORDER BY name`)
	want = [][]string{{"ann"}, {"bob"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	got = queryStrings(t, db, `
		SELECT name FROM emp WHERE dept NOT IN (SELECT id FROM dept WHERE dname = 'eng') AND salary < 1600
		ORDER BY name`)
	want = [][]string{{"cat"}, {"dan"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestInList(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp WHERE id IN (1, 3, 5) ORDER BY name")
	want := [][]string{{"ann"}, {"cat"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestLimitAndOrder(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp ORDER BY salary DESC LIMIT 2")
	want := [][]string{{"eve"}, {"dan"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	got = queryStrings(t, db, "SELECT name FROM emp ORDER BY dept, salary DESC LIMIT 3")
	want = [][]string{{"bob"}, {"ann"}, {"dan"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := NewDB()
	got := queryStrings(t, db,
		"SELECT abs(-4), sqrt(9.0), floor(2.7), ceil(2.1), mod(7, 3), least(3, 1, 2), greatest(3, 1, 2), coalesce(NULL, 5), length('abc'), upper('ab'), lower('AB')")
	want := [][]string{{"4", "3", "2", "3", "1", "1", "3", "5", "3", "AB", "ab"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestErrorPaths(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT zzz FROM emp",
		"SELECT name FROM nosuch",
		"SELECT name FROM emp WHERE salary / 0 > 1",
		"SELECT name, count(*) FROM emp GROUP BY dept", // name not grouped
		"SELECT sum(name) FROM emp",
		"SELECT sum(count(*)) FROM emp",
		"SELECT * , name FROM emp",
		"SELECT nosuchfunc(1)",
		"SELECT name FROM emp WHERE dept IN (SELECT id, dname FROM dept)", // 2-col subquery
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("query succeeded unexpectedly: %s", sql)
		}
	}
	if _, err := db.Exec("INSERT INTO emp VALUES (1, 'x')"); err == nil {
		t.Error("arity-mismatched insert accepted")
	}
	if _, err := db.Query("CREATE TABLE x (a INT)"); err == nil {
		t.Error("Query accepted DDL")
	}
}

func TestNullSemantics(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE n (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO n VALUES (1, NULL), (2, 5), (NULL, 7)"); err != nil {
		t.Fatal(err)
	}
	// NULL comparisons are not true.
	got := queryStrings(t, db, "SELECT a FROM n WHERE b > 1 ORDER BY a")
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// count(col) skips NULLs; count(*) does not; sum skips NULLs.
	got = queryStrings(t, db, "SELECT count(*), count(a), count(b), sum(b) FROM n")
	want := [][]string{{"3", "2", "2", "12"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// NULL join keys never match.
	if _, err := db.Exec("CREATE TABLE m (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO m VALUES (NULL), (1)"); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT n.a FROM n, m WHERE n.a = m.a")
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("null join keys matched: %v", got)
	}
}

func TestInsertThroughSQLAndRowsAffected(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("INSERT INTO t VALUES (1), (2), (3)")
	if err != nil || res.RowsAffected != 3 {
		t.Fatalf("insert result = %+v, %v", res, err)
	}
	res, err = db.Exec("DROP TABLE t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT a FROM t"); err == nil {
		t.Error("dropped table still queryable")
	}
}

func TestAggregateDeduplication(t *testing.T) {
	// The same aggregate used twice (SELECT + HAVING) is computed once; the
	// observable behaviour is simply that both references agree.
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) = 2 ORDER BY dept")
	want := [][]string{{"10", "2"}, {"20", "2"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db,
		"SELECT dept / 10, count(*) FROM emp GROUP BY dept / 10 ORDER BY dept / 10")
	want := [][]string{{"1", "2"}, {"2", "2"}, {"3", "1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name, salary AS s FROM emp ORDER BY s DESC LIMIT 1")
	if got[0][0] != "eve" {
		t.Fatalf("got %v", got)
	}
}

func TestDeterministicAggOutputOrder(t *testing.T) {
	db := testDB(t)
	a := queryStrings(t, db, "SELECT dept, count(*) FROM emp GROUP BY dept")
	for i := 0; i < 5; i++ {
		b := queryStrings(t, db, "SELECT dept, count(*) FROM emp GROUP BY dept")
		if !reflect.DeepEqual(a, b) {
			t.Fatal("aggregate output order is nondeterministic")
		}
	}
	keys := make([]string, len(a))
	for i, r := range a {
		keys[i] = r[0]
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("aggregate output not key-ordered: %v", keys)
	}
}

func TestCaseInsensitiveKeywordsAndIdents(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "select NAME from EMP where DEPT = 30")
	if len(got) != 1 || got[0][0] != "eve" {
		t.Fatalf("got %v", got)
	}
}

func TestConcatOperatorInWhere(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp WHERE name || 'x' = 'annx'")
	if len(got) != 1 || got[0][0] != "ann" {
		t.Fatalf("got %v", got)
	}
}

func TestStPolygonAggregate(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (g INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO pts VALUES
		(1, 0, 0), (1, 4, 0), (1, 4, 4), (1, 0, 4), (1, 2, 2),
		(2, 9, 9)`); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT g, st_polygon(x, y) FROM pts GROUP BY g ORDER BY g")
	if !strings.HasPrefix(got[0][1], "POLYGON((") || strings.Contains(got[0][1], "2 2") {
		t.Fatalf("hull polygon = %q", got[0][1])
	}
	if got[1][1] != "POINT(9 9)" {
		t.Fatalf("degenerate polygon = %q", got[1][1])
	}
}
