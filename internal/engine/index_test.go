package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestCreateIndexAndLookup(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX emp_dept ON emp (dept)"); err != nil {
		t.Fatal(err)
	}
	// The plan now uses the index for equality on dept.
	res, err := db.Exec("EXPLAIN SELECT name FROM emp WHERE dept = 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText(res), "IndexScan on emp using emp_dept") {
		t.Fatalf("plan does not use the index:\n%s", planText(res))
	}
	got := queryStrings(t, db, "SELECT name FROM emp WHERE dept = 10 ORDER BY name")
	want := [][]string{{"ann"}, {"bob"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index scan answered %v", got)
	}
	// Other predicates still work alongside the index.
	got = queryStrings(t, db, "SELECT name FROM emp WHERE dept = 10 AND salary > 1100")
	if len(got) != 1 || got[0][0] != "bob" {
		t.Fatalf("combined predicate via index: %v", got)
	}
}

func TestIndexMatchesSeqScanRandomized(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE nums (k INT, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	tbl, _ := db.Catalog().Get("nums")
	for i := 0; i < 2000; i++ {
		if err := tbl.Insert(Row{NewInt(int64(r.Intn(50))), NewFloat(r.Float64())}); err != nil {
			t.Fatal(err)
		}
	}
	// Answers before and after indexing must agree bit for bit: the SeqScan
	// and the IndexScan feed the aggregate the same rows in the same order.
	q := func(k int) string {
		return fmt.Sprintf("SELECT count(*), sum(v) FROM nums WHERE k = %d", k)
	}
	var before [][]Row
	for k := 0; k < 55; k++ {
		before = append(before, queryRows(t, db, q(k)))
	}
	if _, err := db.Exec("CREATE INDEX nums_k ON nums (k)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 55; k++ {
		after := queryRows(t, db, q(k))
		if !reflect.DeepEqual(after, before[k]) {
			t.Fatalf("k=%d: index answer %v, seq answer %v", k, after, before[k])
		}
	}
}

func TestIndexMaintainedOnInsert(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX emp_dept ON emp (dept)"); err != nil {
		t.Fatal(err)
	}
	// Force the bucket build, then insert and re-query.
	_ = queryStrings(t, db, "SELECT count(*) FROM emp WHERE dept = 10")
	if _, err := db.Exec("INSERT INTO emp VALUES (9, 'zed', 10, 1.0)"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT count(*) FROM emp WHERE dept = 10")
	if got[0][0] != "3" {
		t.Fatalf("index stale after insert: %v", got)
	}
}

func TestIndexInvalidatedByDML(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX emp_dept ON emp (dept)"); err != nil {
		t.Fatal(err)
	}
	_ = queryStrings(t, db, "SELECT count(*) FROM emp WHERE dept = 20") // build buckets
	if _, err := db.Exec("DELETE FROM emp WHERE name = 'cat'"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT count(*) FROM emp WHERE dept = 20")
	if got[0][0] != "1" {
		t.Fatalf("index stale after delete: %v", got)
	}
	if _, err := db.Exec("UPDATE emp SET dept = 20 WHERE name = 'ann'"); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT count(*) FROM emp WHERE dept = 20")
	if got[0][0] != "2" {
		t.Fatalf("index stale after update: %v", got)
	}
}

func TestIndexCrossTypeEquality(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE f (v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO f VALUES (1.0), (2.0), (2.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX f_v ON f (v)"); err != nil {
		t.Fatal(err)
	}
	// Integer literal against a float column must hit via the index.
	got := queryStrings(t, db, "SELECT count(*) FROM f WHERE v = 2")
	if got[0][0] != "2" {
		t.Fatalf("cross-type index lookup: %v", got)
	}
}

func TestIndexErrorsAndDrop(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX i1 ON emp (nosuch)"); err == nil {
		t.Error("indexed unknown column")
	}
	if _, err := db.Exec("CREATE INDEX i1 ON nosuch (a)"); err == nil {
		t.Error("indexed unknown table")
	}
	if _, err := db.Exec("CREATE INDEX i1 ON emp (dept)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX i1 ON emp (salary)"); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := db.Exec("DROP INDEX i1 ON emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP INDEX i1 ON emp"); err == nil {
		t.Error("dropped missing index")
	}
	// After dropping, the plan reverts to a sequential scan.
	res, err := db.Exec("EXPLAIN SELECT name FROM emp WHERE dept = 10")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(planText(res), "IndexScan") {
		t.Fatal("plan still uses a dropped index")
	}
}

func TestIndexSurvivesSnapshot(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX emp_dept ON emp (dept)"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Exec("EXPLAIN SELECT name FROM emp WHERE dept = 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText(res), "IndexScan") {
		t.Fatalf("index metadata lost across snapshot:\n%s", planText(res))
	}
	got := queryStrings(t, restored, "SELECT count(*) FROM emp WHERE dept = 10")
	if got[0][0] != "2" {
		t.Fatalf("restored index answers wrong: %v", got)
	}
}

func TestIndexNullsNeverMatch(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE n (v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO n VALUES (NULL), (1), (NULL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX n_v ON n (v)"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT count(*) FROM n WHERE v = 1")
	if got[0][0] != "1" {
		t.Fatalf("got %v", got)
	}
	got = queryStrings(t, db, "SELECT count(*) FROM n WHERE v = NULL")
	if got[0][0] != "0" {
		t.Fatalf("NULL equality matched rows: %v", got)
	}
}
