package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCreateAndQueryView(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`CREATE VIEW rich AS
		SELECT name, salary FROM emp WHERE salary >= 1200`); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT name FROM rich ORDER BY name")
	want := [][]string{{"bob"}, {"dan"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// Views join with tables and take aliases.
	got = queryStrings(t, db, `
		SELECT r.name, d.dname FROM rich r, emp e, dept d
		WHERE r.name = e.name AND e.dept = d.id ORDER BY r.name`)
	if len(got) != 3 || got[0][1] != "eng" {
		t.Fatalf("view join: %v", got)
	}
}

func TestViewReflectsBaseTableChanges(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE VIEW engs AS SELECT name FROM emp WHERE dept = 10"); err != nil {
		t.Fatal(err)
	}
	if n := len(queryStrings(t, db, "SELECT name FROM engs")); n != 2 {
		t.Fatalf("initial view rows = %d", n)
	}
	if _, err := db.Exec("INSERT INTO emp VALUES (7, 'fred', 10, 900.0)"); err != nil {
		t.Fatal(err)
	}
	if n := len(queryStrings(t, db, "SELECT name FROM engs")); n != 3 {
		t.Fatal("view did not reflect the insert")
	}
}

func TestViewOverView(t *testing.T) {
	db := testDB(t)
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE VIEW v1 AS SELECT name, salary FROM emp WHERE salary > 900")
	mustExec("CREATE VIEW v2 AS SELECT name FROM v1 WHERE salary < 1600")
	got := queryStrings(t, db, "SELECT name FROM v2 ORDER BY name")
	want := [][]string{{"ann"}, {"bob"}, {"dan"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestViewWithSGB(t *testing.T) {
	db := sgbDB(t)
	if _, err := db.Exec(`CREATE VIEW clusters AS
		SELECT count(*) AS members FROM pts
		GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 3`); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, "SELECT sum(members) FROM clusters")
	if got[0][0] != "5" {
		t.Fatalf("SGB view: %v", got)
	}
}

func TestViewErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE VIEW bad AS SELECT nosuch FROM emp"); err == nil {
		t.Error("invalid view definition accepted")
	}
	if _, err := db.Exec("CREATE VIEW emp AS SELECT 1"); err == nil {
		t.Error("view shadowing a table accepted")
	}
	if _, err := db.Exec("CREATE VIEW v AS SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE VIEW v AS SELECT 2"); err == nil {
		t.Error("duplicate view accepted")
	}
	if _, err := db.Exec("CREATE TABLE v (a INT)"); err == nil {
		t.Error("table shadowing a view accepted")
	}
	if _, err := db.Exec("DROP VIEW v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP VIEW v"); err == nil {
		t.Error("double drop succeeded")
	}
}

// TestViewKindsAndSnapshot: each DROP names one view kind, and a snapshot
// restores both. A plain view is parsed, not planned, on load, so one whose
// table was dropped loads and fails on use, as it does live.
func TestViewKindsAndSnapshot(t *testing.T) {
	db := sgbDB(t)
	mustExec(t, db, "CREATE VIEW near AS SELECT id, x FROM pts WHERE x < 5")
	mustExec(t, db, "CREATE MATERIALIZED VIEW groups AS SELECT x, y FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 3")
	if _, err := db.Exec("DROP VIEW groups"); err == nil {
		t.Error("DROP VIEW dropped a materialized view")
	}
	if _, err := db.Exec("DROP MATERIALIZED VIEW near"); err == nil {
		t.Error("DROP MATERIALIZED VIEW dropped a plain view")
	}
	if _, err := db.Exec("CREATE MATERIALIZED VIEW over_near AS SELECT x, id FROM near GROUP BY x, id DISTANCE-TO-ANY L2 WITHIN 3"); err == nil ||
		!strings.Contains(err.Error(), `cannot be defined over view "near"`) {
		t.Errorf("materialized view over a plain view: %v", err)
	}
	mustExec(t, db, "CREATE TABLE gone (a INT)")
	mustExec(t, db, "CREATE VIEW orphan AS SELECT a FROM gone")
	mustExec(t, db, "DROP TABLE gone")

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, x FROM near ORDER BY id"
	if got, want := queryStrings(t, loaded, q), queryStrings(t, db, q); !reflect.DeepEqual(got, want) {
		t.Errorf("restored view answers %v, want %v", got, want)
	}
	if v, ok := loaded.Catalog().View("groups"); !ok || v.Shape == nil {
		t.Errorf("materialized view not restored with its shape: %+v", v)
	}
	if _, err := loaded.Query("SELECT a FROM orphan"); err == nil {
		t.Error("view over a dropped table answers after load")
	}
}

func TestOffset(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 1")
	want := [][]string{{"bob"}, {"cat"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	// OFFSET past the end yields nothing.
	if got := queryStrings(t, db, "SELECT name FROM emp ORDER BY name LIMIT 3 OFFSET 10"); len(got) != 0 {
		t.Fatalf("offset past end returned %v", got)
	}
	// OFFSET without LIMIT.
	got = queryStrings(t, db, "SELECT name FROM emp ORDER BY name OFFSET 3")
	want = [][]string{{"dan"}, {"eve"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
	if _, err := Parse("SELECT 1 OFFSET -1"); err == nil {
		t.Error("negative offset accepted")
	}
	// EXPLAIN shows the offset.
	res, err := db.Exec("EXPLAIN SELECT name FROM emp LIMIT 2 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText(res), "Limit 2 Offset 1") {
		t.Fatalf("plan missing offset:\n%s", planText(res))
	}
}
