package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgb/internal/core"
)

func TestExplainSimple(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec("EXPLAIN SELECT name FROM emp WHERE dept = 10 ORDER BY name LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	plan := planText(res)
	for _, want := range []string{"Limit 2", "Project", "Sort", "Filter", "SeqScan on emp"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainJoinAndAggregate(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec(`EXPLAIN SELECT d.dname, count(*)
		FROM emp e, dept d WHERE e.dept = d.id GROUP BY d.dname`)
	if err != nil {
		t.Fatal(err)
	}
	plan := planText(res)
	for _, want := range []string{"HashJoin", "HashAggregate", "SeqScan on emp", "SeqScan on dept"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainSGB(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`EXPLAIN SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP ELIMINATE`)
	if err != nil {
		t.Fatal(err)
	}
	plan := planText(res)
	if !strings.Contains(plan, "SimilarityGroupBy DISTANCE-TO-ALL ELIMINATE L2 WITHIN 0.5") {
		t.Errorf("SGB operator not in plan:\n%s", plan)
	}
	db.SetSGBAlgorithm(core.BoundsChecking)
	res, err = db.Exec(`EXPLAIN SELECT count(*) FROM pts
		GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 2`)
	if err != nil {
		t.Fatal(err)
	}
	plan = planText(res)
	if !strings.Contains(plan, "DISTANCE-TO-ANY LINF WITHIN 2") {
		t.Errorf("SGB-Any not in plan:\n%s", plan)
	}
}

func planText(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestCopyFromCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.csv")
	csv := "id,x,y,label\n1,0.5,1.5,a\n2,2.5,3.5,b\n3,,,c\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT, label TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("COPY pts FROM '" + path + "'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("copied %d rows", res.RowsAffected)
	}
	got := queryStrings(t, db, "SELECT id, x, label FROM pts ORDER BY id")
	want := [][]string{{"1", "0.5", "a"}, {"2", "2.5", "b"}, {"3", "NULL", "c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestCopyHeaderReordered(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("t")
	n, err := copyFromReader(tbl, strings.NewReader("b,a\nx,1\ny,2\n"))
	if err != nil || n != 2 {
		t.Fatalf("copy: %d, %v", n, err)
	}
	if tbl.Rows[0][0].I != 1 || tbl.Rows[0][1].S != "x" {
		t.Fatalf("reordered header mis-mapped: %v", tbl.Rows[0])
	}
}

func TestCopyErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Catalog().Get("t")
	cases := []string{
		"a,zz\n1,x\n",       // unknown column
		"a,a\n1,2\n",        // duplicate column
		"a\n1\n",            // missing column
		"a,b\nnotanint,x\n", // bad int
	}
	for _, csv := range cases {
		if _, err := copyFromReader(tbl, strings.NewReader(csv)); err == nil {
			t.Errorf("copy accepted bad input %q", csv)
		}
	}
	if _, err := db.Exec("COPY t FROM '/nonexistent/file.csv'"); err == nil {
		t.Error("COPY from missing file succeeded")
	}
	if _, err := db.Exec("COPY nosuch FROM 'x.csv'"); err == nil {
		t.Error("COPY into missing table succeeded")
	}
	if _, err := Parse("COPY t FROM notquoted"); err == nil {
		t.Error("COPY without quoted path parsed")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	db.SetSGBAlgorithm(core.BoundsChecking)
	for _, sql := range []string{
		"CREATE TABLE pts (id INT, x FLOAT, y FLOAT)",
		`INSERT INTO pts VALUES (1, 0.5, 0.5), (2, 1.0, 1.25), (3, 9.0, 9.5),
			(4, 9.25, 9.75), (5, 50.0, 50.0)`,
		"CREATE TABLE empty_t (n INT)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SGBAlgorithm() != core.BoundsChecking {
		t.Error("SGB algorithm not restored")
	}
	if names := restored.Catalog().Names(); len(names) != 4 {
		t.Errorf("catalog names = %v, want 4 tables", names)
	}
	// The restored database answers queries identically, including an SGB
	// statement through the restored algorithm and a scan of the empty table.
	for _, q := range []string{
		"SELECT name, salary FROM emp ORDER BY id",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 2 ON-OVERLAP FORM-NEW-GROUP ORDER BY count(*)",
		"SELECT count(*) FROM empty_t",
	} {
		want := queryStrings(t, db, q)
		got := queryStrings(t, restored, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored rows differ:\n%v\nvs\n%v", q, got, want)
		}
	}
	// Joins still resolve (schema qualifiers survived).
	got := queryStrings(t, restored, "SELECT e.name FROM emp e, dept d WHERE e.dept = d.id AND d.dname = 'hr'")
	if len(got) != 1 || got[0][0] != "eve" {
		t.Fatalf("restored join wrong: %v", got)
	}
}

// TestLoadRejectsGarbage pins the error path: garbage and truncated images
// must fail loudly at load, not produce an empty database.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("Load accepted garbage")
	}
	var buf bytes.Buffer
	if err := testDB(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("Load accepted a truncated image")
	}
}
