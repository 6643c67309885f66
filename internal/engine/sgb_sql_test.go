package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// sgbDB builds a table with the paper's Figure 2 points.
func sgbDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO pts VALUES
		(1, 1, 1), (2, 2, 2), (3, 6, 1), (4, 7, 2), (5, 4, 1.5)`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSGBAllThreeSemanticsViaSQL(t *testing.T) {
	db := sgbDB(t)
	cases := []struct {
		clause string
		want   []string // sorted counts
	}{
		{"ON-OVERLAP JOIN-ANY", []string{"2", "3"}},
		{"ON-OVERLAP ELIMINATE", []string{"2", "2"}},
		{"ON-OVERLAP FORM-NEW-GROUP", []string{"1", "2", "2"}},
	}
	for _, c := range cases {
		got := queryStrings(t, db, fmt.Sprintf(`
			SELECT count(*) FROM pts
			GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 %s
			ORDER BY count(*)`, c.clause))
		flat := make([]string, len(got))
		for i, r := range got {
			flat[i] = r[0]
		}
		if !reflect.DeepEqual(flat, c.want) {
			t.Errorf("%s: counts = %v, want %v", c.clause, flat, c.want)
		}
	}
}

func TestSGBHavingFiltersGroups(t *testing.T) {
	db := sgbDB(t)
	got := queryStrings(t, db, `
		SELECT count(*), list_id(id) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP
		HAVING count(*) > 1
		ORDER BY list_id(id)`)
	want := [][]string{{"2", "{1,2}"}, {"2", "{3,4}"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSGBThreeDimensionalGrouping(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE p3 (id INT, x FLOAT, y FLOAT, z FLOAT)"); err != nil {
		t.Fatal(err)
	}
	// Two 3-D clusters separated along z.
	if _, err := db.Exec(`INSERT INTO p3 VALUES
		(1, 0, 0, 0), (2, 1, 1, 1), (3, 0, 1, 0),
		(4, 0, 0, 50), (5, 1, 1, 51)`); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, `
		SELECT count(*) FROM p3
		GROUP BY x, y, z DISTANCE-TO-ANY L2 WITHIN 3
		ORDER BY count(*)`)
	want := [][]string{{"2"}, {"3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3-D SGB = %v, want %v", got, want)
	}
}

func TestSGBOneDimensionalGrouping(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE p1 (v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO p1 VALUES (1), (1.5), (2), (10), (10.5)"); err != nil {
		t.Fatal(err)
	}
	got := queryStrings(t, db, `
		SELECT count(*), min(v), max(v) FROM p1
		GROUP BY v DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY
		ORDER BY min(v)`)
	want := [][]string{{"3", "1", "2"}, {"2", "10", "10.5"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("1-D SGB = %v, want %v", got, want)
	}
}

func TestSGBInDerivedTable(t *testing.T) {
	db := sgbDB(t)
	// The SGB result feeds an outer aggregation: total groups and members.
	got := queryStrings(t, db, `
		SELECT count(*), sum(r.members)
		FROM (SELECT count(*) AS members FROM pts
		      GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 3) AS r`)
	want := [][]string{{"1", "5"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSGBAfterJoinAndFilter(t *testing.T) {
	db := sgbDB(t)
	if _, err := db.Exec("CREATE TABLE labels (id INT, tag TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO labels VALUES
		(1, 'keep'), (2, 'keep'), (3, 'keep'), (4, 'drop'), (5, 'keep')`); err != nil {
		t.Fatal(err)
	}
	// SGB over the join result: point 4 is filtered out upstream, so the
	// right cluster is a singleton {3} and point 5 still bridges nothing
	// under ALL semantics.
	got := queryStrings(t, db, `
		SELECT count(*) FROM pts, labels
		WHERE pts.id = labels.id AND labels.tag = 'keep'
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE
		ORDER BY count(*)`)
	if len(got) == 0 {
		t.Fatal("SGB over join produced no groups")
	}
	var total int64
	for _, r := range got {
		var n int64
		fmt.Sscan(r[0], &n)
		total += n
	}
	if total > 4 {
		t.Fatalf("grouped more tuples (%d) than survived the filter (4)", total)
	}
}

func TestSGBAlgorithmChoiceDoesNotChangeAnswers(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE rp (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	tbl, _ := db.Catalog().Get("rp")
	for i := 0; i < 300; i++ {
		if err := tbl.Insert(Row{NewFloat(r.Float64() * 10), NewFloat(r.Float64() * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	q := `SELECT count(*) FROM rp
	      GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP ELIMINATE
	      ORDER BY count(*)`
	var results [][][]string
	for _, alg := range []SGBAlgorithm{SGBAllPairs, SGBBounds, SGBIndex} {
		db.SetSGBAlgorithm(alg)
		results = append(results, queryStrings(t, db, q))
	}
	if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[1], results[2]) {
		t.Fatal("SGB answers depend on the physical algorithm")
	}
	if st := db.LastSGBStats(); st == nil || st.Points != 300 {
		t.Fatalf("stats not exposed: %+v", db.LastSGBStats())
	}
}

func TestSGBErrorsOnBadAttributes(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE bad (x FLOAT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO bad VALUES (1, 'a'), (NULL, 'b')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT count(*) FROM bad GROUP BY x, s DISTANCE-TO-ALL L2 WITHIN 1`); err == nil {
		t.Error("text grouping attribute accepted")
	}
	if _, err := db.Query(`SELECT count(*) FROM bad GROUP BY x DISTANCE-TO-ALL L2 WITHIN 1`); err == nil {
		t.Error("NULL grouping attribute accepted")
	}
}

func TestSGBEmptyInput(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE empty (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT count(*) FROM empty
		GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("SGB over empty input produced %d rows", len(res.Rows))
	}
}

func TestSGBL1MetricViaSQL(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE l1 (x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	// L1 distance between (0,0) and (1.5,1.5) is 3 > 2; L∞ is 1.5 < 2.
	if _, err := db.Exec("INSERT INTO l1 VALUES (0, 0), (1.5, 1.5)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT count(*) FROM l1
		GROUP BY x, y DISTANCE-TO-ALL L1 WITHIN 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("L1 grouped %d groups, want 2 (points are 3 apart in L1)", len(res.Rows))
	}
	res, err = db.Query(`SELECT count(*) FROM l1
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("LINF grouped %d groups, want 1", len(res.Rows))
	}
}

// loadGrid populates a table with ε-grid-adversarial float coordinates:
// exact multiples of eps nudged by ±ULP-scale deltas, the inputs most likely
// to expose any disagreement between the ε-grid's cell arithmetic and the
// per-point geom.Within calls.
func loadGrid(t *testing.T, db *DB, n int, dim int, eps float64, seed int64) {
	t.Helper()
	cols := "x FLOAT"
	if dim >= 2 {
		cols += ", y FLOAT"
	}
	if dim >= 3 {
		cols += ", z FLOAT"
	}
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE pts (id INT, %s)", cols)); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Get("pts")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	deltas := []float64{0, 0, 1e-16, -1e-16, 1e-9, -1e-9, eps / 2}
	rows := make([]Row, n)
	for i := range rows {
		row := Row{NewInt(int64(i))}
		for d := 0; d < dim; d++ {
			cell := float64(r.Intn(9) - 4)
			row = append(row, NewFloat(cell*eps+deltas[r.Intn(len(deltas))]))
		}
		rows[i] = row
	}
	if err := tab.Insert(rows...); err != nil {
		t.Fatal(err)
	}
}

// TestColumnarMatchesRowPath is the engine's cross-algorithm check on
// adversarial coordinates: every statement must return bit-identical rows
// under every \alg — index and allpairs for DISTANCE-TO-ANY, bounds as well
// for DISTANCE-TO-ALL under each ON-OVERLAP clause — across metrics and ε
// values.
func TestColumnarMatchesRowPath(t *testing.T) {
	for _, dim := range []int{1, 2} {
		for _, eps := range []float64{0.25, 1.0} {
			db := NewDB()
			loadGrid(t, db, 900, dim, eps, int64(100*dim)+int64(eps*4))
			group := "x"
			if dim == 2 {
				group = "x, y"
			}
			var anyQ, allQ []string
			for _, m := range []string{"L2", "LINF", "L1"} {
				anyQ = append(anyQ,
					fmt.Sprintf("SELECT %s, count(*) FROM pts GROUP BY %s DISTANCE-TO-ANY %s WITHIN %g", group, group, m, eps),
					fmt.Sprintf("SELECT %s, count(*) FROM pts WHERE id < 700 GROUP BY %s DISTANCE-TO-ANY %s WITHIN %g", group, group, m, eps),
				)
				allQ = append(allQ,
					fmt.Sprintf("SELECT %s, count(*) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN %g ON-OVERLAP JOIN-ANY", group, group, m, eps),
					fmt.Sprintf("SELECT %s, count(*) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN %g ON-OVERLAP ELIMINATE", group, group, m, eps),
					fmt.Sprintf("SELECT %s, count(*) FROM pts GROUP BY %s DISTANCE-TO-ALL %s WITHIN %g ON-OVERLAP FORM-NEW-GROUP", group, group, m, eps),
				)
			}
			check := func(q string, algs ...SGBAlgorithm) {
				var ref []string // All-Pairs
				for _, alg := range append([]SGBAlgorithm{SGBAllPairs}, algs...) {
					db.SetSGBAlgorithm(alg)
					res, err := db.Query(q)
					if err != nil {
						t.Fatalf("%s (%v): %v", q, alg, err)
					}
					if got := rowStrings(res); ref == nil {
						ref = got
					} else if !reflect.DeepEqual(got, ref) {
						t.Fatalf("%s: %v differs from allpairs\n%v: %v\nallpairs: %v", q, alg, alg, got, ref)
					}
				}
			}
			for _, q := range anyQ {
				check(q, SGBIndex)
			}
			for _, q := range allQ {
				check(q, SGBBounds, SGBIndex)
			}
		}
	}
}

// TestSGBRespectsRowLimit pins that the SGB operator charges the tuples it
// buffers against MaxRowsMaterialized.
func TestSGBRespectsRowLimit(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 19)
	db.SetLimits(Limits{MaxRowsMaterialized: 500})
	_, err := db.Query("SELECT x, y, count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 3")
	var rle *ResourceLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %v, want ResourceLimitError", err)
	}
}
