package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sgb/internal/core"
	"sgb/internal/geom"
)

// sgbEstRows returns the est_rows EXPLAIN prints on sql's SimilarityGroupBy
// node.
func sgbEstRows(t *testing.T, db *DB, sql string) float64 {
	t.Helper()
	res, err := db.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		line := row[0].S
		if !strings.Contains(line, "SimilarityGroupBy") {
			continue
		}
		_, rest, _ := strings.Cut(line, "est_rows=")
		v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no SimilarityGroupBy node in the plan of %s", sql)
	return 0
}

// TestSGBReserveFromEstimate checks that the group estimate the SGB operator
// sizes its grouper with never shows in the answer: over filters whose
// est_rows is far above or far below the groups formed, every statement
// returns the group sizes, in order, of a grouper that reserved nothing, fed
// the same filtered points.
func TestSGBReserveFromEstimate(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	// Rows with id < 1000 crowd into three spots; the rest lie alone, far
	// apart.
	r := rand.New(rand.NewSource(3))
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		x, y := 100+r.Float64()*1000, 100+r.Float64()*1000
		if i < 1000 {
			x, y = float64(i%3)+0.05*r.Float64(), 0.05*r.Float64()
		}
		if i%200 == 0 {
			if i > 0 {
				if _, err := db.Exec(b.String()); err != nil {
					t.Fatal(err)
				}
			}
			b.Reset()
			b.WriteString("INSERT INTO t VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %v, %v)", i, x, y)
	}
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		where, clause string
		opt           core.Options
		wantGroups    int
	}{
		{"id < 1000", "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY",
			core.Options{Metric: geom.LInf, Overlap: core.JoinAny}, 3},
		{"id < 1000", "DISTANCE-TO-ALL L2 WITHIN 0.5 ON-OVERLAP FORM-NEW-GROUP",
			core.Options{Metric: geom.L2, Overlap: core.FormNewGroup}, 3},
		{"id < 1000", "DISTANCE-TO-ANY L2 WITHIN 0.5", core.Options{Metric: geom.L2}, 3},
		{"id >= 200", "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP ELIMINATE",
			core.Options{Metric: geom.LInf, Overlap: core.Eliminate}, 1003},
		{"x > 50", "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP JOIN-ANY",
			core.Options{Metric: geom.LInf, Overlap: core.JoinAny}, 1000},
	} {
		sql := fmt.Sprintf("SELECT count(*) FROM t WHERE %s GROUP BY x, y %s", c.where, c.clause)
		got := queryStrings(t, db, sql)
		est := sgbEstRows(t, db, sql)
		t.Logf("est_rows %.0f, %d groups: %s", est, len(got), sql)
		if len(got) != c.wantGroups {
			t.Fatalf("%s: %d groups, want %d", sql, len(got), c.wantGroups)
		}
		if ratio := max(est, 1) / float64(len(got)); ratio < 4 && ratio > 0.25 {
			t.Fatalf("%s: est_rows %.0f against %d groups is not far off", sql, est, len(got))
		}

		opt := c.opt
		opt.Eps, opt.Algorithm = 0.5, core.IndexBounds
		var g interface {
			Add(geom.Point) (int, error)
			Finish() (*core.Result, error)
		}
		var err error
		if strings.HasPrefix(c.clause, "DISTANCE-TO-ALL") {
			g, err = core.NewAllGrouper(opt)
		} else {
			g, err = core.NewAnyGrouper(opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range queryRows(t, db, "SELECT x, y FROM t WHERE "+c.where) {
			if _, err := g.Add(geom.Point{row[0].F, row[1].F}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := g.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sizes := want.Sizes()
		if len(got) != len(sizes) {
			t.Fatalf("%s: %d groups, an unreserved grouper %d", sql, len(got), len(sizes))
		}
		for i, row := range got {
			if row[0] != strconv.Itoa(sizes[i]) {
				t.Fatalf("%s: group %d has %s members, an unreserved grouper's %d", sql, i, row[0], sizes[i])
			}
		}
	}
}
