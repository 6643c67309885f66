package sgb

import (
	"math"
	"regexp"
	"strconv"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/cluster"
	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
	"sgb/internal/tpch"
)

// Counted work is the one unit TestPaperShapes argues in. It is exact and
// deterministic for a fixed input, so every assertion reads the same on any
// host, at any GOMAXPROCS, with or without -race:
//
//   - an SGB run costs DistanceComps + RectTests + HullTests + WindowQueries;
//   - DBSCAN costs its distance evaluations plus its region queries;
//   - K-means and BIRCH cost their distance evaluations;
//   - a SQL statement costs the sum of actual rows over its EXPLAIN ANALYZE
//     operators, plus the work of its SGB operator.

func sgbWork(s core.Stats) int64 {
	return s.DistanceComps + s.RectTests + s.HullTests + s.WindowQueries
}

func dbscanWork(r *cluster.DBSCANResult) int64 { return r.DistanceComps + r.RegionQueries }

var (
	actualRowsRe = regexp.MustCompile(`actual rows=(\d+)`)
	sgbStatsRe   = regexp.MustCompile(`SGB Stats: points=\d+ distance_comps=(\d+) rect_tests=(\d+) hull_tests=(\d+) window_queries=(\d+)`)
)

// sqlWork runs sql under EXPLAIN ANALYZE and returns its counted work.
func sqlWork(t *testing.T, db *engine.DB, sql string) int64 {
	t.Helper()
	res, err := db.Exec("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var work int64
	add := func(s string) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		work += v
	}
	for _, r := range res.Rows {
		line := r[0].String()
		for _, m := range actualRowsRe.FindAllStringSubmatch(line, -1) {
			add(m[1])
		}
		if m := sgbStatsRe.FindStringSubmatch(line); m != nil {
			for _, v := range m[1:] {
				add(v)
			}
		}
	}
	return work
}

func groupAll(t *testing.T, pts []geom.Point, eps float64, ov core.Overlap, alg core.Algorithm) *core.Result {
	t.Helper()
	res, err := core.SGBAll(pts, core.Options{Metric: geom.L2, Eps: eps, Overlap: ov, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func groupAny(t *testing.T, pts []geom.Point, eps float64, alg core.Algorithm) *core.Result {
	t.Helper()
	res, err := core.SGBAny(pts, core.Options{Metric: geom.L2, Eps: eps, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tpchDB loads the evaluation's TPC-H-style data at scale factor sf (300
// customers per SF, seed 1) with the on-the-fly index pinned.
func tpchDB(t *testing.T, sf float64) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	if err := tpch.Generate(tpch.Config{SF: sf, CustomersPerSF: 300, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	db.SetSGBAlgorithm(engine.SGBIndex)
	return db
}

var overlaps = []core.Overlap{core.JoinAny, core.Eliminate, core.FormNewGroup}

// TestPaperShapes asserts the orderings of the paper's evaluation (§8: Table
// 1 and Figures 9–12) in counted work. Each subtest logs its exact counts;
// it asserts only orderings and ratios. EXPERIMENTS.md cites these subtests
// and the counts they log.
func TestPaperShapes(t *testing.T) {
	t.Parallel()
	for _, s := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Table1", testTable1},
		{"Fig9", testFig9},
		{"Fig10", testFig10},
		{"Fig11", testFig11},
		{"Fig12", testFig12},
	} {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel() // independent inputs; the counts do not depend on scheduling
			s.run(t)
		})
	}
}

// sweepNs are the sizes of sweepPoints that Table 1 and Figure 9 run at, at
// ε 0.2 under L2.
var sweepNs = []int{1000, 2000, 4000}

const sweepEps = 0.2

// sgbAllOrdering runs every SGB-All algorithm on pts under ov, asserts Index
// < Bounds-Checking < All-Pairs, and returns All-Pairs' work.
func sgbAllOrdering(t *testing.T, pts []geom.Point, ov core.Overlap) int64 {
	t.Helper()
	work := map[core.Algorithm]int64{}
	for _, alg := range []core.Algorithm{core.AllPairs, core.BoundsChecking, core.IndexBounds} {
		res := groupAll(t, pts, sweepEps, ov, alg)
		work[alg] = sgbWork(res.Stats)
		t.Logf("n=%d SGB-All %v %v: work %d %+v groups=%d", len(pts), ov, alg, work[alg], res.Stats, len(res.Groups))
	}
	if !(work[core.IndexBounds] < work[core.BoundsChecking] && work[core.BoundsChecking] < work[core.AllPairs]) {
		t.Errorf("n=%d %v: want Index < Bounds-Checking < All-Pairs, got %d / %d / %d",
			len(pts), ov, work[core.IndexBounds], work[core.BoundsChecking], work[core.AllPairs])
	}
	return work[core.AllPairs]
}

// testTable1: on sweepPoints, Index < Bounds-Checking < All-Pairs for every
// ON-OVERLAP clause at every n, and All-Pairs ELIMINATE and FORM-NEW-GROUP
// grow quadratically.
func testTable1(t *testing.T) {
	allPairs := map[core.Overlap][]int64{}
	for _, n := range sweepNs {
		pts := sweepPoints(n, 1)
		for _, ov := range overlaps {
			allPairs[ov] = append(allPairs[ov], sgbAllOrdering(t, pts, ov))
		}
	}
	for _, ov := range []core.Overlap{core.Eliminate, core.FormNewGroup} {
		w := allPairs[ov]
		var sum float64
		for i := 1; i < len(w); i++ {
			sum += math.Log2(float64(w[i]) / float64(w[i-1]))
		}
		exp := sum / float64(len(w)-1)
		t.Logf("All-Pairs %v doubling exponent %.2f", ov, exp)
		if exp < 1.8 {
			t.Errorf("All-Pairs %v doubling exponent %.2f, want ≥ 1.8 (quadratic)", ov, exp)
		}
	}
}

// testFig9: on sweepPoints at the largest n, Index < Bounds-Checking <
// All-Pairs for every SGB-All ON-OVERLAP clause (Figure 9a–c), and at every n
// SGB-Any's index is two orders of magnitude below its All-Pairs (Figure 9d).
func testFig9(t *testing.T) {
	pts := sweepPoints(sweepNs[len(sweepNs)-1], 1)
	for _, ov := range overlaps {
		sgbAllOrdering(t, pts, ov)
	}
	for _, n := range sweepNs {
		pts := sweepPoints(n, 1)
		ap := groupAny(t, pts, sweepEps, core.AllPairs)
		ix := groupAny(t, pts, sweepEps, core.IndexBounds)
		apWork, ixWork := sgbWork(ap.Stats), sgbWork(ix.Stats)
		t.Logf("n=%d SGB-Any: All-Pairs work %d, Index work %d %+v (%.0f×)", n, apWork, ixWork, ix.Stats, float64(apWork)/float64(ixWork))
		if ixWork*100 > apWork {
			t.Errorf("n=%d SGB-Any: Index work %d is not 100× below All-Pairs %d", n, ixWork, apWork)
		}
	}
}

// testFig10: on SGB1's derived (account balance, buying power) points at SF
// 1, 2, 4 and 8, Index < Bounds-Checking for every ON-OVERLAP clause, and the
// Bounds/Index ratio grows with the scale factor.
func testFig10(t *testing.T) {
	const eps = 0.2
	prev := map[core.Overlap]float64{}
	for _, sf := range []float64{1, 2, 4, 8} {
		db := tpchDB(t, sf)
		res, err := db.Query(`
			SELECT c_acctbal / 100.0 AS ab, sum(o_totalprice) / 30000.0 AS tp
			FROM customer, orders
			WHERE c_custkey = o_custkey AND c_acctbal > 100 AND o_totalprice > 30000
			GROUP BY c_custkey, c_acctbal`)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]geom.Point, len(res.Rows))
		for i, r := range res.Rows {
			pts[i] = geom.Point{r[0].F, r[1].F}
		}
		for _, ov := range overlaps {
			bounds := sgbWork(groupAll(t, pts, eps, ov, core.BoundsChecking).Stats)
			index := sgbWork(groupAll(t, pts, eps, ov, core.IndexBounds).Stats)
			ratio := float64(bounds) / float64(index)
			t.Logf("SF %g (%d rows) %v: Bounds-Checking %d, Index %d (%.0f×)", sf, len(pts), ov, bounds, index, ratio)
			if index >= bounds {
				t.Errorf("SF %g %v: Index work %d not below Bounds-Checking %d", sf, ov, index, bounds)
			}
			if ratio <= prev[ov] {
				t.Errorf("SF %g %v: Bounds/Index ratio %.0f× did not grow from %.0f×", sf, ov, ratio, prev[ov])
			}
			prev[ov] = ratio
		}
	}
}

// testFig11: on check-in data at ε 0.005, SGB-Any does less work than DBSCAN,
// and every SGB variant is at least 10× below K-means(20) and BIRCH.
func testFig11(t *testing.T) {
	const eps = 0.005
	for _, n := range []int{2000, 5000, 10000} {
		pts := checkin.Points(checkin.Generate(checkin.Config{N: n, Seed: 1}))
		db, err := cluster.DBSCAN(pts, geom.L2, eps, 4)
		if err != nil {
			t.Fatal(err)
		}
		km, err := cluster.KMeans(pts, 20, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		bi, err := cluster.BIRCH(pts, 4*eps, 8, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d DBSCAN %d (%d comps + %d region queries), K-means(20) %d, BIRCH %d",
			n, dbscanWork(db), db.DistanceComps, db.RegionQueries, km.DistanceComps, bi.DistanceComps)
		anyStats := groupAny(t, pts, eps, core.IndexBounds).Stats
		if w := sgbWork(anyStats); w >= dbscanWork(db) {
			t.Errorf("n=%d: SGB-Any work %d not below DBSCAN %d", n, w, dbscanWork(db))
		}
		type variant struct {
			name  string
			stats core.Stats
		}
		variants := []variant{{"SGB-Any", anyStats}}
		for _, ov := range overlaps {
			variants = append(variants, variant{"SGB-All " + ov.String(), groupAll(t, pts, eps, ov, core.IndexBounds).Stats})
		}
		for _, v := range variants {
			w := sgbWork(v.stats)
			t.Logf("n=%d %s: work %d %+v", n, v.name, w, v.stats)
			if w*10 > km.DistanceComps || w*10 > bi.DistanceComps {
				t.Errorf("n=%d %s: work %d is not 10× below K-means(20) %d and BIRCH %d", n, v.name, w, km.DistanceComps, bi.DistanceComps)
			}
		}
	}
}

// testFig12: at SF 1 each SGB statement costs at most 1.25× the Group-By
// statement over the same pipeline: SGB3 and SGB4 against GB2, SGB5 and SGB6
// against GB3.
func testFig12(t *testing.T) {
	const eps, maxRatio = 0.2, 1.25
	db := tpchDB(t, 1)
	for _, p := range []struct {
		gb   tpch.QuerySpec
		sgbs []tpch.QuerySpec
	}{
		{tpch.GB2(), []tpch.QuerySpec{tpch.SGB3(eps, core.JoinAny), tpch.SGB4(eps)}},
		{tpch.GB3(), []tpch.QuerySpec{tpch.SGB5(eps, core.JoinAny), tpch.SGB6(eps)}},
	} {
		gb := sqlWork(t, db, p.gb.SQL)
		for _, q := range p.sgbs {
			w := sqlWork(t, db, q.SQL)
			t.Logf("%s %d vs %s %d (%.2f×)", q.ID, w, p.gb.ID, gb, float64(w)/float64(gb))
			if float64(w) > maxRatio*float64(gb) {
				t.Errorf("%s work %d is %.2f× %s's %d, want ≤ %.2f×", q.ID, w, float64(w)/float64(gb), p.gb.ID, gb, maxRatio)
			}
		}
	}
}
