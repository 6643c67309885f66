package engine_test

import (
	"math"
	"strings"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/core"
	"sgb/internal/engine"
)

// pricedWork is what one SGB run counted, priced with the constants sgbCost
// charges each algorithm: a distance computation, a rectangle test, and a
// window query — a probe of the point grid under SGB-Any, of the group grid
// under SGB-All.
func pricedWork(s core.Stats, sgbAny bool) float64 {
	window := engine.CostWindowQuery
	if sgbAny {
		window = engine.CostGridProbe
	}
	return float64(s.DistanceComps)*engine.CostDistComp +
		float64(s.RectTests)*engine.CostRectTest +
		float64(s.WindowQueries)*window
}

// TestCostBasedChoiceCountedCost is the planner row of the counter budgets:
// on check-in shapes where the cheapest algorithm differs — 200 rows, below
// the index's break-even, and 5000 rows, above it — the algorithm auto
// selection runs must do at most 1.25× the priced work of the cheapest manual
// \alg override. The work is read from the runs' exact counters, so the row
// reads the same on every host. That auto's rows equal every manual run's is
// TestAutoAlgorithmMatchesEveryManualChoice.
func TestCostBasedChoiceCountedCost(t *testing.T) {
	const maxRatio = 1.25
	db := engine.NewDB()
	for _, tb := range []struct {
		name string
		n    int
		seed int64
	}{{"checkins_small", 200, 2}, {"checkins", 5000, 1}} {
		if err := checkin.Load(db, tb.name, checkin.Generate(checkin.Config{N: tb.n, Seed: tb.seed})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		t.Fatal(err)
	}
	defer db.SetSGBAlgorithmAuto()

	work := func(sql string, sgbAny bool) float64 {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return pricedWork(*db.LastSGBStats(), sgbAny)
	}
	for _, c := range []struct {
		sql    string
		sgbAny bool
	}{
		{"SELECT count(*) FROM checkins_small GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25", true},
		{"SELECT count(*) FROM checkins_small GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.25 ON-OVERLAP JOIN-ANY", false},
		{"SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25", true},
		{"SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.25 ON-OVERLAP ELIMINATE", false},
	} {
		db.SetSGBAlgorithmAuto()
		auto := work(c.sql, c.sgbAny)
		best, bestAlg := math.Inf(1), ""
		// SGB-Any's Bounds-Checking runs as the index; listed after it, the
		// tie reports the index.
		for _, alg := range []core.Algorithm{core.AllPairs, core.IndexBounds, core.BoundsChecking} {
			db.SetSGBAlgorithm(alg)
			if w := work(c.sql, c.sgbAny); w < best {
				best, bestAlg = w, alg.String()
			}
		}
		t.Logf("auto %.0f, cheapest manual %s %.0f (%.2f×): %s", auto, bestAlg, best, auto/best, c.sql)
		if auto > maxRatio*best {
			t.Errorf("auto does %.0f units of work, %.2f× the cheapest manual choice (%s, %.0f); budget %.2f×: %s",
				auto, auto/best, bestAlg, best, maxRatio, c.sql)
		}
	}
}

// TestServeReadPlansIndex: the benchmark's serve_read statement plans the
// on-the-fly index over 5000 check-ins both with fresh statistics (sgbd runs
// ANALYZE before serving it) and without (the embedded probe does not), so
// the operator the benchmark times is the one the statement runs.
func TestServeReadPlansIndex(t *testing.T) {
	db := engine.NewDB()
	if err := checkin.Load(db, "checkins", checkin.Generate(checkin.Config{N: 5000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	const q = "EXPLAIN SELECT count(*), min(lat), max(lat), min(lon), max(lon) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY"
	for _, analyze := range []bool{false, true} {
		if analyze {
			if _, err := db.Exec("ANALYZE"); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		var plan []string
		for _, r := range res.Rows {
			plan = append(plan, r[0].String())
		}
		if !strings.Contains(strings.Join(plan, "\n"), "[on-the-fly Index]") {
			t.Errorf("analyzed=%v: serve_read's statement does not plan the index:\n%s", analyze, strings.Join(plan, "\n"))
		}
	}
}
