package engine_test

import (
	"math"
	"strings"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/core"
	"sgb/internal/engine"
)

// The weights pricedWork charges, in distance computations: a rectangle test
// short-circuits per dimension, a window query under SGB-All hashes or gathers
// the group grid's cells, and one under SGB-Any walks the point grid's cell
// lists. They were fitted on check-ins as wall time per counted operation
// over the wall time of one geom.Within.
const (
	weightDistComp    = 1.0
	weightRectTest    = 0.7
	weightWindowQuery = 16.0
	weightGridProbe   = 47.4
)

// pricedWork is what one SGB run counted, priced per counter: a distance
// computation, a rectangle test, and a window query — a probe of the point
// grid under SGB-Any, of the group grid under SGB-All.
func pricedWork(s core.Stats, sgbAny bool) float64 {
	window := weightWindowQuery
	if sgbAny {
		window = weightGridProbe
	}
	return float64(s.DistanceComps)*weightDistComp +
		float64(s.RectTests)*weightRectTest +
		float64(s.WindowQueries)*window
}

// TestCostBasedChoiceCountedCost is the planner row of the counter budgets:
// on check-in shapes of 200 and 5000 rows, the default algorithm (no \alg)
// must do at most 1.25× the priced work of the cheapest forced \alg. The
// work is read from the runs' exact counters, so the row reads the same on
// every host. That the default's rows equal every forced run's is
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
	forced := db.NewSession()

	work := func(s *engine.Session, sql string, sgbAny bool) float64 {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return pricedWork(*s.LastSGBStats(), sgbAny)
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
		def := work(&db.Session, c.sql, c.sgbAny)
		best, bestAlg := math.Inf(1), ""
		// SGB-Any's Bounds-Checking runs as the index; listed first, the
		// index wins the tie.
		for _, alg := range []engine.SGBAlgorithm{engine.SGBIndex, engine.SGBAllPairs, engine.SGBBounds} {
			forced.SetSGBAlgorithm(alg)
			if w := work(forced, c.sql, c.sgbAny); w < best {
				best, bestAlg = w, alg.String()
			}
		}
		t.Logf("default %.0f, cheapest forced %s %.0f (%.2f×): %s", def, bestAlg, best, def/best, c.sql)
		if def > maxRatio*best {
			t.Errorf("the default does %.0f units of work, %.2f× the cheapest forced choice (%s, %.0f); budget %.2f×: %s",
				def, def/best, bestAlg, best, maxRatio, c.sql)
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
