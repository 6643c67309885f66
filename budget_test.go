package sgb

import (
	"runtime"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/engine"
)

// TestAllL2StatementAllocBudget pins the SGB-All path that no benchmark
// workload runs: L2, whose 2-D groups keep a convex hull each (Procedure 6),
// over 8000 skewed check-ins, end to end through the embedded engine. It must
// form 1,286 groups and stay within 5 % of the objects and bytes one execution
// allocated when the row last moved: 28,404 objects and 6.36 MB while every
// buffer grew by doubling, 28,248 and 4.90 MB since the statement reserves
// them once from its exact point count and the planner's group estimate.
// Most of the objects are the groups' hulls (28,259 and 4.99 MB under the
// race detector, which the budgets admit). Budgets only ratchet down.
func TestAllL2StatementAllocBudget(t *testing.T) {
	const (
		groups  = 1286
		objects = 28248
		mbytes  = 4.90
		sql     = "SELECT count(*), avg(lat), avg(lon) FROM checkins " +
			"GROUP BY lat, lon DISTANCE-TO-ALL L2 WITHIN 0.05 ON-OVERLAP JOIN-ANY"
	)
	db := engine.NewDB()
	if err := checkin.Load(db, "checkins", checkin.Generate(checkin.Config{N: 8000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != groups {
			t.Fatalf("%d groups, want %d", len(res.Rows), groups)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
	t.Logf("%.0f allocs, %.2f MB per statement", allocs, mb)
	if allocs > 1.05*objects {
		t.Errorf("%.0f allocs per statement, budget %.0f", allocs, 1.05*objects)
	}
	if mb > 1.05*mbytes {
		t.Errorf("%.2f MB per statement, budget %.2f MB", mb, 1.05*mbytes)
	}
}
