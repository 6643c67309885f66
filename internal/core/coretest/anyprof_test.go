// Package coretest holds core tests and benchmarks that need the checkin
// generator, which cannot be imported from core's own tests (checkin depends
// on engine, engine depends on core).
package coretest

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sgb/internal/checkin"
	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
)

func checkinPoints(n int) []geom.Point {
	return checkin.Points(checkin.Generate(checkin.Config{N: n, Seed: 1}))
}

// TestAnyGridBudget is the first row of the counter budgets (ROADMAP 5a): the
// benchmark's any_hotspot shape — 8000 skewed check-ins, ε = 0.25, L2 — must
// stay within 10 % of the distance work measured when the row last moved,
// probe once per point, and agree with the all-pairs oracle. The ε-grid
// landed at 0.127 verified pairs per point against the R-tree path's 329;
// 0.127 → 0.038 once a certified cell's scan stopped at its first witness
// instead of finishing a 32-row kernel block (same groups). The budget only
// ratchets down.
func TestAnyGridBudget(t *testing.T) {
	const (
		n                  = 8000
		compsPerPoint      = 0.038
		rtreeCompsPerPoint = 329.0
	)
	pts := checkinPoints(n)
	opt := core.Options{Metric: geom.L2, Eps: 0.25, Algorithm: core.IndexBounds}
	got, err := core.SGBAny(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = core.AllPairs
	want, err := core.SGBAny(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("grid forms %d groups, all-pairs %d, or different ones", len(got.Groups), len(want.Groups))
	}
	if got.Stats.WindowQueries != n || got.Stats.IndexUpdates != n {
		t.Errorf("WindowQueries = %d, IndexUpdates = %d, want %d each", got.Stats.WindowQueries, got.Stats.IndexUpdates, n)
	}
	perPoint := float64(got.Stats.DistanceComps) / n
	t.Logf("DistanceComps/point = %.3f", perPoint)
	if perPoint > 1.1*compsPerPoint {
		t.Errorf("DistanceComps/point = %.3f, budget %.3f", perPoint, 1.1*compsPerPoint)
	}
	if perPoint > rtreeCompsPerPoint/10 {
		t.Errorf("DistanceComps/point = %.3f is not 10× below the R-tree path's %.0f", perPoint, rtreeCompsPerPoint)
	}
}

// servedCheckins draws the benchmark's serve_read input: the internal/checkin
// mixture (40 Gaussian hotspots with Zipf weights, σ 0.05°, 5 % uniform
// background) over the benchmark's fixed hotspot layout, so the counts below
// are the ones its traced pass reports.
func servedCheckins(n int, seed int64) []geom.Point {
	const hotspots, spread, background, layoutSeed = 40, 0.05, 0.05, 20090329
	box := [4]float64{25, 49, -125, -67}
	lr := rand.New(rand.NewSource(layoutSeed))
	type spot struct{ lat, lon, cum float64 }
	spots := make([]spot, hotspots)
	var total float64
	for i := range spots {
		total += 1 / float64(i+1)
		spots[i] = spot{box[0] + lr.Float64()*(box[1]-box[0]), box[2] + lr.Float64()*(box[3]-box[2]), total}
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		if r.Float64() < background {
			pts[i] = geom.Point{box[0] + r.Float64()*(box[1]-box[0]), box[2] + r.Float64()*(box[3]-box[2])}
			continue
		}
		target := r.Float64() * total
		s := spots[len(spots)-1]
		for _, c := range spots {
			if c.cum >= target {
				s = c
				break
			}
		}
		pts[i] = geom.Point{
			min(max(s.lat+r.NormFloat64()*spread, box[0]), box[1]),
			min(max(s.lon+r.NormFloat64()*spread, box[2]), box[3]),
		}
	}
	return pts
}

// TestAllGridBudget is the SGB-All row of the counter budgets: the
// benchmark's serve_read shape — 5000 check-ins, seed 1, L∞, ε = 0.05,
// JOIN-ANY — on the ε-grid of group regions must agree with All-Pairs, probe
// once per point, register each of its 871 groups once, and rect-test
// exactly 33,259 groups (51,836 through the R-tree it replaced). One grouping
// allocates within 10 % of the 156 objects measured since a group became an
// id into struct-of-arrays state (157 under the race detector); it was 12,791
// while every group was a heap object with its own member, column and MBR
// slices (13,662 under race), and 46,238 on the R-tree. Budgets only ratchet
// down.
func TestAllGridBudget(t *testing.T) {
	const (
		n         = 5000
		groups    = 871
		rectTests = 33259
		allocs    = 156
	)
	pts := servedCheckins(n, 1)
	opt := core.Options{Metric: geom.LInf, Eps: 0.05, Overlap: core.JoinAny, Algorithm: core.IndexBounds}
	got, err := core.SGBAll(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	ap := opt
	ap.Algorithm = core.AllPairs
	want, err := core.SGBAll(pts, ap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) || len(got.Groups) != groups {
		t.Fatalf("grid forms %d groups, all-pairs %d, or different ones; want %d", len(got.Groups), len(want.Groups), groups)
	}
	s := got.Stats
	if s.WindowQueries != n || s.IndexUpdates != groups {
		t.Errorf("WindowQueries = %d, IndexUpdates = %d, want %d and %d", s.WindowQueries, s.IndexUpdates, n, groups)
	}
	if s.RectTests != rectTests {
		t.Errorf("RectTests = %d, want %d", s.RectTests, rectTests)
	}
	a := testing.AllocsPerRun(3, func() {
		if _, err := core.SGBAll(pts, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per grouping", a)
	if a > 1.1*allocs {
		t.Errorf("%.0f allocs per grouping, budget %.0f", a, 1.1*allocs)
	}
}

// TestServeReadStatementAllocBudget is the statement row above
// TestAllGridBudget: the benchmark's serve_read statement, end to end through
// the embedded engine, over the same 5000 check-ins loaded as the benchmark
// loads them (user_id 1 + i mod 997). It must stay within 5 % of the objects
// and bytes one execution allocated when the row last moved: 18,253 objects
// and 3.47 MB while every group was a heap object and every aggregate state a
// boxed accumulator; 382 and 3.00 MB since both are ids into columns; 382 →
// 380 and 3.00 → 2.92 MB since the engine feeds the grouper one point at a
// time instead of transposing the input into columns (389 and 3.12 MB under
// the race detector, which the bytes budget admits). Budgets only ratchet
// down.
func TestServeReadStatementAllocBudget(t *testing.T) {
	const (
		objects = 380
		mbytes  = 3.02
		sql     = "SELECT count(*), min(lat), max(lat), min(lon), max(lon) FROM checkins " +
			"GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY"
	)
	pts := servedCheckins(5000, 1)
	cs := make([]checkin.Checkin, len(pts))
	for i, p := range pts {
		cs[i] = checkin.Checkin{UserID: 1 + i%997, Lat: p[0], Lon: p[1]}
	}
	db := engine.NewDB()
	if err := checkin.Load(db, "checkins", cs); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
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

// BenchmarkAnyIndexCheckin runs the SGB-Any IndexBounds grouper over the
// clustered check-in dataset — the same shape as the benchmark's core.any_ms
// probe. The clustered distribution matters: hotspots are where a point has
// hundreds of ε-neighbours and the index has to avoid looking at them.
func BenchmarkAnyIndexCheckin(b *testing.B) {
	pts := checkinPoints(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		g, _ := core.NewAnyGrouper(core.Options{Metric: geom.L2, Eps: 0.25, Algorithm: core.IndexBounds})
		for _, p := range pts {
			if _, err := g.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := g.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnyStatementAllocBudget is the second row (ROADMAP 5a): what one
// statement over the same 8000 check-ins allocates, end to end through the
// engine, within 5 % of what was measured when it last moved. The first
// statement folds nothing but count(*) — every allocation is the SGB
// operator's own (6,869) — and the second is the benchmark's any_hotspot
// (7,724 once aggregate arguments reused one slice per call, 2 × 8000 fewer
// than before). The third is a filtered hash aggregation (13,287; 3,361 once
// group keys became a reused binary buffer and group values a reused scratch
// slice). Since aggregate states are columns indexed by group id and result
// rows are carved from shared chunks, they read 6,062, 6,094 and 585 (615
// under the race detector; 6,886, 7,741 and 3,362 with a boxed accumulator
// per group). The SGB rows read 6,062 → 2,853 and 6,093 → 2,885 (2,859 and
// 2,891 under the race detector) since the grid's cells stopped keeping a
// columnar copy of their points. Budgets only ratchet down.
func TestAnyStatementAllocBudget(t *testing.T) {
	db := engine.NewDB()
	if err := checkin.Load(db, "checkins", checkin.Generate(checkin.Config{N: 8000, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql    string
		budget float64
	}{
		{"SELECT lat, lon, count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25", 2995},
		{"SELECT count(*), avg(lat), avg(lon) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25", 3030},
		{"SELECT user_id, count(*), avg(lat) FROM checkins WHERE lon > -96 GROUP BY user_id", 645},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := db.Exec(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocs: %s", allocs, c.sql)
		if allocs > c.budget {
			t.Errorf("%.0f allocs, budget %.0f: %s", allocs, c.budget, c.sql)
		}
	}
}
