package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"sgb"
	"sgb/internal/tpch"
)

// repeatSetup runs setup reps times, tearing down every instance but the
// last, and returns that instance with the median set-up time in seconds.
// One set-up is a noisy sample (a cold page cache, a slow fork); the driver
// bounds setup_s, so it is measured several times per run.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(inst)
		}
		begin := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(begin).Seconds())
	}
	return inst, median(times), nil
}

// timedLoop runs op n times back to back — a closed loop with one caller —
// and returns each op's latency and the wall time of the whole phase. It
// stops early once guard has passed, so a build ten times slower than the one
// the counts were tuned on still ends inside the driver's time limit.
func timedLoop(n int, guard time.Duration, op func(i int)) ([]time.Duration, time.Duration) {
	lat := make([]time.Duration, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		op(i)
		lat = append(lat, time.Since(t))
		if time.Since(begin) > guard {
			fmt.Fprintf(os.Stderr, "benchmark: timed phase cut short after %d of %d ops (%v)\n", i+1, n, guard)
			break
		}
	}
	return lat, time.Since(begin)
}

// finishEmbedded fills the metrics every embedded workload shares.
func finishEmbedded(res *result, setupS float64, lat []time.Duration, wall time.Duration) error {
	res.set("setup_s", setupS, "s")
	res.latency("query", lat, 0.9)
	res.set("ops_s", float64(len(lat))/wall.Seconds(), "1/s")
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss, "MB")
	return nil
}

// loadCheckins opens an embedded database holding pts in table checkins.
func loadCheckins(pts []sgb.Point) (*sgb.DB, error) {
	db := sgb.NewDB()
	err := execAll(func(q string) error { _, err := db.Exec(q); return err }, checkinLoadSQL(pts))
	return db, err
}

// runAnyHotspot is the any_hotspot workload: one caller repeating the
// SGB-Any statement on an embedded database.
func runAnyHotspot(cfg config) (*result, error) {
	// One core: at two, single statements of this workload run 55-240 ms on
	// the two-vCPU sandbox (80-85 ms at one) and no bound below 25 % would
	// hold. See "One core for any_hotspot" in README.md.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sz := cfg.sizes()
	res := newResult("any_hotspot")
	var pts []sgb.Point
	db, setupS, err := repeatSetup(cfg.setupReps(), func() (*sgb.DB, error) {
		pts = genCheckins(sz.anyN, cfg.seed)
		db, err := loadCheckins(pts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sz.anyWarm; i++ {
			if _, err := db.Exec(anyHotspotSQL); err != nil {
				return nil, err
			}
		}
		return db, nil
	}, func(*sgb.DB) {})
	if err != nil {
		return nil, err
	}

	answers := make([]*sgb.QueryResult, sz.anyOps)
	errs := make([]error, sz.anyOps)
	runtime.GC()
	resetPeakRSS()
	lat, wall := timedLoop(sz.anyOps, cfg.guard(), func(i int) {
		answers[i], errs[i] = db.Exec(anyHotspotSQL)
	})
	if err := finishEmbedded(res, setupS, lat, wall); err != nil {
		return nil, err
	}

	// Output check: the connected components of the ε-graph do not depend on
	// the order points are processed in, so a quadratic all-pairs oracle that
	// shares no code with the operator must find the same group sizes.
	want := naiveComponentSizes(pts, anyHotspotEps)
	for i := range lat {
		res.Attempted++
		if errs[i] != nil {
			res.fail(1, "op %d: %v", i, errs[i])
			continue
		}
		if got := countColumnSorted(answers[i], 0); !slices.Equal(got, want) {
			res.fail(1, "op %d: %d groups, oracle has %d (or sizes differ)", i, len(got), len(want))
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// countColumnSorted returns column col of every row as ascending ints.
func countColumnSorted(r *sgb.QueryResult, col int) []int {
	out := make([]int, len(r.Rows))
	for i, row := range r.Rows {
		n, _ := row[col].AsInt()
		out[i] = int(n)
	}
	sort.Ints(out)
	return out
}

// stmtDigest is the order-free digest of one Table 2 statement's answer.
type stmtDigest struct {
	Rows int    `json:"rows"`
	Sum  uint64 `json:"sum"`
}

// loadTPCH generates the TPC-H subset and loads it into a fresh database.
func loadTPCH(sf float64, seed int64) (*sgb.DB, error) {
	db := sgb.NewDB()
	d := tpch.Generate(tpch.Config{SF: sf, CustomersPerSF: 1500, Seed: seed})
	if err := d.Load(db); err != nil {
		return nil, err
	}
	return db, nil
}

// table2Pass runs the nine statements once and digests each answer.
func table2Pass(db *sgb.DB, stmts []table2Stmt) ([]stmtDigest, error) {
	out := make([]stmtDigest, len(stmts))
	for i, s := range stmts {
		r, err := db.Exec(s.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
		out[i].Rows, out[i].Sum = rowsChecksum(r)
	}
	return out, nil
}

// runTPCHTable2 is the tpch_table2 workload: one caller repeating a pass over
// the paper's nine Table 2 statements on an embedded database.
func runTPCHTable2(cfg config) (*result, error) {
	sz := cfg.sizes()
	res := newResult("tpch_table2")
	stmts := table2()
	db, setupS, err := repeatSetup(cfg.setupReps(), func() (*sgb.DB, error) {
		db, err := loadTPCH(sz.tpchSF, cfg.seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sz.tpchWarm; i++ {
			if _, err := table2Pass(db, stmts); err != nil {
				return nil, err
			}
		}
		return db, nil
	}, func(*sgb.DB) {})
	if err != nil {
		return nil, err
	}

	digests := make([][]stmtDigest, sz.tpchOps)
	errs := make([]error, sz.tpchOps)
	runtime.GC()
	resetPeakRSS()
	lat, wall := timedLoop(sz.tpchOps, cfg.guard(), func(i int) {
		digests[i], errs[i] = table2Pass(db, stmts)
	})
	if err := finishEmbedded(res, setupS, lat, wall); err != nil {
		return nil, err
	}

	// Output check: every pass answers exactly as the first, and the first
	// matches the recorded golden when one exists for this seed and size.
	golden, err := loadGolden(cfg.seed, sz.tpchSF)
	if err != nil {
		return nil, err
	}
	want := golden
	for i := range lat {
		res.Attempted++
		if errs[i] != nil {
			res.fail(1, "pass %d: %v", i, errs[i])
			continue
		}
		if want == nil {
			want = digests[i]
		}
		for k, s := range stmts {
			if digests[i][k] != want[k] {
				res.fail(1, "pass %d %s: got %+v, want %+v", i, s.ID, digests[i][k], want[k])
				break
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
