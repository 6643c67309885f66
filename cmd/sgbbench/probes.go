package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sgb/internal/checkin"
	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
	"sgb/internal/obs"
)

// The JSON probe suite is a fixed, fast workload whose output is committed
// as BENCH_<n>.json so the perf trajectory of the SGB pipeline is tracked
// across PRs: each probe records its query shape, input size, ε, wall time,
// and the cost counters of the paper's analysis (distance computations,
// rectangle tests, window queries, merges), plus a full engine metrics
// snapshot at the end of the run.
//
// Schema v3 raises the rep count and records the p50/p95/p99 wall times
// (nearest-rank over the probe's samples) next to the minimum, so
// tail-latency regressions are visible even when the best-case time holds.
// One additive extension tracks the columnar kernels: a kernel_probes section
// times the geom batch kernels against an equivalent scalar geom.Within loop
// over the same column.

// probeResult is one probe run in the JSON document.
type probeResult struct {
	Name          string  `json:"name"`
	Query         string  `json:"query"`
	Algorithm     string  `json:"algorithm"`
	N             int     `json:"n"`
	Eps           float64 `json:"eps"`
	WallMS        float64 `json:"wall_ms"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	Batch         int     `json:"batch"`
	Rows          int     `json:"rows"`
	DistanceComps int64   `json:"distance_comps"`
	RectTests     int64   `json:"rect_tests"`
	HullTests     int64   `json:"hull_tests"`
	WindowQueries int64   `json:"window_queries"`
	IndexUpdates  int64   `json:"index_updates"`
	GroupsMerged  int64   `json:"groups_merged"`
	Rounds        int     `json:"rounds"`
}

// kernelProbeResult times one metric's batch distance kernel against the
// scalar per-point loop it replaced, over the same coordinate column. The
// speedup ratio is the machine-portable signal: both variants run on the same
// host within the same process, so their quotient isolates the layout and
// vectorization effect from the machine.
type kernelProbeResult struct {
	Name        string  `json:"name"`
	Metric      string  `json:"metric"`
	N           int     `json:"n"`
	Dim         int     `json:"dim"`
	Eps         float64 `json:"eps"`
	KernelP50MS float64 `json:"kernel_p50_ms"`
	ScalarP50MS float64 `json:"scalar_p50_ms"`
	Speedup     float64 `json:"speedup_vs_scalar"`
	Matches     int     `json:"matches"`
}

// plannerProbeResult is one cost-based-planner probe: the same query timed
// under every manual \alg override and under auto selection, plus what the
// planner actually chose (parsed from EXPLAIN) and how far its cardinality
// estimate was from the measured row count (from EXPLAIN ANALYZE). The
// machine-portable signals are the ratios: auto_vs_best ≈ 1 means cost-based
// selection found the best manual choice, speedup_vs_default > 1 means it
// beat the old fixed on-the-fly-index default.
type plannerProbeResult struct {
	Name             string             `json:"name"`
	Query            string             `json:"query"`
	N                int                `json:"n"`
	Eps              float64            `json:"eps"`
	ChosenAlg        string             `json:"chosen_alg"`
	AutoP50MS        float64            `json:"auto_p50_ms"`
	ManualP50MS      map[string]float64 `json:"manual_p50_ms"`
	BestManualAlg    string             `json:"best_manual_alg"`
	BestManualP50MS  float64            `json:"best_manual_p50_ms"`
	DefaultP50MS     float64            `json:"default_p50_ms"`
	AutoVsBest       float64            `json:"auto_vs_best"`
	SpeedupVsDefault float64            `json:"speedup_vs_default"`
	EstRows          float64            `json:"est_rows"`
	ActualRows       int                `json:"actual_rows"`
	EstRowsError     float64            `json:"est_rows_error"`
}

// benchDoc is the whole machine-readable snapshot. planner_probes and
// stream_probes are schema-v3-additive sections: older documents simply lack
// them.
type benchDoc struct {
	SchemaVersion int                  `json:"schema_version"`
	Dataset       string               `json:"dataset"`
	N             int                  `json:"n"`
	Seed          int64                `json:"seed"`
	Batch         int                  `json:"batch"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Runs          []probeResult        `json:"runs"`
	KernelProbes  []kernelProbeResult  `json:"kernel_probes"`
	PlannerProbes []plannerProbeResult `json:"planner_probes,omitempty"`
	StreamProbes  []streamProbeResult  `json:"stream_probes,omitempty"`
	Metrics       obs.Snapshot         `json:"metrics"`
}

// probeReps is how many times each probe variant runs. The minimum wall time
// is reported for the speedup ratio (it filters scheduler noise on the
// sub-millisecond probes), and since schema v3 the sample distribution also
// yields p50/p95/p99 — enough reps that the p99 is a real observation rather
// than a copy of the max of three.
const probeReps = 9

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// samples: the smallest sample with at least p percent of the distribution at
// or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// runKernelProbes times the geom batch kernels (one WithinMask call over a
// whole coordinate column) against the scalar equivalent (a geom.Within call
// per point) on identical deterministic data, one probe per metric. Each
// sample times kernelIters full passes so the sub-microsecond single-pass
// cost accumulates to a stable measurement.
func runKernelProbes(n int, seed int64) []kernelProbeResult {
	const (
		dim         = 2
		eps         = 0.25
		kernelIters = 64
	)
	r := rand.New(rand.NewSource(seed))
	cols := geom.MakeCols(dim, n)
	for d := 0; d < dim; d++ {
		col := cols.Col(d)
		for i := range col {
			col[i] = r.Float64() * 4
		}
	}
	q := geom.Point{2, 2}
	dists := make([]float64, n)
	mask := make([]bool, n)
	pt := make(geom.Point, dim)

	time50 := func(f func()) float64 {
		samples := make([]time.Duration, 0, probeReps)
		for rep := 0; rep < probeReps; rep++ {
			start := time.Now()
			f()
			samples = append(samples, time.Since(start))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return float64(percentile(samples, 50).Nanoseconds()) / 1e6
	}

	var out []kernelProbeResult
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		var kernelMatches, scalarMatches int
		kernelP50 := time50(func() {
			for it := 0; it < kernelIters; it++ {
				kernelMatches = geom.WithinMask(m, cols, q, eps, dists, mask)
			}
		})
		scalarP50 := time50(func() {
			for it := 0; it < kernelIters; it++ {
				cnt := 0
				for i := 0; i < n; i++ {
					pt = cols.PointAt(i, pt)
					if geom.Within(m, pt, q, eps) {
						cnt++
					}
				}
				scalarMatches = cnt
			}
		})
		res := kernelProbeResult{
			Name:        "kernel_within_mask_" + strings.ToLower(m.String()),
			Metric:      m.String(),
			N:           n,
			Dim:         dim,
			Eps:         eps,
			KernelP50MS: kernelP50,
			ScalarP50MS: scalarP50,
			Matches:     kernelMatches,
		}
		if kernelMatches != scalarMatches {
			// The kernels are pinned bit-identical to geom.Within by the geom
			// tests; a disagreement here means the probe itself is broken.
			panic(fmt.Sprintf("kernel probe %s: kernel found %d matches, scalar %d",
				res.Name, kernelMatches, scalarMatches))
		}
		if kernelP50 > 0 {
			res.Speedup = scalarP50 / kernelP50
		}
		out = append(out, res)
	}
	return out
}

// writeBenchJSON runs the probe suite and writes the document to path. A
// non-zero timeout bounds each probe's execution through the engine's
// cancellation machinery, so a runaway probe aborts mid-query rather than
// hanging the suite. batch <= 0 keeps the engine default. The written
// document is also returned for the -gate comparison.
func writeBenchJSON(path string, n int, seed int64, timeout time.Duration, batch int) (*benchDoc, error) {
	db := engine.NewDB()
	cs := checkin.Generate(checkin.Config{N: n, Seed: seed})
	if err := checkin.Load(db, "checkins", cs); err != nil {
		return nil, err
	}
	db.SetBatchSize(batch)
	batch = db.BatchSize()

	const eps = 0.25
	type probe struct {
		name  string
		query string
		eps   float64
		alg   core.Algorithm
	}
	probes := []probe{
		{"sgb_all_join_any_l2_allpairs",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL L2 WITHIN %g ON-OVERLAP JOIN-ANY", eps),
			eps, core.AllPairs},
		{"sgb_all_join_any_l2_index",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL L2 WITHIN %g ON-OVERLAP JOIN-ANY", eps),
			eps, core.IndexBounds},
		{"sgb_all_eliminate_linf_index",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN %g ON-OVERLAP ELIMINATE", eps),
			eps, core.IndexBounds},
		{"sgb_all_form_new_group_linf_bounds",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN %g ON-OVERLAP FORM-NEW-GROUP", eps),
			eps, core.BoundsChecking},
		{"sgb_any_l2_index",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN %g", eps),
			eps, core.IndexBounds},
		{"hash_group_by_baseline",
			"SELECT user_id, count(*) FROM checkins GROUP BY user_id",
			0, core.IndexBounds},
		{"scan_filter_hash_agg",
			"SELECT user_id, count(*), avg(lat) FROM checkins WHERE lon > -96 GROUP BY user_id",
			0, core.IndexBounds},
	}

	// timeQuery runs q probeReps times under the current session settings and
	// returns the ascending-sorted wall-time samples with the fastest run's
	// result.
	timeQuery := func(q string, timeout time.Duration) ([]time.Duration, *engine.Result, error) {
		// Settle the heap first so a variant's samples are not taxed with
		// collecting garbage produced by the previous variant's runs — the
		// suite has enough probes that carry-over GC debt visibly skewed
		// later ones.
		runtime.GC()
		samples := make([]time.Duration, 0, probeReps)
		best := time.Duration(0)
		var bestRes *engine.Result
		for i := 0; i < probeReps; i++ {
			ctx, cancel := context.Background(), func() {}
			if timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, timeout)
			}
			start := time.Now()
			res, err := db.ExecContext(ctx, q)
			wall := time.Since(start)
			cancel()
			if err != nil {
				return nil, nil, err
			}
			samples = append(samples, wall)
			if bestRes == nil || wall < best {
				best, bestRes = wall, res
			}
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples, bestRes, nil
	}

	doc := benchDoc{
		SchemaVersion: 3, Dataset: "checkin", N: n, Seed: seed,
		Batch: batch, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, p := range probes {
		db.SetSGBAlgorithm(p.alg)
		samples, res, err := timeQuery(p.query, timeout)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}

		run := probeResult{
			Name:      p.name,
			Query:     p.query,
			Algorithm: p.alg.String(),
			N:         n,
			Eps:       p.eps,
			WallMS:    float64(samples[0].Nanoseconds()) / 1e6,
			P50MS:     float64(percentile(samples, 50).Nanoseconds()) / 1e6,
			P95MS:     float64(percentile(samples, 95).Nanoseconds()) / 1e6,
			P99MS:     float64(percentile(samples, 99).Nanoseconds()) / 1e6,
			Batch:     batch,
			Rows:      len(res.Rows),
		}
		if s := db.LastSGBStats(); s != nil {
			run.DistanceComps = s.DistanceComps
			run.RectTests = s.RectTests
			run.HullTests = s.HullTests
			run.WindowQueries = s.WindowQueries
			run.IndexUpdates = s.IndexUpdates
			run.GroupsMerged = s.GroupsMerged
			run.Rounds = s.Rounds
		}
		doc.Runs = append(doc.Runs, run)
	}
	doc.KernelProbes = runKernelProbes(n, seed)
	planner, err := runPlannerProbes(db, n, seed, timeout)
	if err != nil {
		return nil, err
	}
	doc.PlannerProbes = planner
	streams, err := runStreamProbes(n, seed, timeout)
	if err != nil {
		return nil, err
	}
	doc.StreamProbes = streams
	doc.Metrics = db.Metrics().Snapshot()

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(doc)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return &doc, nil
}

// chosenAlgRe extracts the SGB algorithm label from an EXPLAIN plan line.
var chosenAlgRe = regexp.MustCompile(`\[(All-Pairs|Bounds-Checking|on-the-fly Index)\]`)

// estActualRe extracts the planner estimate and the measured row count from
// an EXPLAIN ANALYZE root line.
var estActualRe = regexp.MustCompile(`est_rows=(\d+).*actual rows=(\d+)`)

// plannerReps is the per-variant rep count for the planner probes: higher
// than probeReps because the small-table probes finish in ~0.1ms, where a
// single scheduler hiccup shifts the p50 of a small sample enough to trip the
// gate.
const plannerReps = 15

// plannerVariant is one timed configuration (a manual algorithm override or
// auto) of a planner probe.
type plannerVariant struct {
	name string
	set  func()
}

// timeVariantsP50 times every variant of one query with interleaved reps:
// round-robin over the variants, one execution each per round, p50 per
// variant. Interleaving matters because the variants are compared against
// each other — timing each in its own sequential block lets load drift
// during the run bias whole blocks, which showed up as an auto run measuring
// far from the manual run of the very algorithm it had chosen. The first
// round is a discarded warmup.
func timeVariantsP50(db *engine.DB, q string, variants []plannerVariant, timeout time.Duration) (map[string]time.Duration, map[string]*engine.Result, error) {
	samples := make(map[string][]time.Duration, len(variants))
	results := make(map[string]*engine.Result, len(variants))
	fastest := make(map[string]time.Duration, len(variants))
	for rep := 0; rep <= plannerReps; rep++ {
		runtime.GC()
		for i := range variants {
			// Rotate the starting variant: the first execution after the GC
			// pays a cache-cold penalty, and it must not always hit the same
			// variant.
			v := variants[(i+rep)%len(variants)]
			v.set()
			ctx, cancel := context.Background(), func() {}
			if timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, timeout)
			}
			start := time.Now()
			res, err := db.ExecContext(ctx, q)
			wall := time.Since(start)
			cancel()
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", v.name, err)
			}
			if rep == 0 {
				continue // warmup round
			}
			samples[v.name] = append(samples[v.name], wall)
			if _, ok := results[v.name]; !ok || wall < fastest[v.name] {
				fastest[v.name], results[v.name] = wall, res
			}
		}
	}
	p50s := make(map[string]time.Duration, len(variants))
	for name, s := range samples {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		p50s[name] = percentile(s, 50)
	}
	return p50s, results, nil
}

// runPlannerProbes times the cost-based SGB algorithm selection against every
// manual override on shapes where the best choice differs: a small table
// (below the index algorithms' breakeven, where All-Pairs wins and the old
// fixed index default loses) and the full check-in table (where the on-the-fly
// index wins). Each probe also records the algorithm the planner actually
// chose and the est-vs-actual row error of the aggregation's cardinality
// estimate, so the cost model itself is regression-tracked, not just the wall
// times.
func runPlannerProbes(db *engine.DB, n int, seed int64, timeout time.Duration) ([]plannerProbeResult, error) {
	const smallN = 200
	small := checkin.Generate(checkin.Config{N: smallN, Seed: seed + 1})
	if err := checkin.Load(db, "checkins_small", small); err != nil {
		return nil, err
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		return nil, err
	}

	type probe struct {
		name  string
		query string
		size  int
		eps   float64
		all   bool // DISTANCE-TO-ALL: Bounds-Checking is a candidate too
	}
	probes := []probe{
		{"planner_small_any_l2",
			"SELECT count(*) FROM checkins_small GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25",
			smallN, 0.25, false},
		{"planner_small_all_linf",
			"SELECT count(*) FROM checkins_small GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.25 ON-OVERLAP JOIN-ANY",
			smallN, 0.25, true},
		{"planner_large_any_l2",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN %g", 0.25),
			n, 0.25, false},
		{"planner_large_all_linf",
			fmt.Sprintf("SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN %g ON-OVERLAP ELIMINATE", 0.25),
			n, 0.25, true},
	}

	var out []plannerProbeResult
	for _, p := range probes {
		manual := map[string]core.Algorithm{
			"allpairs": core.AllPairs,
			"index":    core.IndexBounds,
		}
		if p.all {
			manual["bounds"] = core.BoundsChecking
		}
		res := plannerProbeResult{
			Name: p.name, Query: p.query, N: p.size, Eps: p.eps,
			ManualP50MS: make(map[string]float64, len(manual)),
		}
		variants := []plannerVariant{{"auto", db.SetSGBAlgorithmAuto}}
		for name, alg := range manual {
			a := alg
			variants = append(variants, plannerVariant{name, func() { db.SetSGBAlgorithm(a) }})
		}
		p50s, runs, err := timeVariantsP50(db, p.query, variants, timeout)
		if err != nil {
			return nil, fmt.Errorf("planner probe %s: %w", p.name, err)
		}
		db.SetSGBAlgorithmAuto()
		wantRows := -1
		for name := range manual {
			ms := float64(p50s[name].Nanoseconds()) / 1e6
			res.ManualP50MS[name] = ms
			if res.BestManualAlg == "" || ms < res.BestManualP50MS {
				res.BestManualAlg, res.BestManualP50MS = name, ms
			}
			if name == "index" {
				// The fixed pre-planner default, the speedup baseline.
				res.DefaultP50MS = ms
			}
			wantRows = len(runs[name].Rows)
		}
		if got := len(runs["auto"].Rows); got != wantRows {
			return nil, fmt.Errorf("planner probe %s: auto returned %d rows, manual %d",
				p.name, got, wantRows)
		}
		res.AutoP50MS = float64(p50s["auto"].Nanoseconds()) / 1e6
		res.ActualRows = wantRows
		if res.BestManualP50MS > 0 {
			res.AutoVsBest = res.AutoP50MS / res.BestManualP50MS
		}
		if res.AutoP50MS > 0 {
			res.SpeedupVsDefault = res.DefaultP50MS / res.AutoP50MS
		}

		// What did the planner pick, and how good was its cardinality estimate?
		plan, err := db.Exec("EXPLAIN ANALYZE " + p.query)
		if err != nil {
			return nil, fmt.Errorf("planner probe %s (explain): %w", p.name, err)
		}
		for _, row := range plan.Rows {
			line := row[0].String()
			if m := chosenAlgRe.FindStringSubmatch(line); m != nil && res.ChosenAlg == "" {
				res.ChosenAlg = m[1]
			}
			if m := estActualRe.FindStringSubmatch(line); m != nil && res.EstRows == 0 {
				est, _ := strconv.ParseFloat(m[1], 64)
				actual, _ := strconv.Atoi(m[2])
				res.EstRows = est
				denom := float64(actual)
				if denom < 1 {
					denom = 1
				}
				res.EstRowsError = math.Abs(est-float64(actual)) / denom
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// gatePlanner fails when cost-based selection left too much on the table: any
// planner probe whose auto p50 exceeds maxRatio times its best manual p50.
func gatePlanner(doc *benchDoc, maxRatio float64) error {
	var failures []string
	for _, pp := range doc.PlannerProbes {
		if pp.BestManualP50MS <= 0 {
			continue
		}
		if pp.AutoP50MS > pp.BestManualP50MS*maxRatio {
			failures = append(failures, fmt.Sprintf(
				"%s: auto %.3fms vs best manual (%s) %.3fms — ratio %.2f exceeds %.2f",
				pp.Name, pp.AutoP50MS, pp.BestManualAlg, pp.BestManualP50MS,
				pp.AutoVsBest, maxRatio))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("planner regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "gate: %d planner probes within %.2fx of their best manual algorithm\n",
		len(doc.PlannerProbes), maxRatio)
	return nil
}

// gateAgainst compares a fresh snapshot's kernel probes against a committed
// baseline document and errors when any probe's kernel-vs-scalar speedup
// regressed by more than 20%%. Comparing the speedup ratio rather than raw
// milliseconds keeps the gate meaningful across machines: both sides of the
// ratio are measured on the same host in the same process, so a ratio drop
// means the kernel itself lost ground to the scalar loop — the p50 regression
// the gate exists to catch.
func gateAgainst(doc *benchDoc, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base benchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	baseline := make(map[string]kernelProbeResult, len(base.KernelProbes))
	for _, kp := range base.KernelProbes {
		baseline[kp.Name] = kp
	}
	var failures []string
	for _, kp := range doc.KernelProbes {
		old, ok := baseline[kp.Name]
		if !ok || old.Speedup <= 0 {
			continue
		}
		if kp.Speedup < old.Speedup/1.2 {
			failures = append(failures, fmt.Sprintf(
				"%s: kernel speedup %.2fx vs baseline %.2fx (>20%% regression)",
				kp.Name, kp.Speedup, old.Speedup))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("kernel probe regression gate failed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "gate: %d kernel probes within 20%% of %s\n",
		len(doc.KernelProbes), baselinePath)
	return nil
}
