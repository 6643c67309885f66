package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tpch_golden.json from the current engine")

// smokeConfig builds sgbd into a temp directory; the test skips when the
// server cannot be built here (no toolchain, or run outside the module).
func smokeConfig(t *testing.T, seed int64) config {
	t.Helper()
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "sgbd")
	if out, err := exec.Command("go", "build", "-o", bin, "sgb/cmd/sgbd").CombinedOutput(); err != nil {
		t.Skipf("go build sgb/cmd/sgbd unavailable: %v\n%s", err, out)
	}
	return config{seed: seed, seconds: defaultSeconds, smoke: true, sgbd: bin, tmp: tmp}
}

func loadSpecForTest(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// exactCounts are the layer metrics that count work and must repeat exactly
// for one seed, whatever the core count.
var exactCounts = []string{
	"core.any_distance_comps", "core.any_window_queries", "core.any_groups", "core.all_rect_tests",
	"wal.fsyncs_per_write", "engine.any_hotspot.est_rows_error", "engine.tpch_table2.est_rows_error",
	"stream.deltas_per_insert", "core.links_per_insert", "wire.bytes_per_row",
}

// TestSmoke runs all four workloads and the traced pass at 1/50 size, at
// GOMAXPROCS 1 and 2, with every output check on. It keeps the benchmark
// compiling and running against API drift in the packages it calls.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t, 1)
	spec := loadSpecForTest(t)
	t.Cleanup(killChildren)

	perLayer := map[string]string{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	traced := map[int]*result{}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			t.Setenv("GOMAXPROCS", fmt.Sprint(procs)) // inherited by sgbd
			for _, w := range workloads {
				res, err := w.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Failures)
				}
				for _, m := range spec.EndToEnd {
					got, ok := res.Metrics[m.Name]
					if !ok || !(got.Value > 0) || got.Unit != m.Unit {
						t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, m.Name, got, m.Unit)
					}
				}
			}
			res, spans, err := runTraced(cfg)
			if err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced pass: attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			if len(spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
			for name, unit := range perLayer {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("per-layer metric %s: got %+v, BENCHMARK.json says unit %s", name, got, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := perLayer[name]; !ok {
					t.Errorf("traced pass reports %s, which BENCHMARK.json does not list", name)
				}
			}
			traced[procs] = res
		})
	}
	if traced[1] == nil || traced[2] == nil {
		return
	}

	// Same seed: the exact counts agree between the two passes. Another
	// seed: the inputs, and with them the counts, differ.
	for _, name := range exactCounts {
		if a, b := traced[1].Metrics[name].Value, traced[2].Metrics[name].Value; a != b {
			t.Errorf("%s: %v at GOMAXPROCS 1, %v at 2; a count must not depend on the run", name, a, b)
		}
	}
	cfg2 := cfg
	cfg2.seed = 2
	other, _, err := runTraced(cfg2)
	if err != nil {
		t.Fatalf("traced pass, seed 2: %v", err)
	}
	if !other.Correct {
		t.Errorf("traced pass, seed 2: %v", other.Failures)
	}
	if a, b := traced[1].Metrics["core.any_distance_comps"].Value, other.Metrics["core.any_distance_comps"].Value; a == b {
		t.Errorf("core.any_distance_comps is %v for seed 1 and seed 2: the seed does not reach the generator", a)
	}
}

// statementDigest hashes every statement the generators emit for a seed.
func statementDigest(cfg config) string {
	sz := cfg.sizes()
	h := sha256.New()
	write := func(stmts []string) {
		for _, q := range stmts {
			h.Write([]byte(q))
			h.Write([]byte{0})
		}
	}
	write(checkinLoadSQL(genCheckins(sz.anyN, cfg.seed)))
	write(checkinLoadSQL(genCheckins(sz.readN, cfg.seed)))
	st := genIngest(sz.ingestCycles, sz.ingestWarm, cfg.seed)
	write(st.warm)
	for _, c := range st.cycles {
		write(c[:])
	}
	write([]string{st.sentinel})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSeedDeterminesStatements: one seed, one byte-identical statement
// stream; another seed, another stream.
func TestSeedDeterminesStatements(t *testing.T) {
	cfg := config{seed: 1, seconds: 1}
	a, b := statementDigest(cfg), statementDigest(cfg)
	if a != b {
		t.Errorf("seed 1 generated two different statement streams: %s, %s", a, b)
	}
	cfg.seed = 2
	if c := statementDigest(cfg); c == a {
		t.Errorf("seeds 1 and 2 generated the same statement stream")
	}
}

// TestBenchmarkJSON pins what the Go code assumes about BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpecForTest(t)
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	want := append([]string(nil), endToEnd...)
	sort.Strings(e2e)
	sort.Strings(want)
	if strings.Join(e2e, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark prints %v", e2e, want)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the op counts are tuned for %d", spec.RunSeconds, defaultSeconds)
	}
}

// TestGolden checks — or with -update rewrites — the recorded Table 2 digests
// for seed 1 at the benchmark's scale and at the smoke scale.
func TestGolden(t *testing.T) {
	all := map[string][]stmtDigest{}
	for _, smoke := range []bool{false, true} {
		sf := config{seconds: 1, smoke: smoke}.sizes().tpchSF
		db, err := loadTPCH(sf, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := table2Pass(db, table2())
		if err != nil {
			t.Fatal(err)
		}
		all[goldenKey(1, sf)] = got
		if *update {
			continue
		}
		want, err := loadGolden(1, sf)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			t.Fatalf("no golden for %s; run go test -run TestGolden -update", goldenKey(1, sf))
		}
		for i, s := range table2() {
			if got[i] != want[i] {
				t.Errorf("%s %s: got %+v, golden %+v", goldenKey(1, sf), s.ID, got[i], want[i])
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "tpch_golden.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m       metricSpec
		a, b, s float64
		want    string
	}{
		{lower, 100, 105, 0.02, "ok"},
		{lower, 100, 111, 0.02, "regressed"},
		{lower, 100, 50, 0.02, "ok"},
		{higher, 100, 95, 0.02, "ok"},
		{higher, 100, 89, 0.02, "regressed"},
		{lower, 100, 130, 0.12, "unresolved (spread 12.0%)"},
	} {
		if got := verdict(c.m, c.a, c.b, c.s); got != c.want {
			t.Errorf("verdict(%s, %v → %v, spread %v) = %q, want %q", c.m.Name, c.a, c.b, c.s, got, c.want)
		}
	}
}
