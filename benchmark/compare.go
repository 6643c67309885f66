package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, so compare judges
// by the bounds the driver uses. The benchmark runs from the root (run.sh) or
// from its own directory (go run .).
func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (exclusive), which the
// driver uses; fewer than two values have no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// position k*(n+1)/4 in 1-based ranks, interpolated, clamped
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// side collects one results file's values per workload and metric.
func side(path string) (map[string]map[string][]float64, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		for _, w := range run.Workloads {
			if out[w.Workload] == nil {
				out[w.Workload] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				out[w.Workload][name] = append(out[w.Workload][name], m.Value)
			}
		}
	}
	return out, len(f.Runs), nil
}

// compareMain implements `benchmark compare A.json B.json`: per workload and
// end-to-end metric, each side's median and quartiles, B's median over A's,
// and a verdict against the metric's bound. A is the base of every ratio.
// It exits 1 when any metric regressed, 0 otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json   (A is the base)")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, na, err := side(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, nb, err := side(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("A = %s (%d runs, base), B = %s (%d runs)\n", args[0], na, args[1], nb)
	if compareSides(os.Stdout, spec, a, b) {
		return 1
	}
	return 0
}

// compareSides prints one block per workload and reports whether any metric
// regressed.
func compareSides(w *os.File, spec *benchmarkSpec, a, b map[string]map[string][]float64) (regressed bool) {
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		fmt.Fprintf(w, "  %-14s %-6s %34s %34s %9s %6s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "  %-14s %-6s %34s %34s %9s %6s  %s\n", m.Name, m.Unit, "-", "-", "-", "-", "missing")
				continue
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			v := verdict(m, am, bm, math.Max((aq3-aq1)/am, (bq3-bq1)/bm))
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-14s %-6s %34s %34s %9.4f %5.0f%%  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", am, aq1, aq3), fmt.Sprintf("%.5g [%.5g, %.5g]", bm, bq1, bq3), bm/am, 100*m.Bound, v)
		}
	}
	return regressed
}

// verdict judges B's median against A's: "unresolved" when either side's
// quartile spread is wider than the bound (the runs cannot tell a change of
// that size from noise), "regressed" when B is worse than A by more than the
// bound, "ok" otherwise.
func verdict(m metricSpec, am, bm, spread float64) string {
	worse := bm/am - 1
	if strings.EqualFold(m.Better, "higher") {
		worse = 1 - bm/am
	}
	switch {
	case spread > m.Bound:
		return fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
	case worse > m.Bound:
		return "regressed"
	default:
		return "ok"
	}
}
