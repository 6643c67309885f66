package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sgb"
	"sgb/internal/engine"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload (or of the traced pass) reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of timed ops behind each latency percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// Failures explains the first few failed checks.
	Failures []string `json:"failures,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]metric{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts n failed ops and keeps the reason of the first few.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check records a whole-run output check as one attempted op.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of xs; it sorts a
// copy. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median interpolates between the two middle values of an even count, so the
// median of four set-up times is not simply the larger middle one.
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latency sets <prefix>_p50_ms and one tail percentile from the samples.
func (r *result) latency(prefix string, ds []time.Duration, tail float64) {
	xs := durationsMS(ds)
	r.set(prefix+"_p50_ms", percentile(xs, 0.5), "ms")
	r.set(fmt.Sprintf("%s_p%d_ms", prefix, int(tail*100)), percentile(xs, tail), "ms")
	r.Samples[prefix] = len(xs)
}

// rowsChecksum is an order-free digest of a result: the row count and the
// sum of per-row FNV hashes. Floats enter with nine significant digits so a
// change in summation order that moves the last bits is not a wrong answer.
func rowsChecksum(res *sgb.QueryResult) (rows int, sum uint64) {
	var b []byte
	for _, row := range res.Rows {
		b = b[:0]
		for _, v := range row {
			if v.T == engine.TypeFloat {
				b = strconv.AppendFloat(b, v.F, 'g', 9, 64)
			} else {
				b = append(b, v.String()...)
			}
			b = append(b, 0)
		}
		h := fnv.New64a()
		h.Write(b)
		sum += h.Sum64()
	}
	return len(res.Rows), sum
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident set,
// so an embedded workload's peak_rss_mb covers its timed phase and not the
// garbage of the repeated set-ups before it. Writing "5" to clear_refs is the
// documented way; where the kernel refuses, the metric covers the whole run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
