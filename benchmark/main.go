// Command benchmark is the repository's benchmark of record: four workloads
// from the SGB operator to the wire, end-to-end metrics measured with tracing
// off, per-layer metrics from a separate traced pass, and output checks inside
// every run. See README.md in this directory.
//
//	bash benchmark/run.sh -seed 1 -out r.json          # everything, once
//	bash benchmark/run.sh --workload any_hotspot --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length the op counts
// below are tuned for on the commit that introduced the benchmark.
const defaultSeconds = 20

// config is what the command line decides.
type config struct {
	seed    int64
	seconds int
	smoke   bool
	sgbd    string // path of the sgbd binary
	tmp     string // where data directories are made
}

// sizes are the input sizes and op counts of one run. Op counts are fixed by
// --seconds, not by a clock, so two commits given the same arguments do the
// same work; the per-second rates were tuned once so that a workload's timed
// phase lasts about 0.8 × seconds on the commit that added the benchmark.
type sizes struct {
	anyN, anyOps, anyWarm    int
	tpchSF                   float64
	tpchOps, tpchWarm        int
	ingestCycles, ingestWarm int
	readN, readOps, readWarm int
}

func (c config) sizes() sizes {
	s := sizes{
		anyN: 8000, anyOps: 10 * c.seconds, anyWarm: 5,
		tpchSF: 0.3, tpchOps: 6 * c.seconds, tpchWarm: 3,
		ingestCycles: 250 * c.seconds, ingestWarm: 50,
		readN: 5000, readOps: 76 * c.seconds, readWarm: 5,
	}
	if c.smoke {
		// Inputs and op counts ÷ 50: every code path, seconds in total.
		s.anyN, s.anyOps, s.anyWarm = s.anyN/50, 4, 1
		s.tpchSF, s.tpchOps, s.tpchWarm = s.tpchSF/50*5, 3, 1 // SF 0.03: 45 customers
		s.ingestCycles, s.ingestWarm = s.ingestCycles/50, 2
		s.readN, s.readOps, s.readWarm = s.readN/50, 12, 1
	}
	return s
}

// setupReps is how many times a run sets its workload up (see repeatSetup).
func (c config) setupReps() int {
	if c.smoke {
		return 1
	}
	return 5
}

// guard bounds a timed phase on a build far slower than the tuned one.
func (c config) guard() time.Duration { return 3 * time.Duration(c.seconds) * time.Second }

// endToEnd names BENCHMARK.json's end_to_end metrics: what driver mode prints
// for --trace 0. A workload may measure more (serve_ingest's write and delta
// latencies, every workload's peak RSS); those stay in the -out file.
var endToEnd = []string{"setup_s", "query_p50_ms", "query_p90_ms", "ops_s"}

// workloads in the order a full run executes them.
var workloads = []struct {
	name string
	run  func(config) (*result, error)
}{
	{"any_hotspot", runAnyHotspot},
	{"tpch_table2", runTPCHTable2},
	{"serve_ingest", runServeIngest},
	{"serve_read", runServeRead},
}

func main() {
	var (
		cfg      config
		workload = flag.String("workload", "", "run one workload and print one JSON line (driver mode); empty runs all four plus the traced pass")
		trace    = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
		out      = flag.String("out", "", "write the results (and the traced pass's spans) to this JSON file")
		runs     = flag.Int("runs", 1, "full mode: repeat the whole benchmark this many times into one results file")
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators; nothing else depends on it")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "sizes the fixed op counts so a timed phase lasts about this long")
	flag.BoolVar(&cfg.smoke, "smoke", false, "inputs and op counts ÷ 50: a compile-and-run check, not a measurement")
	flag.StringVar(&cfg.sgbd, "sgbd", "", "sgbd binary to drive (built into the temp directory when empty)")
	flag.StringVar(&cfg.tmp, "tmp", "", "directory for data dirs and built binaries (default .bench_build/tmp)")
	flag.Parse()
	// run.sh puts -sgbd and -tmp first, so the subcommand follows the flags.
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if cfg.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}

	// Kill any sgbd still alive on every way out: normal return, fatal error,
	// or a signal from whoever runs the benchmark.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	if err := prepare(&cfg); err != nil {
		fatal(err)
	}
	var err error
	if *workload != "" {
		err = driverMode(cfg, *workload, *trace == 1, *out)
	} else {
		err = fullMode(cfg, *runs, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	killChildren()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// prepare resolves the temp directory and makes sure there is an sgbd to run.
func prepare(cfg *config) error {
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(".bench_build", "tmp")
	}
	var err error
	if cfg.tmp, err = filepath.Abs(cfg.tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return err
	}
	if cfg.sgbd != "" {
		return nil
	}
	cfg.sgbd = filepath.Join(cfg.tmp, "sgbd")
	cmd := exec.Command("go", "build", "-o", cfg.sgbd, "sgb/cmd/sgbd")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build sgb/cmd/sgbd (run from the benchmark directory, or pass -sgbd): %v\n%s", err, outp)
	}
	return nil
}

// driverMode runs one workload — or, with trace, the traced pass — and prints
// the driver's result object as the last line of standard output.
func driverMode(cfg config, name string, trace bool, out string) error {
	var run func(config) (*result, error)
	for _, w := range workloads {
		if w.name == name {
			run = w.run
		}
	}
	if run == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var (
		res *result
		err error
	)
	if trace {
		var spans []span
		res, spans, err = runTraced(cfg)
		if err == nil && out != "" {
			err = writeResults(out, cfg, []fullRun{{Traced: res, Spans: spans}})
		}
	} else {
		res, err = run(cfg)
		if err == nil && out != "" {
			err = writeResults(out, cfg, []fullRun{{Workloads: []*result{res}}})
		}
	}
	if err != nil {
		return err
	}
	printResult(os.Stderr, res)
	metrics := res.Metrics
	if !trace {
		metrics = map[string]metric{}
		for _, name := range endToEnd {
			metrics[name] = res.Metrics[name]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their output check", name, res.Failed, res.Attempted)
	}
	return nil
}

// fullRun is one execution of everything: the four workloads with tracing
// off, then the traced pass.
type fullRun struct {
	Workloads []*result `json:"workloads,omitempty"`
	Traced    *result   `json:"traced,omitempty"`
	Spans     []span    `json:"spans,omitempty"`
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Env  map[string]string `json:"env"`
	Runs []fullRun         `json:"runs"`
}

// fullMode is the one command: all workloads untraced, then the traced pass,
// every metric printed by name with its unit, non-zero exit on a failed check.
func fullMode(cfg config, runs int, out string) error {
	var all []fullRun
	failed := 0
	for i := 0; i < runs; i++ {
		var fr fullRun
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "== run %d/%d: %s\n", i+1, runs, w.name)
			res, err := w.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(os.Stdout, res)
			failed += res.Failed
			fr.Workloads = append(fr.Workloads, res)
		}
		fmt.Fprintf(os.Stderr, "== run %d/%d: traced pass\n", i+1, runs)
		res, spans, err := runTraced(cfg)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		printResult(os.Stdout, res)
		failed += res.Failed
		fr.Traced, fr.Spans = res, spans
		all = append(all, fr)
	}
	if out != "" {
		if err := writeResults(out, cfg, all); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their output check", failed)
	}
	return nil
}

// environment records what a results file was measured on.
func environment(cfg config) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       fmt.Sprint(cfg.seed),
		"seconds":    fmt.Sprint(cfg.seconds),
		"smoke":      fmt.Sprint(cfg.smoke),
		"commit":     "unknown",
	}
	if outp, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(outp))
	}
	return env
}

func writeResults(path string, cfg config, runs []fullRun) error {
	data, err := json.MarshalIndent(resultsFile{Env: environment(cfg), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult lists every metric of res by name with its unit.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, failed_share %g\n", res.Workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}
