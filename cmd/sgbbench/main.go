// Command sgbbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints a text table whose shape —
// algorithm orderings, speedup factors, growth with ε and data size — mirrors
// the corresponding paper artifact.
//
// Usage:
//
//	sgbbench -exp all                 # everything, laptop-scale defaults
//	sgbbench -exp fig9 -fig9n 100000  # a bigger ε sweep
//	sgbbench -exp table2 -sf 4
//
// The -full flag raises every size knob towards the paper's configuration
// (minutes of runtime rather than seconds).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sgb/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, table2, fig9, fig10, fig11, fig12, ablation")
		fig9n   = flag.Int("fig9n", 0, "point count for the Figure 9 eps sweep (0 = default)")
		sfs     = flag.String("sfs", "", "comma-separated scale factors for Figures 10/12 (empty = default)")
		custSF  = flag.Int("custsf", 0, "customer rows per scale factor unit (0 = default 300)")
		sizes   = flag.String("fig11sizes", "", "comma-separated dataset sizes for Figure 11 (empty = default)")
		table1N = flag.String("table1ns", "", "comma-separated size ladder for Table 1 (empty = default)")
		sf      = flag.Float64("sf", 2, "scale factor for the Table 2 run")
		eps     = flag.Float64("eps", 0.2, "similarity threshold for the Table 2 run")
		seed    = flag.Int64("seed", 1, "generator seed")
		full    = flag.Bool("full", false, "approach the paper's data sizes (much slower)")
		csvDir  = flag.String("csvdir", "", "also write each report as CSV into this directory")
	)
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sgbbench:", err)
			os.Exit(1)
		}
		csvOutDir = *csvDir
	}

	sc := bench.DefaultScale()
	sc.Seed = *seed
	if *full {
		sc.Fig9N = 200000
		sc.Fig10SFs = []float64{1, 2, 4, 8, 16, 32, 60}
		sc.CustomersPerSF = 1500
		sc.Fig11Sizes = []int{50000, 100000, 200000, 400000}
		sc.Table1Ns = []int{2000, 4000, 8000, 16000, 32000}
	}
	if *fig9n > 0 {
		sc.Fig9N = *fig9n
	}
	if *custSF > 0 {
		sc.CustomersPerSF = *custSF
	}
	if *sfs != "" {
		sc.Fig10SFs = parseFloats(*sfs)
	}
	if *sizes != "" {
		sc.Fig11Sizes = parseInts(*sizes)
	}
	if *table1N != "" {
		sc.Table1Ns = parseInts(*table1N)
	}

	run := func(name string) error {
		switch name {
		case "table1":
			rep, err := bench.Table1(sc)
			if err != nil {
				return err
			}
			return printAll([]*bench.Report{rep}, nil)
		case "table2":
			rep, err := bench.Table2(sc, *sf, *eps)
			if err != nil {
				return err
			}
			return printAll([]*bench.Report{rep}, nil)
		case "fig9":
			return printAll(bench.Fig9(sc))
		case "fig10":
			return printAll(bench.Fig10(sc))
		case "fig11":
			return printAll(bench.Fig11(sc))
		case "fig12":
			return printAll(bench.Fig12(sc))
		case "ablation":
			return printAll(bench.Ablations(sc))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "fig9", "fig10", "fig11", "fig12", "ablation"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fmt.Fprintf(os.Stderr, "sgbbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

var csvOutDir string

func printAll(reports []*bench.Report, err error) error {
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Println(r)
		if csvOutDir != "" {
			if err := writeCSV(r); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(r *bench.Report) error {
	path := filepath.Join(csvOutDir, r.FileName())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.CSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgbbench: bad number %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgbbench: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
