// Tpch_analytics runs the paper's Table 2 evaluation workload end-to-end:
// the standard Group-By business questions (GB1–GB3, shaped after TPC-H
// Q18/Q9/Q15) and their similarity-grouping counterparts (SGB1–SGB6) over
// generated TPC-H-style data, comparing answer shapes and runtimes.
package main

import (
	"fmt"
	"log"
	"time"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/tpch"
)

func main() {
	const (
		sf  = 1.0
		eps = 0.2
	)
	db := engine.NewDB()
	if err := tpch.Generate(tpch.Config{SF: sf, CustomersPerSF: 300, Seed: 1}).Load(db); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("TPC-H-style workload, SF=%g, eps=%g\n\n", sf, eps)
	for _, q := range tpch.AllQueries(eps, core.JoinAny) {
		start := time.Now()
		res, err := db.Query(q.SQL)
		if err != nil {
			log.Fatalf("%s: %v", q.ID, err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-5s %-62s %5d rows  %8v\n", q.ID, q.Description, len(res.Rows), elapsed.Round(time.Microsecond))
		if st := db.LastSGBStats(); st != nil {
			fmt.Printf("      SGB operator: %d tuples grouped, %d distance computations, %d window queries\n",
				st.Points, st.DistanceComps, st.WindowQueries)
		}
	}

	// The business answer of SGB1: how do similarity groups summarize
	// customer buying power? Show the three overlap semantics side by side.
	fmt.Println("\nSGB1 group counts under the three ON-OVERLAP semantics:")
	for _, ov := range []core.Overlap{core.JoinAny, core.Eliminate, core.FormNewGroup} {
		res, err := db.Query(tpch.SGB1(eps, ov).SQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-15v -> %d groups\n", ov, len(res.Rows))
	}
}
