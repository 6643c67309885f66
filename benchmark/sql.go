package main

import "fmt"

// The statements the workloads send. They live here, not in internal/bench,
// so a refactor of that package cannot silently change what is measured.

const anyHotspotSQL = "SELECT count(*), avg(lat), avg(lon) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.25"

const anyHotspotEps = 0.25

const serveReadSQL = "SELECT count(*), min(lat), max(lat), min(lon), max(lon) FROM checkins GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY"

const serveReadEps = 0.05

// table2Eps is the similarity threshold of the six SGB statements.
const table2Eps = 0.2

// The three inner sub-selects of Table 2. Each feeds one SGB-All and one
// SGB-Any statement; the traced pass also runs them alone to obtain the
// points the SGB operator sees. The last two output columns are the grouping
// attributes.
const (
	innerCustomers = `SELECT c_custkey AS ck, c_acctbal / 100.0 AS ab, sum(o_totalprice) / 30000.0 AS tp
      FROM customer, orders
      WHERE c_custkey = o_custkey AND c_acctbal > 100 AND o_totalprice > 30000
      GROUP BY c_custkey, c_acctbal`
	innerParts = `SELECT ps_partkey AS partkey,
             sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) / 500000.0 AS tprof,
             sum(l_receiptdate - l_shipdate) / 500.0 AS stime
      FROM lineitem, partsupp
      WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey
      GROUP BY ps_partkey`
	innerSuppliers = `SELECT l_suppkey AS suppkey,
             sum(l_extendedprice * (1 - l_discount)) / 10000000.0 AS trevenue,
             max(s_acctbal) / 10000.0 AS acctbal
      FROM lineitem, supplier
      WHERE s_suppkey = l_suppkey AND l_shipdate > 9131 AND l_shipdate < 9500
      GROUP BY l_suppkey`
)

// table2Stmt is one statement of the paper's Table 2 workload.
type table2Stmt struct {
	ID  string
	SQL string
	// Inner is the sub-select whose rows the SGB operator groups ("" for the
	// three plain Group-By baselines); All tells DISTANCE-TO-ALL from -ANY.
	Inner string
	All   bool
	// Baseline is the ID of the plain Group-By the paper compares it with.
	Baseline string
}

// table2 returns GB1, SGB1, SGB2, GB2, SGB3, SGB4, GB3, SGB5, SGB6 in the
// paper's order, at ε = 0.2 with ON-OVERLAP JOIN-ANY.
func table2() []table2Stmt {
	all := fmt.Sprintf("DISTANCE-TO-ALL L2 WITHIN %v ON-OVERLAP JOIN-ANY", table2Eps)
	anyC := fmt.Sprintf("DISTANCE-TO-ANY L2 WITHIN %v", table2Eps)
	sgb := func(id, sel, inner, alias, attrs, clause, base string, isAll bool) table2Stmt {
		return table2Stmt{
			ID:       id,
			SQL:      fmt.Sprintf("SELECT %s\nFROM (%s) AS %s\nGROUP BY %s %s", sel, inner, alias, attrs, clause),
			Inner:    inner,
			All:      isAll,
			Baseline: base,
		}
	}
	const (
		selCust = "max(ab), min(tp), max(tp), avg(ab), count(*)"
		selPart = "count(*), sum(tprof), sum(stime)"
		selSupp = "count(*), sum(trevenue), sum(acctbal)"
	)
	return []table2Stmt{
		{ID: "GB1", SQL: `SELECT c_custkey, sum(o_totalprice)
FROM customer, orders
WHERE c_custkey = o_custkey
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 150)
GROUP BY c_custkey`},
		sgb("SGB1", selCust, innerCustomers, "r", "ab, tp", all, "GB1", true),
		sgb("SGB2", selCust, innerCustomers, "r", "ab, tp", anyC, "GB1", false),
		{ID: "GB2", SQL: `SELECT n_name, sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
FROM lineitem, partsupp, supplier, nation
WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey
  AND s_suppkey = l_suppkey AND s_nationkey = n_nationkey
GROUP BY n_name`},
		sgb("SGB3", selPart, innerParts, "profit", "tprof, stime", all, "GB2", true),
		sgb("SGB4", selPart, innerParts, "profit", "tprof, stime", anyC, "GB2", false),
		{ID: "GB3", SQL: `SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount))
FROM lineitem
WHERE l_shipdate > 9131 AND l_shipdate < 9500
GROUP BY l_suppkey`},
		sgb("SGB5", selSupp, innerSuppliers, "r", "trevenue, acctbal", all, "GB3", true),
		sgb("SGB6", selSupp, innerSuppliers, "r", "trevenue, acctbal", anyC, "GB3", false),
	}
}

// execAll runs stmts through exec and stops at the first error.
func execAll(exec func(string) error, stmts []string) error {
	for _, q := range stmts {
		if err := exec(q); err != nil {
			return fmt.Errorf("%.60q: %w", q, err)
		}
	}
	return nil
}
