package tpch

import (
	"fmt"

	"sgb/internal/core"
)

// QuerySpec is one evaluation query of the paper's Table 2, adapted to this
// engine's dialect and the scaled-down generator (normalizing divisors keep
// the two grouping attributes in roughly [0,1] so the paper's ε values are
// meaningful).
type QuerySpec struct {
	ID          string
	Description string
	SQL         string
}

// The derived tables the SGB statements group, one per Group-By pipeline:
// per-customer (account balance, buying power) for SGB1/SGB2, per-part
// (profit, shipment time) for SGB3/SGB4 and per-supplier (revenue, account
// balance) for SGB5/SGB6.
const (
	customerPoints = `
SELECT max(ab), min(tp), max(tp), avg(ab), count(*)
FROM (SELECT c_custkey AS ck, c_acctbal / 100.0 AS ab, sum(o_totalprice) / 30000.0 AS tp
      FROM customer, orders
      WHERE c_custkey = o_custkey AND c_acctbal > 100 AND o_totalprice > 30000
      GROUP BY c_custkey, c_acctbal) AS r
GROUP BY ab, tp `
	partPoints = `
SELECT count(*), sum(tprof), sum(stime)
FROM (SELECT ps_partkey AS partkey,
             sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) / 500000.0 AS tprof,
             sum(l_receiptdate - l_shipdate) / 500.0 AS stime
      FROM lineitem, partsupp
      WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey
      GROUP BY ps_partkey) AS profit
GROUP BY tprof, stime `
	supplierPoints = `
SELECT count(*), sum(trevenue), sum(acctbal)
FROM (SELECT l_suppkey AS suppkey,
             sum(l_extendedprice * (1 - l_discount)) / 10000000.0 AS trevenue,
             max(s_acctbal) / 10000.0 AS acctbal
      FROM lineitem, supplier
      WHERE s_suppkey = l_suppkey AND l_shipdate > 9131 AND l_shipdate < 9500
      GROUP BY l_suppkey) AS r
GROUP BY trevenue, acctbal `
)

// GB1 is the paper's GB1 (TPC-H Q18 shape): large-volume customers through
// an IN-subquery with HAVING, then an equality Group-By.
func GB1() QuerySpec {
	return QuerySpec{
		ID:          "GB1",
		Description: "large volume customers (Q18 shape, standard Group-By)",
		SQL: `
SELECT c_custkey, sum(o_totalprice)
FROM customer, orders
WHERE c_custkey = o_custkey
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 150)
GROUP BY c_custkey`,
	}
}

// SGB1 groups customers by similar (account balance, buying power) with
// DISTANCE-TO-ALL.
func SGB1(eps float64, ov core.Overlap) QuerySpec {
	return QuerySpec{
		ID:          "SGB1",
		Description: "customers with similar buying power and account balance (SGB-All)",
		SQL:         customerPoints + fmt.Sprintf("DISTANCE-TO-ALL L2 WITHIN %g ON-OVERLAP %s", eps, ov),
	}
}

// SGB2 is SGB1 with the DISTANCE-TO-ANY semantics.
func SGB2(eps float64) QuerySpec {
	return QuerySpec{
		ID:          "SGB2",
		Description: "customers with similar buying power and account balance (SGB-Any)",
		SQL:         customerPoints + fmt.Sprintf("DISTANCE-TO-ANY L2 WITHIN %g", eps),
	}
}

// GB2 is the paper's GB2 (TPC-H Q9 shape): profit by supplier nation.
func GB2() QuerySpec {
	return QuerySpec{
		ID:          "GB2",
		Description: "profit on parts by supplier nation (Q9 shape, standard Group-By)",
		SQL: `
SELECT n_name, sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity)
FROM lineitem, partsupp, supplier, nation
WHERE ps_partkey = l_partkey AND ps_suppkey = l_suppkey
  AND s_suppkey = l_suppkey AND s_nationkey = n_nationkey
GROUP BY n_name`,
	}
}

// SGB3 groups parts by similar (profit, shipment time) with DISTANCE-TO-ALL.
func SGB3(eps float64, ov core.Overlap) QuerySpec {
	return QuerySpec{
		ID:          "SGB3",
		Description: "parts with similar profit and shipment time (SGB-All)",
		SQL:         partPoints + fmt.Sprintf("DISTANCE-ALL WITHIN %g USING ltwo ON-OVERLAP %s", eps, ov),
	}
}

// SGB4 is SGB3 with the DISTANCE-TO-ANY semantics.
func SGB4(eps float64) QuerySpec {
	return QuerySpec{
		ID:          "SGB4",
		Description: "parts with similar profit and shipment time (SGB-Any)",
		SQL:         partPoints + fmt.Sprintf("DISTANCE-ANY WITHIN %g USING ltwo", eps),
	}
}

// GB3 is the paper's GB3 (TPC-H Q15 shape): supplier revenue over a shipping
// window.
func GB3() QuerySpec {
	return QuerySpec{
		ID:          "GB3",
		Description: "top supplier revenue (Q15 shape, standard Group-By)",
		SQL: `
SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount))
FROM lineitem
WHERE l_shipdate > 9131 AND l_shipdate < 9500
GROUP BY l_suppkey`,
	}
}

// SGB5 groups suppliers by similar (revenue, account balance) with
// DISTANCE-TO-ALL.
func SGB5(eps float64, ov core.Overlap) QuerySpec {
	return QuerySpec{
		ID:          "SGB5",
		Description: "suppliers with similar revenue and account balance (SGB-All)",
		SQL:         supplierPoints + fmt.Sprintf("DISTANCE-ALL WITHIN %g USING ltwo ON-OVERLAP %s", eps, ov),
	}
}

// SGB6 is SGB5 with the DISTANCE-TO-ANY semantics.
func SGB6(eps float64) QuerySpec {
	return QuerySpec{
		ID:          "SGB6",
		Description: "suppliers with similar revenue and account balance (SGB-Any)",
		SQL:         supplierPoints + fmt.Sprintf("DISTANCE-ANY WITHIN %g USING ltwo", eps),
	}
}

// AllQueries returns the full Table 2 workload at the given ε and overlap
// clause for the SGB-All queries.
func AllQueries(eps float64, ov core.Overlap) []QuerySpec {
	return []QuerySpec{
		GB1(), SGB1(eps, ov), SGB2(eps),
		GB2(), SGB3(eps, ov), SGB4(eps),
		GB3(), SGB5(eps, ov), SGB6(eps),
	}
}
