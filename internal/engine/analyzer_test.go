package engine

import (
	"fmt"
	"strings"
	"testing"

	"sgb/internal/core"
)

// analyzerQueries is the workload for the rewrite-equivalence property: every
// shape an analyzer rule can touch (projection pruning, limit pushdown, index
// scan selection, predicate pushdown, join column pruning, SGB algorithm
// selection), plus SGB variants across metrics, ε, and overlap modes.
var analyzerQueries = []string{
	"SELECT id, x FROM nums WHERE k = 7 ORDER BY id",
	"SELECT s.a FROM (SELECT id AS a, x AS b, y AS c FROM nums) s ORDER BY s.a LIMIT 20",
	"SELECT count(*) FROM (SELECT id AS a, v AS b FROM nums) s",
	"SELECT id FROM nums ORDER BY id LIMIT 5 OFFSET 3",
	"SELECT n.id, d.label FROM nums n, dim d WHERE n.k = d.k AND n.v > 500 ORDER BY n.id LIMIT 30",
	// Join shapes prune_join_columns must leave bit-identical.
	"SELECT count(*) FROM nums n, dim d, dim e WHERE n.k = d.k",
	"SELECT * FROM nums n, dim d WHERE n.k = d.k ORDER BY n.id LIMIT 25",
	"SELECT n.k, count(*), max(d.label) FROM nums n, dim d WHERE n.k = d.k GROUP BY n.k ORDER BY n.k",
	"SELECT k FROM nums n, dim d WHERE n.k = d.k",
	"SELECT n.id AS i, d.label AS lab FROM nums n, dim d WHERE n.k = d.k AND n.v < 300 ORDER BY lab, i",
	"SELECT d.label, sum(n.v) FROM nums n, dim d WHERE n.k = d.k GROUP BY d.label HAVING count(*) > 130 ORDER BY d.label",
	"SELECT n.id, d.k IN (SELECT k FROM nums WHERE v < 20) FROM nums n, dim d WHERE n.k = d.k AND n.v + d.k IN (SELECT v FROM nums WHERE id < 200) ORDER BY n.id",
	"SELECT n.id, d.label, e.label FROM nums n, dim d, dim e WHERE n.k = d.k AND e.k = d.k + 1 AND n.v > e.k * 40 ORDER BY n.id, e.label",
	"SELECT k, count(*), sum(v) FROM nums GROUP BY k ORDER BY k",
	"SELECT x, y, count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 12",
	"SELECT x, y, count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L1 WITHIN 5",
	"SELECT x, y, count(*) FROM nums WHERE v > 100 GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 8",
	"SELECT count(*), avg(v) FROM nums GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 40 ON-OVERLAP JOIN-ANY",
	"SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 25 ON-OVERLAP ELIMINATE",
	"SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ALL L1 WITHIN 60 ON-OVERLAP FORM-NEW-GROUP",
}

// analyzerDB builds the property-test fixture: a 3000-row numeric table with
// an index, a join dimension table, and fresh statistics.
func analyzerDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	loadNums(t, db, 3000, 17)
	mustExec(t, db, "CREATE INDEX nums_k ON nums (k)")
	mustExec(t, db, "CREATE TABLE dim (k INT, label TEXT)")
	for i := 0; i < 23; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'd%d')", i, i))
	}
	mustExec(t, db, "ANALYZE")
	return db
}

// TestAnalyzerRewritesAreBitIdentical is the property test behind every
// analyzer rule: for each workload query, the fully optimized plan (auto
// algorithm selection included) must return byte-identical rows, in the same
// order, as the naive plan produced with the optimizer off. A statement the
// naive plan rejects as ambiguous must fail with the same error. Run under
// -race in CI.
func TestAnalyzerRewritesAreBitIdentical(t *testing.T) {
	db := analyzerDB(t)
	for _, q := range analyzerQueries {
		db.SetOptimizer(false)
		naive, nerr := db.Exec(q)
		db.SetOptimizer(true)
		opt, err := db.Exec(q)
		if nerr != nil {
			if !strings.Contains(nerr.Error(), "ambiguous") {
				t.Fatalf("naive %s: %v", q, nerr)
			}
			if err == nil || err.Error() != nerr.Error() {
				t.Errorf("%s: optimized error %v, naive error %v", q, err, nerr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("optimized %s: %v", q, err)
		}
		wantRows, gotRows := rowStrings(naive), rowStrings(opt)
		if strings.Join(wantRows, "\n") != strings.Join(gotRows, "\n") {
			t.Errorf("%s:\nnaive %d rows, optimized %d rows differ", q, len(wantRows), len(gotRows))
		}
		if strings.Join(naive.Columns, ",") != strings.Join(opt.Columns, ",") {
			t.Errorf("%s: column mismatch %v vs %v", q, naive.Columns, opt.Columns)
		}
	}
}

// TestAutoAlgorithmMatchesEveryManualChoice pins what makes cost-based
// selection safe: all SGB algorithms produce identical groups, so whatever
// auto picks, the result equals every manual override bit-for-bit.
func TestAutoAlgorithmMatchesEveryManualChoice(t *testing.T) {
	db := analyzerDB(t)
	queries := []string{
		"SELECT x, y, count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 10",
		"SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 30 ON-OVERLAP JOIN-ANY",
	}
	for _, q := range queries {
		db.SetSGBAlgorithmAuto()
		auto, err := db.Exec(q)
		if err != nil {
			t.Fatalf("auto %s: %v", q, err)
		}
		for _, alg := range []core.Algorithm{core.AllPairs, core.BoundsChecking, core.IndexBounds} {
			db.SetSGBAlgorithm(alg)
			manual, err := db.Exec(q)
			if err != nil {
				t.Fatalf("%v %s: %v", alg, q, err)
			}
			if strings.Join(rowStrings(auto), "\n") != strings.Join(rowStrings(manual), "\n") {
				t.Errorf("%s: auto result differs from manual %v", q, alg)
			}
		}
	}
	db.SetSGBAlgorithmAuto()
}

// TestAnalyzerRulesRecorded checks that each rule fires on (exactly) the plan
// shapes it targets, via the planContext's applied-rule log.
func TestAnalyzerRulesRecorded(t *testing.T) {
	db := analyzerDB(t)
	cases := []struct {
		sql     string
		rule    string
		present bool
	}{
		{"SELECT id FROM nums WHERE k = 3", "index_scan_selection", true},
		{"SELECT id FROM nums WHERE v = 3", "index_scan_selection", false}, // no index on v
		{"SELECT id FROM nums ORDER BY id LIMIT 2", "limit_pushdown", true},
		{"SELECT id FROM nums", "limit_pushdown", false},
		{"SELECT s.a FROM (SELECT id AS a, x AS b FROM nums) s", "prune_subquery_projection", true},
		{"SELECT s.a, s.b FROM (SELECT id AS a, x AS b FROM nums) s", "prune_subquery_projection", false},
		{"SELECT n.id FROM nums n, dim d WHERE n.k = d.k AND n.v > 5", "predicate_pushdown", true},
		{"SELECT n.id FROM nums n, dim d WHERE n.k = d.k", "prune_join_columns", true},
		{"SELECT * FROM nums n, dim d WHERE n.k = d.k", "prune_join_columns", false},
		{"SELECT id, k FROM nums WHERE v > 5", "prune_join_columns", false},
		{"SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 5", "sgb_algorithm_selection", true},
		{"SELECT k, count(*) FROM nums GROUP BY k", "sgb_algorithm_selection", false},
	}
	for _, c := range cases {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		pc := &planContext{db: db}
		if _, err := pc.planSelect(stmt.(*SelectStmt)); err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		found := false
		for _, r := range pc.applied {
			if r == c.rule {
				found = true
			}
		}
		if found != c.present {
			t.Errorf("%s: rule %s applied=%v, want %v (applied: %v)", c.sql, c.rule, found, c.present, pc.applied)
		}
	}
}

// TestCostBasedAlgorithmSelection exercises the selector's two regimes: tiny
// inputs cost out to All-Pairs, large analyzed tables to the on-the-fly
// index — and a manual override always wins over the cost model.
func TestCostBasedAlgorithmSelection(t *testing.T) {
	db := analyzerDB(t)
	plan := func(sql string) *sgbAggOp {
		t.Helper()
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Thread the session's algorithm setting the way execTraced does; a
		// bare planContext would always plan in auto mode.
		pc := &planContext{db: db, qc: &queryCtx{
			alg: db.SGBAlgorithm(), algAuto: db.SGBAlgorithmIsAuto(),
		}}
		op, err := pc.planSelect(stmt.(*SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		for {
			switch o := op.(type) {
			case *projectOp:
				op = o.child
			case *sgbAggOp:
				return o
			default:
				t.Fatalf("unexpected operator %T above the aggregation", op)
			}
		}
	}

	mustExec(t, db, "CREATE TABLE tiny (x FLOAT, y FLOAT)")
	mustExec(t, db, "INSERT INTO tiny VALUES (1, 1), (2, 2), (3, 3)")
	if op := plan("SELECT count(*) FROM tiny GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"); op.algorithm != core.AllPairs || !op.algAuto {
		t.Errorf("tiny table picked %v (auto=%v), want All-Pairs under auto", op.algorithm, op.algAuto)
	}
	if op := plan("SELECT count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 5"); op.algorithm != core.IndexBounds {
		t.Errorf("3000-row table picked %v, want on-the-fly index", op.algorithm)
	}
	db.SetSGBAlgorithm(core.BoundsChecking)
	defer db.SetSGBAlgorithmAuto()
	if op := plan("SELECT count(*) FROM tiny GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY"); op.algorithm != core.BoundsChecking || op.algAuto {
		t.Errorf("manual override ignored: got %v (auto=%v)", op.algorithm, op.algAuto)
	}
}

// TestEstimatesOnEveryNode asserts the EXPLAIN acceptance criterion: every
// plan line of an EXPLAIN ANALYZE carries both the planner estimate and the
// measured actuals.
func TestEstimatesOnEveryNode(t *testing.T) {
	db := analyzerDB(t)
	for _, q := range []string{
		"EXPLAIN ANALYZE SELECT n.id, d.label FROM nums n, dim d WHERE n.k = d.k ORDER BY n.id LIMIT 5",
		"EXPLAIN ANALYZE SELECT x, y, count(*) FROM nums GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 10",
	} {
		res := mustExec(t, db, q)
		for _, r := range res.Rows {
			line := r[0].String()
			if strings.HasPrefix(line, "Planning Time") || strings.HasPrefix(line, "Execution Time") {
				continue
			}
			trimmed := strings.TrimLeft(line, " ")
			if strings.HasPrefix(trimmed, "SGB Stats:") || strings.HasPrefix(trimmed, "Hash ") ||
				strings.HasPrefix(trimmed, "Sort Buffer:") || strings.HasPrefix(trimmed, "Distinct Set:") {
				continue // per-operator annotation lines, not plan nodes
			}
			if !strings.Contains(line, "est_rows=") || !strings.Contains(line, "est_cost=") {
				t.Errorf("%s: plan node missing estimates: %q", q, line)
			}
			if !strings.Contains(line, "actual rows=") {
				t.Errorf("%s: plan node missing actuals: %q", q, line)
			}
		}
	}
}
