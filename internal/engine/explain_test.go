package engine

import (
	"regexp"
	"strings"
	"testing"
)

// explainDB builds deterministic fixtures for the EXPLAIN golden tests:
// an indexed employee/department pair and the paper's Figure 2 points.
func explainDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	for _, q := range []string{
		"CREATE TABLE emp (id INT, name TEXT, dept INT, salary FLOAT)",
		"INSERT INTO emp VALUES (1, 'ann', 10, 100), (2, 'bob', 10, 200), (3, 'cat', 20, 300), (4, 'dan', 20, 400)",
		"CREATE TABLE dept (dno INT, dname TEXT)",
		"INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')",
		"CREATE INDEX emp_dept ON emp (dept)",
		"CREATE TABLE pts (id INT, x FLOAT, y FLOAT)",
		"INSERT INTO pts VALUES (1, 1, 1), (2, 2, 2), (3, 6, 1), (4, 7, 2), (5, 4, 1.5)",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

func planLines(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].String()
	}
	return lines
}

// TestExplainGolden pins the exact EXPLAIN rendering of every plan shape the
// planner produces: scans (seq + index), filter, both joins, sort, distinct,
// limit, hash aggregation, derived tables, FROM-less values, and the SGB
// operator in all ON-OVERLAP and metric variants.
func TestExplainGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		sql  string
		alg  string // manual \alg override; "" keeps the auto default
		want []string
	}{
		{
			name: "values",
			sql:  "EXPLAIN SELECT 1",
			want: []string{
				"Project (col1) (est_rows=1 est_cost=1.5)",
				"  Values (1 rows) (est_rows=1 est_cost=0.5)",
			},
		},
		{
			name: "index scan",
			sql:  "EXPLAIN SELECT name FROM emp WHERE dept = 10",
			want: []string{
				"Project (name) (est_rows=0 est_cost=0.6)",
				"  IndexScan on emp using emp_dept (dept = const) (est_rows=0 est_cost=0.2)",
			},
		},
		{
			name: "seq scan with filter",
			sql:  "EXPLAIN SELECT name FROM emp WHERE salary > 150",
			want: []string{
				"Project (name) (est_rows=1 est_cost=7.3)",
				"  Filter (est_rows=1 est_cost=6.0)",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
			},
		},
		{
			name: "hash join",
			sql:  "EXPLAIN SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.dno",
			want: []string{
				"Project (name, dname) (est_rows=4 est_cost=23.0)",
				"  HashJoin (1 key(s)) (est_rows=4 est_cost=15.0)",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
				"    SeqScan on dept (2 rows) (est_rows=2 est_cost=1.0)",
			},
		},
		{
			name: "cross join",
			sql:  "EXPLAIN SELECT e.name FROM emp e, dept d",
			want: []string{
				"Project (name) (est_rows=8 est_cost=15.0)",
				"  NestedLoop (cross) (est_rows=8 est_cost=7.0)",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
				"    SeqScan on dept (2 rows) (est_rows=2 est_cost=1.0)",
			},
		},
		{
			name: "sort distinct limit",
			sql:  "EXPLAIN SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2",
			want: []string{
				"Limit 2 (est_rows=2 est_cost=9.6)",
				"  Distinct (est_rows=4 est_cost=19.2)",
				"    Project (dept) (est_rows=4 est_cost=11.2)",
				"      Sort (1 key(s)) (est_rows=4 est_cost=7.2)",
				"        SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
			},
		},
		{
			name: "hash aggregate",
			sql:  "EXPLAIN SELECT dept, count(*) FROM emp GROUP BY dept",
			want: []string{
				"Project (dept, count) (est_rows=1 est_cost=13.8)",
				"  HashAggregate (1 group key(s), 1 aggregate(s)) (est_rows=1 est_cost=11.2)",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
			},
		},
		{
			name: "subquery scan",
			sql:  "EXPLAIN SELECT s.c FROM (SELECT count(*) AS c FROM emp) s",
			want: []string{
				"Project (c) (est_rows=1 est_cost=12.8)",
				"  SubqueryScan as s (est_rows=1 est_cost=11.8)",
				"    Project (c) (est_rows=1 est_cost=11.8)",
				"      HashAggregate (0 group key(s), 1 aggregate(s)) (est_rows=1 est_cost=10.8)",
				"        SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0)",
			},
		},
		{
			// Five points is far below the index algorithms' breakeven, so the
			// cost-based selector picks All-Pairs for every SGB shape here.
			name: "sgb all join-any l2",
			sql:  "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 3 ON-OVERLAP JOIN-ANY",
			want: []string{
				"Project (count) (est_rows=1 est_cost=20.0)",
				"  SimilarityGroupBy DISTANCE-TO-ALL JOIN-ANY L2 WITHIN 3 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=18.8)",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5)",
			},
		},
		{
			name: "sgb all eliminate linf",
			sql:  "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE",
			want: []string{
				"Project (count) (est_rows=1 est_cost=20.0)",
				"  SimilarityGroupBy DISTANCE-TO-ALL ELIMINATE LINF WITHIN 3 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=18.8)",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5)",
			},
		},
		{
			name: "sgb all form-new-group linf",
			sql:  "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP",
			want: []string{
				"Project (count) (est_rows=1 est_cost=20.0)",
				"  SimilarityGroupBy DISTANCE-TO-ALL FORM-NEW-GROUP LINF WITHIN 3 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=18.8)",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5)",
			},
		},
		{
			name: "sgb any l2",
			sql:  "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5",
			want: []string{
				"Project (count) (est_rows=1 est_cost=26.2)",
				"  SimilarityGroupBy DISTANCE-TO-ANY L2 WITHIN 1.5 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=25.0)",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5)",
			},
		},
		{
			// A manual \alg override bypasses the cost-based choice entirely.
			name: "sgb manual index override",
			sql:  "EXPLAIN SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5",
			alg:  "index",
			want: []string{
				"Project (count) (est_rows=1 est_cost=763.8)",
				"  SimilarityGroupBy DISTANCE-TO-ANY L2 WITHIN 1.5 [on-the-fly Index] (1 aggregate(s)) (est_rows=1 est_cost=762.5)",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5)",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.alg == "index" {
				db.SetSGBAlgorithm(SGBIndex)
				defer db.SetSGBAlgorithm(SGBAuto)
			}
			got := planLines(t, db, c.sql)
			if len(got) != len(c.want) {
				t.Fatalf("got %d lines, want %d:\n%s", len(got), len(c.want), strings.Join(got, "\n"))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], c.want[i])
				}
			}
		})
	}
}

var (
	timeRe      = regexp.MustCompile(`time=\d+\.\d+ ms`)
	phaseTimeRe = regexp.MustCompile(`(Planning|Execution) Time: \d+\.\d+ ms`)
)

// normalizeAnalyze replaces wall-clock measurements with "X" so EXPLAIN
// ANALYZE output can be compared against golden text.
func normalizeAnalyze(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		l = timeRe.ReplaceAllString(l, "time=X ms")
		l = phaseTimeRe.ReplaceAllString(l, "$1 Time: X ms")
		out[i] = l
	}
	return out
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering — actual row
// counts, loop counts, buffer sizes, and the SGB cost counters — with wall
// times normalized out.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name string
		sql  string
		want []string
	}{
		{
			name: "filter scan",
			sql:  "EXPLAIN ANALYZE SELECT name FROM emp WHERE salary > 150",
			want: []string{
				"Project (name) (est_rows=1 est_cost=7.3) (actual rows=3 loops=1 time=X ms)",
				"  Filter (est_rows=1 est_cost=6.0) (actual rows=3 loops=1 time=X ms)",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0) (actual rows=4 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			name: "hash join",
			sql:  "EXPLAIN ANALYZE SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.dno",
			want: []string{
				"Project (name, dname) (est_rows=4 est_cost=23.0) (actual rows=4 loops=1 time=X ms)",
				"  HashJoin (1 key(s)) (est_rows=4 est_cost=15.0) (actual rows=4 loops=1 time=X ms)",
				"    Hash Build: rows=2 buckets=2",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0) (actual rows=4 loops=1 time=X ms)",
				"    SeqScan on dept (2 rows) (est_rows=2 est_cost=1.0) (actual rows=2 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			name: "sort distinct limit",
			sql:  "EXPLAIN ANALYZE SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2",
			want: []string{
				"Limit 2 (est_rows=2 est_cost=9.6) (actual rows=2 loops=1 time=X ms)",
				"  Distinct (est_rows=4 est_cost=19.2) (actual rows=2 loops=1 time=X ms)",
				"    Distinct Set: keys=2",
				"    Project (dept) (est_rows=4 est_cost=11.2) (actual rows=3 loops=1 time=X ms)",
				"      Sort (1 key(s)) (est_rows=4 est_cost=7.2) (actual rows=3 loops=1 time=X ms)",
				"        Sort Buffer: rows=4",
				"        SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0) (actual rows=4 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			name: "hash aggregate",
			sql:  "EXPLAIN ANALYZE SELECT dept, count(*) FROM emp GROUP BY dept",
			want: []string{
				"Project (dept, count) (est_rows=1 est_cost=13.8) (actual rows=2 loops=1 time=X ms)",
				"  HashAggregate (1 group key(s), 1 aggregate(s)) (est_rows=1 est_cost=11.2) (actual rows=2 loops=1 time=X ms)",
				"    Hash Table: groups=2 input rows=4",
				"    SeqScan on emp (4 rows) (est_rows=4 est_cost=2.0) (actual rows=4 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			// The Figure 2 points under LINF/3 with JOIN-ANY form groups
			// {1,2,5} and {3,4} (first-candidate arbitration). Auto selection
			// picks All-Pairs at n=5, so the counters show distance
			// computations instead of window queries.
			name: "sgb all join-any linf",
			sql:  "EXPLAIN ANALYZE SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP JOIN-ANY",
			want: []string{
				"Project (count) (est_rows=1 est_cost=20.0) (actual rows=2 loops=1 time=X ms)",
				"  SimilarityGroupBy DISTANCE-TO-ALL JOIN-ANY LINF WITHIN 3 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=18.8) (actual rows=2 loops=1 time=X ms)",
				"    SGB Stats: points=5 distance_comps=8 rect_tests=0 hull_tests=0 window_queries=0 index_updates=0 rounds=1 merged=0 dropped=0",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5) (actual rows=5 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			name: "sgb all eliminate linf",
			sql:  "EXPLAIN ANALYZE SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE",
			want: []string{
				"Project (count) (est_rows=1 est_cost=20.0) (actual rows=2 loops=1 time=X ms)",
				"  SimilarityGroupBy DISTANCE-TO-ALL ELIMINATE LINF WITHIN 3 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=18.8) (actual rows=2 loops=1 time=X ms)",
				"    SGB Stats: points=5 distance_comps=10 rect_tests=0 hull_tests=0 window_queries=0 index_updates=0 rounds=1 merged=0 dropped=1",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5) (actual rows=5 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
		{
			name: "sgb any l2",
			sql:  "EXPLAIN ANALYZE SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5",
			want: []string{
				"Project (count) (est_rows=1 est_cost=26.2) (actual rows=3 loops=1 time=X ms)",
				"  SimilarityGroupBy DISTANCE-TO-ANY L2 WITHIN 1.5 [All-Pairs] (1 aggregate(s)) (est_rows=1 est_cost=25.0) (actual rows=3 loops=1 time=X ms)",
				"    SGB Stats: points=5 distance_comps=10 rect_tests=0 hull_tests=0 window_queries=0 index_updates=0 rounds=1 merged=2 dropped=0",
				"    SeqScan on pts (5 rows) (est_rows=5 est_cost=2.5) (actual rows=5 loops=1 time=X ms)",
				"Planning Time: X ms",
				"Execution Time: X ms",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := normalizeAnalyze(planLines(t, db, c.sql))
			if len(got) != len(c.want) {
				t.Fatalf("got %d lines, want %d:\n%s", len(got), len(c.want), strings.Join(got, "\n"))
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestExplainCoversAllOperators plans a suite of queries that together
// exercise every physical operator the planner can produce, walks each tree,
// and fails if describeOp does not recognize a node. A new operator that
// reaches any of these plan shapes therefore cannot silently fall back to
// the raw Go type name in EXPLAIN output.
func TestExplainCoversAllOperators(t *testing.T) {
	db := explainDB(t)
	queries := []string{
		"SELECT 1",
		"SELECT name FROM emp WHERE dept = 10",
		"SELECT name FROM emp WHERE salary > 150",
		"SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.dno",
		"SELECT e.name FROM emp e, dept d",
		"SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 2 OFFSET 1",
		"SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 0",
		"SELECT s.c FROM (SELECT count(*) AS c FROM emp) s",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 3 ON-OVERLAP JOIN-ANY",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY LINF WITHIN 1.5",
	}
	seen := map[string]bool{}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		pc := &planContext{db: db}
		op, err := pc.planSelect(stmt.(*SelectStmt))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var walk func(op operator)
		walk = func(op operator) {
			if i, ok := op.(*instrumentedOp); ok {
				op = i.child
			}
			label, children, known := describeOp(op)
			if !known {
				t.Errorf("%s: operator %s has no EXPLAIN case", q, label)
			}
			seen[label[:strings.IndexAny(label+" ", " ")]] = true
			for _, c := range children {
				walk(c)
			}
		}
		walk(op)
	}
	// The suite must reach every operator kind the planner can emit today.
	for _, kind := range []string{
		"Values", "IndexScan", "SeqScan", "Filter", "Project", "HashJoin",
		"NestedLoop", "Sort", "Distinct", "Limit", "HashAggregate",
		"SimilarityGroupBy", "SubqueryScan",
	} {
		if !seen[kind] {
			t.Errorf("operator kind %s not exercised by the coverage suite", kind)
		}
	}
	// And nothing may render as a raw Go type name.
	for label := range seen {
		if strings.Contains(label, "engine.") {
			t.Errorf("raw Go type name leaked into EXPLAIN: %q", label)
		}
	}
}

// TestQueryMetricsAndTrace asserts the acceptance criterion: after one SGB
// query, the registry reports nonzero engine_queries_total and
// sgb_distance_comps_total, the latency histogram has an observation, and
// the trace carries parse/plan/execute spans.
func TestQueryMetricsAndTrace(t *testing.T) {
	db := explainDB(t)
	base := db.Metrics().Snapshot()
	if _, err := db.Exec("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 3 ON-OVERLAP JOIN-ANY"); err != nil {
		t.Fatal(err)
	}
	s := db.Metrics().Snapshot()
	if got := s.Counters["engine_queries_total"] - base.Counters["engine_queries_total"]; got != 1 {
		t.Errorf("engine_queries_total delta = %d, want 1", got)
	}
	if s.Counters["sgb_distance_comps_total"] <= base.Counters["sgb_distance_comps_total"] {
		t.Errorf("sgb_distance_comps_total did not advance: %d", s.Counters["sgb_distance_comps_total"])
	}
	if s.Counters["sgb_queries_total"] == 0 || s.Counters["sgb_points_total"] == 0 {
		t.Errorf("sgb counters missing: %v", s.Counters)
	}
	if h := s.Histograms["engine_query_seconds"]; h.Count == 0 {
		t.Errorf("latency histogram empty")
	}
	tr := db.LastTrace()
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "parse,plan,execute" {
		t.Errorf("trace spans = %s, want parse,plan,execute", got)
	}
	if len(tr.Notes()) == 0 || !strings.Contains(tr.Notes()[0], "distance_comps=") {
		t.Errorf("trace notes missing SGB annotation: %v", tr.Notes())
	}

	// Errors are counted too.
	if _, err := db.Exec("SELECT nosuch FROM emp"); err == nil {
		t.Fatal("expected error")
	}
	if got := db.Metrics().Snapshot().Counters["engine_errors_total"]; got == 0 {
		t.Error("engine_errors_total not incremented")
	}
}

// TestExplainAnalyzeMatchesDirectExecution guards against the instrumented
// tree changing query semantics: EXPLAIN ANALYZE must execute the same
// query and report the row count the plain SELECT produces.
func TestExplainAnalyzeMatchesDirectExecution(t *testing.T) {
	db := explainDB(t)
	sel, err := db.Exec("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5")
	if err != nil {
		t.Fatal(err)
	}
	lines := planLines(t, db, "EXPLAIN ANALYZE SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5")
	rootRe := regexp.MustCompile(`actual rows=(\d+)`)
	m := rootRe.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("no actual rows on root line: %q", lines[0])
	}
	if want := len(sel.Rows); m[1] != itoa(want) {
		t.Errorf("EXPLAIN ANALYZE root rows=%s, SELECT returned %d", m[1], want)
	}
}

func itoa(n int) string {
	return string(rune('0' + n%10)) // test fixture row counts are single-digit
}

// TestExplainAnalyzeCountsBelowSGB: EXPLAIN ANALYZE runs the operator tree it
// prints, so the scan below a SimilarityGroupBy reports the rows it produced
// on a table larger than one batch.
func TestExplainAnalyzeCountsBelowSGB(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 23)
	lines := planLines(t, db, "EXPLAIN ANALYZE SELECT count(*), avg(x) FROM nums WHERE v >= 0 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2")
	for i, l := range lines {
		if !strings.Contains(l, "SimilarityGroupBy") {
			continue
		}
		below := strings.Join(lines[i+1:], "\n")
		if !regexp.MustCompile(`SeqScan on nums .*actual rows=3000 loops=1 `).MatchString(below) {
			t.Fatalf("the scan below SimilarityGroupBy did not report its 3000 rows:\n%s", strings.Join(lines, "\n"))
		}
		return
	}
	t.Fatalf("no SimilarityGroupBy node:\n%s", strings.Join(lines, "\n"))
}

// TestExplainAnalyzeCountsBelowHashAgg: the same holds below a hash
// aggregate, with default settings on any core count — the Filter and the
// SeqScan under the plain HashAggregate node report the rows they produced.
func TestExplainAnalyzeCountsBelowHashAgg(t *testing.T) {
	db := NewDB()
	loadNums(t, db, 3000, 3)
	lines := planLines(t, db, "EXPLAIN ANALYZE SELECT k, count(*) FROM nums WHERE v > 10 GROUP BY k")
	plan := strings.Join(lines, "\n")
	for _, want := range []string{
		`(?m)^\s*HashAggregate \(1 group key\(s\), 1 aggregate\(s\)\)`,
		`Filter .*actual rows=2973 loops=1 `,
		`SeqScan on nums .*actual rows=3000 loops=1 `,
	} {
		if !regexp.MustCompile(want).MatchString(plan) {
			t.Fatalf("plan does not match %s:\n%s", want, plan)
		}
	}
}
