package engine

// Tests for the trace plumbing added for end-to-end query observability:
// caller-supplied traces (ExecContextTrace) accumulate the engine's spans and
// state transitions under the caller's trace ID, plan-capture sampling stashes
// EXPLAIN ANALYZE actuals on sampled statements only, and the commit hook sees
// the statement's trace so the durability layer can add its own spans.

import (
	"context"
	"strings"
	"testing"
	"time"

	"sgb/internal/obs"
)

func traceDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO pts VALUES (1, 0.0, 0.0), (2, 1.0, 1.0), (3, 5.0, 5.0)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecContextTraceThreading: a caller-minted trace passed through
// ExecContextTrace keeps its ID, collects the parse/plan/execute spans, and
// ends in the "done"-adjacent terminal the caller left it in — the engine
// must never reset the state after the statement.
func TestExecContextTraceThreading(t *testing.T) {
	db := traceDB(t)
	sess := db.NewSession()
	id := obs.NewTraceID()
	tr := obs.NewTraceWithID(id)
	res, err := sess.ExecContextTrace(context.Background(), "SELECT count(*) FROM pts", tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("bad result: %+v", res.Rows)
	}
	if tr.ID() != id {
		t.Errorf("trace ID changed: %s -> %s", id, tr.ID())
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "parse,plan,execute" {
		t.Errorf("spans = %s, want parse,plan,execute", got)
	}
	if st := tr.State(); st != "executing" {
		t.Errorf("final engine state = %q, want executing (the caller owns later transitions)", st)
	}
	// The session's trace is the same object the caller handed in.
	if sess.LastTrace() != tr {
		t.Error("LastTrace is not the caller-supplied trace")
	}
}

// TestTraceStatesDML: a plain write transitions parsing → executing →
// committing (when a commit hook is installed) and records an execute span.
func TestTraceStatesDML(t *testing.T) {
	db := traceDB(t)
	var states []string
	var hookTrace *obs.Trace
	db.SetCommitHook(func(stmt Statement, sql string, tr *obs.Trace) error {
		hookTrace = tr
		states = append(states, tr.State())
		tr.AddSpan("wal_fsync", time.Now(), time.Millisecond)
		return nil
	})
	sess := db.NewSession()
	tr := obs.NewTrace()
	if _, err := sess.ExecContextTrace(context.Background(),
		"INSERT INTO pts VALUES (4, 2.0, 2.0)", tr); err != nil {
		t.Fatal(err)
	}
	if hookTrace != tr {
		t.Fatal("commit hook did not receive the statement's trace")
	}
	if len(states) != 1 || states[0] != "committing" {
		t.Errorf("hook observed state %v, want [committing]", states)
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "parse,execute,wal_fsync" {
		t.Errorf("spans = %s, want parse,execute,wal_fsync", got)
	}
}

// TestTraceSampling: sampling 1 captures the EXPLAIN ANALYZE plan with
// actuals on every statement; sampling 0 never does.
func TestTraceSampling(t *testing.T) {
	db := traceDB(t)
	db.SetTraceSampling(1)
	if _, err := db.Exec("SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5"); err != nil {
		t.Fatal(err)
	}
	tr := db.LastTrace()
	if tr == nil || len(tr.Plan()) == 0 {
		t.Fatal("sampled statement captured no plan")
	}
	plan := strings.Join(tr.Plan(), "\n")
	if !strings.Contains(plan, "rows=") {
		t.Errorf("sampled plan has no actuals:\n%s", plan)
	}

	db.SetTraceSampling(0)
	if _, err := db.Exec("SELECT count(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	if tr := db.LastTrace(); tr != nil && len(tr.Plan()) != 0 {
		t.Errorf("unsampled statement captured a plan: %v", tr.Plan())
	}
	if got := db.Metrics().Snapshot().Counters["engine_statements_sampled_total"]; got != 1 {
		t.Errorf("engine_statements_sampled_total = %d, want 1", got)
	}
}

// TestTraceSamplingNth: with n=2, every other statement is sampled.
func TestTraceSamplingNth(t *testing.T) {
	db := traceDB(t)
	db.SetTraceSampling(2)
	sampled := 0
	for i := 0; i < 6; i++ {
		if _, err := db.Exec("SELECT count(*) FROM pts"); err != nil {
			t.Fatal(err)
		}
		if tr := db.LastTrace(); tr != nil && len(tr.Plan()) > 0 {
			sampled++
		}
	}
	if sampled != 3 {
		t.Errorf("sampled %d of 6 statements at rate 2, want 3", sampled)
	}
}

// TestInsertSelectSampledPlan: INSERT .. SELECT under sampling records plan
// and execute spans plus the embedded query's plan actuals.
func TestInsertSelectSampledPlan(t *testing.T) {
	db := traceDB(t)
	db.SetTraceSampling(1)
	if _, err := db.Exec("CREATE TABLE dst (x FLOAT, c INT)"); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	tr := obs.NewTrace()
	if _, err := sess.ExecContextTrace(context.Background(),
		"INSERT INTO dst SELECT x, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5", tr); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "parse,plan,execute" {
		t.Errorf("spans = %s, want parse,plan,execute", got)
	}
	if len(tr.Plan()) == 0 {
		t.Error("sampled INSERT..SELECT captured no plan")
	}
}
