package server

// Introspection tests: the slowlog captures finished queries with their
// end-to-end traces, the process list tracks in-flight queries through their
// state transitions (and forgets them on completion or cancel), and both are
// reachable over the wire via the Introspect message. Run with -race: the
// process list reads live traces while the query goroutine mutates them.

import (
	"context"
	"net"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/wire"
)

// spanNames flattens a trace snapshot's span names for containment checks.
func spanNames(tr obs.TraceSnapshot) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestSlowLogCapturesTrace: with threshold 0 and sampling 1, a SELECT issued
// through the client lands in the slowlog under the client-minted trace ID,
// carrying the full span chain (wire_decode → parse → plan → execute →
// stream) and the EXPLAIN ANALYZE plan with per-operator actuals.
func TestSlowLogCapturesTrace(t *testing.T) {
	db := engine.NewDB()
	db.SetTraceSampling(1)
	loadPoints(t, db, 500)
	srv := startServer(t, db, Config{SlowQueryThreshold: 0})
	c := connect(t, srv)

	rows, err := c.Stream(context.Background(),
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5")
	if err != nil {
		t.Fatal(err)
	}
	traceID := rows.TraceID()
	if !obs.ValidTraceID(traceID) {
		t.Fatalf("client minted invalid trace ID %q", traceID)
	}
	if got := c.LastTraceID(); got != traceID {
		t.Fatalf("LastTraceID() = %q, want %q", got, traceID)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	q, ok := srv.SlowLog().Find(traceID)
	if !ok {
		t.Fatalf("trace %s not in slowlog; entries: %+v", traceID, srv.SlowLog().Entries())
	}
	names := spanNames(q.Trace)
	for _, want := range []string{"wire_decode", "parse", "plan", "execute", "stream"} {
		if !names[want] {
			t.Errorf("trace %s missing span %q (have %v)", traceID, want, q.Trace.Spans)
		}
	}
	if len(q.Trace.Plan) == 0 {
		t.Error("sampled query has no EXPLAIN ANALYZE plan in its trace")
	}
	if q.Rows <= 0 {
		t.Errorf("slowlog rows = %d, want > 0", q.Rows)
	}
	if q.Settings == "" {
		t.Error("slowlog entry has no settings summary")
	}

	// The wire path returns the same entry.
	entries, err := c.SlowLog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in wire slowlog (%d entries)", traceID, len(entries))
	}
}

// TestSlowLogThreshold: fast queries stay out of the log above a high
// threshold, and a negative threshold disables logging entirely.
func TestSlowLogThreshold(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 10)
	srv := startServer(t, db, Config{SlowQueryThreshold: time.Hour})
	c := connect(t, srv)
	if _, err := c.Query(context.Background(), "SELECT count(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	if n := srv.SlowLog().Len(); n != 0 {
		t.Fatalf("slowlog has %d entries under a 1h threshold, want 0", n)
	}

	db2 := engine.NewDB()
	loadPoints(t, db2, 10)
	srv2 := startServer(t, db2, Config{SlowQueryThreshold: -1})
	c2 := connect(t, srv2)
	if _, err := c2.Query(context.Background(), "SELECT count(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	if n := srv2.SlowLog().Len(); n != 0 {
		t.Fatalf("slowlog has %d entries while disabled, want 0", n)
	}
}

// TestProcessListLifecycle: an in-flight query appears in the process list
// with its trace ID and a live state, is visible over the wire from a second
// connection, and disappears once canceled.
func TestProcessListLifecycle(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 3000)
	srv := startServer(t, db, Config{SlowQueryThreshold: -1})
	c := connect(t, srv)

	if err := c.Set("sgb_algorithm", "allpairs"); err != nil {
		t.Fatal(err)
	}
	long := `SELECT count(*) FROM pts AS a, pts AS b
	         GROUP BY a.x, b.y DISTANCE-TO-ALL L2 WITHIN 0.1 ON-OVERLAP FORM-NEW-GROUP`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, long)
		errCh <- err
	}()

	// Wait for the query to surface in the process list.
	var info obs.QueryInfo
	deadline := time.Now().Add(5 * time.Second)
	for {
		if procs := srv.ProcessList(); len(procs) == 1 {
			info = procs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in the process list")
		}
		time.Sleep(time.Millisecond)
	}
	if !obs.ValidTraceID(info.TraceID) {
		t.Errorf("process list trace ID %q invalid", info.TraceID)
	}
	validStates := map[string]bool{"parsing": true, "executing": true, "committing": true, "streaming": true}
	if !validStates[info.State] {
		t.Errorf("process list state %q, want a live query state", info.State)
	}
	if info.Client == "" || info.SQL == "" {
		t.Errorf("process list entry incomplete: %+v", info)
	}

	// A second connection sees it over the wire.
	c2 := connect(t, srv)
	procs, err := c2.ProcessList(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The introspecting query itself is not in flight (Introspect is not a
	// Query), so only the long statement shows.
	if len(procs) != 1 || procs[0].TraceID != info.TraceID {
		t.Fatalf("wire process list = %+v, want the in-flight query %s", procs, info.TraceID)
	}

	// Cancel and wait for the entry to vanish.
	cancel()
	if err := <-errCh; !client.IsCanceled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if len(srv.ProcessList()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled query still in process list: %+v", srv.ProcessList())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUntracedQueryGetsServerTrace speaks the raw protocol — Hello{MaxVersion},
// then a Query frame with no trace tail — and asserts the server answers the
// query and mints a valid trace ID for its slowlog entry.
func TestUntracedQueryGetsServerTrace(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 10)
	srv := startServer(t, db, Config{SlowQueryThreshold: 0})

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteMessage(nc, &wire.Hello{Version: wire.MaxVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := msg.(*wire.Welcome)
	if !ok {
		t.Fatalf("expected Welcome, got %#v", msg)
	}
	if w.Version != wire.MaxVersion {
		t.Fatalf("welcomed at version %d, want %d", w.Version, wire.MaxVersion)
	}

	if err := wire.WriteMessage(nc, &wire.Query{SQL: "SELECT count(*) FROM pts"}); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for {
		msg, err := wire.ReadMessage(nc)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *wire.RowHeader, *wire.RowBatch:
		case *wire.Done:
			rows = m.RowCount
		case *wire.Error:
			t.Fatalf("server error for untraced query: %v", m)
		default:
			t.Fatalf("unexpected %T", msg)
		}
		if _, done := msg.(*wire.Done); done {
			break
		}
	}
	if rows != 1 {
		t.Fatalf("untraced query returned %d rows, want 1", rows)
	}

	// The untraced query still got a server-minted trace in the slowlog.
	entries := srv.SlowLog().Entries()
	if len(entries) != 1 {
		t.Fatalf("slowlog has %d entries, want 1", len(entries))
	}
	if !obs.ValidTraceID(entries[0].TraceID) {
		t.Errorf("server-minted trace ID %q invalid", entries[0].TraceID)
	}
}
