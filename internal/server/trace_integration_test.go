package server_test

// End-to-end observability test against a real sgbd process: a traced write
// issued through internal/client must be retrievable by its trace ID from
// /debug/slowlog with spans covering the whole pipeline — wire decode, parse,
// plan, execute (with per-operator actuals), WAL fsync, and row streaming —
// and the debug/metrics surface (/debug/queries, /debug/pprof, durability
// gauges) must be live on the metrics listener.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/obs"
)

// httpGet fetches url with a deadline, returning the body.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body
}

func TestEndToEndTraceInSlowlog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real sgbd process")
	}
	dataDir := t.TempDir()
	p := startSgbd(t, dataDir,
		"-metrics-addr", "127.0.0.1:0", "-slow-query", "0", "-trace-sample", "1")
	defer p.cmd.Process.Kill()
	if p.metricsURL == "" {
		t.Fatal("sgbd never printed its metrics address")
	}
	base := strings.TrimSuffix(p.metricsURL, "/metrics")

	conn, err := client.Connect(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.25, %d.5)", i, i%13, i%7)
	}
	if _, err := conn.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("CREATE TABLE dst (x FLOAT, c INT)"); err != nil {
		t.Fatal(err)
	}

	// The probe statement: a write with an embedded SELECT, so one trace
	// covers planning, per-operator execution, WAL append+fsync, and the
	// wire reply.
	if _, err := conn.Exec(
		"INSERT INTO dst SELECT x, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"); err != nil {
		t.Fatal(err)
	}
	traceID := conn.LastTraceID()
	if !obs.ValidTraceID(traceID) {
		t.Fatalf("client trace ID %q invalid", traceID)
	}

	// Retrieve the trace by ID from /debug/slowlog.
	var entries []obs.SlowQuery
	if err := json.Unmarshal(httpGet(t, base+"/debug/slowlog"), &entries); err != nil {
		t.Fatalf("decoding /debug/slowlog: %v", err)
	}
	var entry *obs.SlowQuery
	for i := range entries {
		if entries[i].TraceID == traceID {
			entry = &entries[i]
			break
		}
	}
	if entry == nil {
		t.Fatalf("trace %s not in /debug/slowlog (%d entries)", traceID, len(entries))
	}
	have := make(map[string]bool, len(entry.Trace.Spans))
	for _, sp := range entry.Trace.Spans {
		have[sp.Name] = true
	}
	for _, want := range []string{"wire_decode", "parse", "plan", "execute", "wal_append", "wal_fsync", "stream"} {
		if !have[want] {
			t.Errorf("trace %s missing span %q (have %+v)", traceID, want, entry.Trace.Spans)
		}
	}
	planText := strings.Join(entry.Trace.Plan, "\n")
	if !strings.Contains(planText, "rows=") {
		t.Errorf("trace plan has no per-operator actuals:\n%s", planText)
	}

	// /debug/queries serves the (now idle) process list as JSON.
	var procs []obs.QueryInfo
	if err := json.Unmarshal(httpGet(t, base+"/debug/queries"), &procs); err != nil {
		t.Fatalf("decoding /debug/queries: %v", err)
	}

	// pprof is mounted on the same mux.
	if body := httpGet(t, base+"/debug/pprof/goroutine?debug=1"); !strings.Contains(string(body), "goroutine") {
		t.Error("/debug/pprof/goroutine served no goroutine dump")
	}

	// The durability and build telemetry is on /metrics.
	metrics := string(httpGet(t, p.metricsURL))
	for _, want := range []string{
		"wal_fsync_seconds", "checkpoint_lag_seq", "checkpoint_lag_seconds",
		"wal_size_bytes", "sgbd_build_info", "server_uptime_seconds",
		"server_wire_decode_seconds", "engine_commit_hook_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
