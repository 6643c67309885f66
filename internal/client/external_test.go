package client_test

// External-server integration tests: these run against an already-running
// sgbd named by the SGBD_ADDR environment variable, and are skipped
// otherwise. CI builds cmd/sgbd, starts it on a random port, and runs this
// file against the live process — the in-process server tests live in
// internal/server instead.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/stream"
)

func externalConn(t *testing.T) *client.Conn {
	t.Helper()
	addr := os.Getenv("SGBD_ADDR")
	if addr == "" {
		t.Skip("SGBD_ADDR not set; skipping external-server test")
	}
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatalf("connect %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// uniqueTable returns a table name that is distinct per test process run, so
// repeated CI invocations against one server do not collide.
func uniqueTable(prefix string) string {
	return fmt.Sprintf("%s_%d", prefix, time.Now().UnixNano())
}

// TestExternalServerQueries drives a live sgbd end to end: DDL, DML, plain
// and similarity aggregation, and settings changes over the wire.
func TestExternalServerQueries(t *testing.T) {
	c := externalConn(t)
	ctx := context.Background()
	tbl := uniqueTable("ext_pts")
	defer c.Query(ctx, "DROP TABLE "+tbl)

	if _, err := c.Query(ctx, fmt.Sprintf("CREATE TABLE %s (id INT, x FLOAT, y FLOAT)", tbl)); err != nil {
		t.Fatalf("create: %v", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.5, %d.25)", i, i%13, i%29)
	}
	res, err := c.Query(ctx, sb.String())
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if res.RowsAffected != 200 {
		t.Fatalf("rows affected = %d, want 200", res.RowsAffected)
	}

	res, err = c.Query(ctx, fmt.Sprintf(
		"SELECT count(*) FROM %s GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5 ORDER BY count(*)", tbl))
	if err != nil {
		t.Fatalf("sgb query: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("sgb query returned no groups")
	}

	if err := c.Set("max_rows", "64"); err != nil {
		t.Fatalf("set max_rows: %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestExternalServerConcurrentClients hits the live server from several
// connections at once and checks each sees consistent results.
func TestExternalServerConcurrentClients(t *testing.T) {
	addr := os.Getenv("SGBD_ADDR")
	if addr == "" {
		t.Skip("SGBD_ADDR not set; skipping external-server test")
	}
	setup := externalConn(t)
	ctx := context.Background()
	tbl := uniqueTable("ext_conc")
	defer setup.Query(ctx, "DROP TABLE "+tbl)
	if _, err := setup.Query(ctx, fmt.Sprintf("CREATE TABLE %s (k INT, v INT)", tbl)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
	for i := 0; i < 300; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i%7, i)
	}
	if _, err := setup.Query(ctx, sb.String()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := client.Connect(addr)
			if err != nil {
				t.Errorf("client %d: %v", n, err)
				return
			}
			defer c.Close()
			for i := 0; i < 5; i++ {
				res, err := c.Query(ctx, fmt.Sprintf(
					"SELECT k, count(*), sum(v) FROM %s GROUP BY k ORDER BY k", tbl))
				if err != nil {
					t.Errorf("client %d: %v", n, err)
					return
				}
				if len(res.Rows) != 7 {
					t.Errorf("client %d: got %d groups, want 7", n, len(res.Rows))
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestExternalServerCancel verifies wire cancellation against the live
// process: a long query aborts well under a second and the connection stays
// usable.
func TestExternalServerCancel(t *testing.T) {
	c := externalConn(t)
	bg := context.Background()
	tbl := uniqueTable("ext_cancel")
	defer c.Query(bg, "DROP TABLE "+tbl)
	if _, err := c.Query(bg, fmt.Sprintf("CREATE TABLE %s (id INT, x FLOAT, y FLOAT)", tbl)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tbl)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.%d, %d.5)", i, i%97, i%7, i%89)
	}
	if _, err := c.Query(bg, sb.String()); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("sgb_algorithm", "allpairs"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Query(ctx, fmt.Sprintf(`SELECT count(*) FROM %s AS a, %s AS b
		GROUP BY a.x, b.y DISTANCE-TO-ALL L2 WITHIN 0.1 ON-OVERLAP FORM-NEW-GROUP`, tbl, tbl))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("long query was not canceled")
	}
	if !client.IsCanceled(err) {
		t.Fatalf("want cancellation, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if _, err := c.Query(bg, fmt.Sprintf("SELECT count(*) FROM %s", tbl)); err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
}

// TestExternalServerSubscribe drives a materialized view and a live
// subscription against the running sgbd: DDL for the view over the wire, a
// snapshot attach, deltas for committed writes, and a clean detach that
// returns the connection to query duty.
func TestExternalServerSubscribe(t *testing.T) {
	addr := os.Getenv("SGBD_ADDR")
	if addr == "" {
		t.Skip("SGBD_ADDR not set; skipping external-server test")
	}
	c := externalConn(t)
	ctx := context.Background()
	tbl := uniqueTable("ext_stream")
	view := tbl + "_v"
	defer c.Query(ctx, "DROP TABLE "+tbl)
	defer c.Query(ctx, "DROP MATERIALIZED VIEW "+view)

	if _, err := c.Query(ctx, fmt.Sprintf("CREATE TABLE %s (x FLOAT, y FLOAT)", tbl)); err != nil {
		t.Fatalf("create table: %v", err)
	}
	if _, err := c.Query(ctx, fmt.Sprintf(
		"CREATE MATERIALIZED VIEW %s AS SELECT x, y FROM %s GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5", view, tbl)); err != nil {
		t.Fatalf("create view: %v", err)
	}

	// Managed subscription on its own connection; the plain connection writes.
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, err := client.Subscribe(subCtx, addr, view)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	const groups = 5
	for i := 0; i < groups; i++ {
		if _, err := c.Query(ctx, fmt.Sprintf("INSERT INTO %s VALUES (%d.0, 0.5)", tbl, i*10)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	state := make(map[int64][]int64)
	deadline := time.After(30 * time.Second)
	for len(state) < groups {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("events closed early: %v", sub.Err())
			}
			if ev.Rebase {
				state = make(map[int64][]int64)
				continue
			}
			stream.Apply(state, ev.Delta)
		case <-deadline:
			t.Fatalf("saw %d groups, want %d", len(state), groups)
		}
	}
	total := 0
	for _, ms := range state {
		total += len(ms)
	}
	if total != groups {
		t.Fatalf("replayed state covers %d rows, want %d", total, groups)
	}
	cancel()
	for range sub.Events {
	}
	if err := sub.Err(); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
		t.Fatalf("subscription error after cancel: %v", err)
	}

	// The writing connection is still a plain query connection.
	res, err := c.Query(ctx, fmt.Sprintf("SELECT count(*) FROM %s", tbl))
	if err != nil {
		t.Fatalf("query after subscribe test: %v", err)
	}
	if res.Rows[0][0].I != groups {
		t.Fatalf("count = %d, want %d", res.Rows[0][0].I, groups)
	}
}

// TestExternalServerStats scrapes the wire Stats message and checks the
// server gauges are present.
func TestExternalServerStats(t *testing.T) {
	c := externalConn(t)
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"server_connections_open", "server_connections_total",
		"server_sessions_active", "server_bytes_in_total", "server_bytes_out_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("stats missing %s", name)
		}
	}
}
