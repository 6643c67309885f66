package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/engine"
	"sgb/internal/wire"
)

// startServer boots a server on a random localhost port over db and tears it
// down with the test.
func startServer(t *testing.T, db *engine.DB, cfg Config) *Server {
	t.Helper()
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

// connect dials the test server, failing the test on error.
func connect(t *testing.T, srv *Server) *client.Conn {
	t.Helper()
	c, err := client.Connect(srv.Addr().String())
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// loadPoints populates a 2-D point table sized for SGB queries.
func loadPoints(t *testing.T, db *engine.DB, rows int) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x FLOAT, y FLOAT, tag TEXT)"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d.%d, %d.5, 't%d')", i, i%89, i%7, i%61, i%3)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// sameResult asserts two results are bit-for-bit identical: same columns,
// same row order, and float cells compared by bit pattern (Value is
// comparable, so == covers that).
func sameResult(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %v != %v", label, got.Columns, want.Columns)
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: columns %v != %v", label, got.Columns, want.Columns)
		}
	}
	if got.RowsAffected != want.RowsAffected {
		t.Fatalf("%s: rows affected %d != %d", label, got.RowsAffected, want.RowsAffected)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows != %d rows", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d width mismatch", label, i)
		}
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d col %d: %v != %v",
					label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestWireMatchesEmbedded is the acceptance test: a query issued through
// internal/client returns rows identical to DB.ExecContext for the same SQL.
func TestWireMatchesEmbedded(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 500)
	srv := startServer(t, db, Config{})
	c := connect(t, srv)

	queries := []string{
		"SELECT tag, count(*), avg(x) FROM pts GROUP BY tag ORDER BY tag",
		"SELECT count(*), avg(x), min(y) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP FORM-NEW-GROUP ORDER BY count(*), avg(x)",
		"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2.5 ORDER BY count(*)",
		"SELECT id, x FROM pts WHERE y > 10.0 ORDER BY id LIMIT 37",
	}
	for _, q := range queries {
		want, err := db.ExecContext(context.Background(), q)
		if err != nil {
			t.Fatalf("embedded %q: %v", q, err)
		}
		got, err := c.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("wire %q: %v", q, err)
		}
		sameResult(t, q, got, want)
	}
}

// TestConcurrentClientsBitIdentical runs N concurrent clients issuing
// SGB-All, SGB-Any, and hash-agg queries against one server and asserts
// every result matches embedded execution bit-for-bit (run under -race in
// CI).
func TestConcurrentClientsBitIdentical(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 400)
	srv := startServer(t, db, Config{})

	queries := []string{
		"SELECT tag, count(*), sum(x) FROM pts GROUP BY tag ORDER BY tag",
		"SELECT count(*), avg(y) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 4 ON-OVERLAP FORM-NEW-GROUP ORDER BY count(*), avg(x)",
		"SELECT count(*), max(x) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2 ORDER BY count(*), max(x)",
	}

	const clients = 8
	const iters = 5
	var wg sync.WaitGroup
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := client.Connect(srv.Addr().String())
			if err != nil {
				t.Errorf("client %d: %v", n, err)
				return
			}
			defer c.Close()
			// Each client picks its own row limit, mirrored by an embedded
			// reference session with identical settings: the wire layer
			// must add no divergence on top of the engine's answer.
			maxRows := int64(2000) << (n % 3)
			if err := c.Set("max_rows", fmt.Sprint(maxRows)); err != nil {
				t.Errorf("client %d: set: %v", n, err)
				return
			}
			ref := db.NewSession()
			ref.SetLimits(engine.Limits{MaxRowsMaterialized: maxRows})
			for i := 0; i < iters; i++ {
				q := queries[(n+i)%len(queries)]
				want, err := ref.ExecContext(context.Background(), q)
				if err != nil {
					t.Errorf("client %d iter %d embedded: %v", n, i, err)
					return
				}
				got, err := c.Query(context.Background(), q)
				if err != nil {
					t.Errorf("client %d iter %d: %v", n, i, err)
					return
				}
				sameResult(t, fmt.Sprintf("client %d iter %d", n, i), got, want)
			}
		}(n)
	}
	wg.Wait()
}

// TestWireCancelPromptAndConnUsable cancels a long-running SGB query over
// the wire and asserts (a) it aborts well under a second, and (b) both the
// connection and the server remain usable afterwards.
func TestWireCancelPromptAndConnUsable(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 3000)
	srv := startServer(t, db, Config{})
	c := connect(t, srv)

	// All-pairs SGB over a cross join: effectively unbounded work.
	if err := c.Set("sgb_algorithm", "allpairs"); err != nil {
		t.Fatal(err)
	}
	long := `SELECT count(*) FROM pts AS a, pts AS b
	         GROUP BY a.x, b.y DISTANCE-TO-ALL L2 WITHIN 0.1 ON-OVERLAP FORM-NEW-GROUP`

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Query(ctx, long)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("long query was not canceled")
	}
	if !client.IsCanceled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v, want well under 1s", elapsed)
	}

	// The same connection keeps working.
	res, err := c.Query(context.Background(), "SELECT count(*) FROM pts")
	if err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3000 {
		t.Fatalf("bad post-cancel result: %+v", res.Rows)
	}
	// And so does a fresh one.
	c2 := connect(t, srv)
	if _, err := c2.Query(context.Background(), "SELECT count(*) FROM pts"); err != nil {
		t.Fatalf("server unusable after cancel: %v", err)
	}
}

// TestMaxConnectionsRejected fills the connection limit and asserts the next
// dial is refused with the typed wire error, then that closing a connection
// frees a slot.
func TestMaxConnectionsRejected(t *testing.T) {
	db := engine.NewDB()
	srv := startServer(t, db, Config{MaxConns: 2})

	c1 := connect(t, srv)
	c2 := connect(t, srv)
	_, _ = c1, c2

	_, err := client.Connect(srv.Addr().String())
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeTooManyConnections {
		t.Fatalf("want CodeTooManyConnections, got %v", err)
	}

	// Freeing a slot admits a new connection. Closing is asynchronous on the
	// server side, so poll briefly.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := client.Connect(srv.Addr().String())
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot not freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSetSGBAlgorithmRejectsAuto: the wire's sgb_algorithm setting takes the
// engine's spelling table, so "auto" fails with the table's error, and the
// session stays usable afterwards.
func TestSetSGBAlgorithmRejectsAuto(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 100)
	srv := startServer(t, db, Config{})
	c := connect(t, srv)

	_, want := engine.ParseSGBAlgorithm("auto")
	var se *client.ServerError
	err := c.Set("sgb_algorithm", "auto")
	if !errors.As(err, &se) || se.Code != wire.CodeUnknownSetting || se.Message != want.Error() {
		t.Fatalf("set sgb_algorithm auto: got %v, want CodeUnknownSetting %q", err, want)
	}
	if err := c.Set("sgb_algorithm", "bounds"); err != nil {
		t.Fatalf("set after the rejected value: %v", err)
	}
	res, err := c.Query(context.Background(), "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY")
	if err != nil {
		t.Fatalf("query after the rejected value: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("query after the rejected value returned no groups")
	}
}

// TestSessionSettingsScopedPerConnection pins the wire-level version of the
// settings-isolation bugfix: one connection's Set must not leak into another
// connection's statements.
func TestSessionSettingsScopedPerConnection(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 100)
	srv := startServer(t, db, Config{})

	a := connect(t, srv)
	b := connect(t, srv)

	if err := a.Set("max_rows", "10"); err != nil {
		t.Fatal(err)
	}
	// There are no parallelism or batch_size settings: they are refused like
	// any unknown name.
	var se *client.ServerError
	for _, name := range []string{"parallelism", "batch_size"} {
		if err := a.Set(name, "2"); !errors.As(err, &se) || se.Code != wire.CodeUnknownSetting {
			t.Fatalf("set %s: want CodeUnknownSetting, got %v", name, err)
		}
	}
	// a is limited...
	_, err := a.Query(context.Background(), "SELECT id FROM pts")
	if !errors.As(err, &se) || se.Code != wire.CodeResourceLimit {
		t.Fatalf("session a: want CodeResourceLimit, got %v", err)
	}
	// ...b is not.
	res, err := b.Query(context.Background(), "SELECT id FROM pts")
	if err != nil {
		t.Fatalf("session b: %v", err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("session b: got %d rows, want 100", len(res.Rows))
	}
	// Neither is the embedded default path.
	if res, err := db.Exec("SELECT id FROM pts"); err != nil || len(res.Rows) != 100 {
		t.Fatalf("db default contaminated: %v, %d rows", err, len(res.Rows))
	}
}

// TestIdleTimeout asserts an idle connection is closed by the server, while
// an active one survives.
func TestIdleTimeout(t *testing.T) {
	db := engine.NewDB()
	srv := startServer(t, db, Config{IdleTimeout: 150 * time.Millisecond})
	c := connect(t, srv)

	// Activity within the window keeps the connection alive.
	for i := 0; i < 3; i++ {
		time.Sleep(60 * time.Millisecond)
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("ping %d on active conn: %v", i, err)
		}
	}
	// Going idle past the window gets the socket closed.
	time.Sleep(400 * time.Millisecond)
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping succeeded on idle-timed-out connection")
	}
}

// TestGracefulShutdownDrains verifies Shutdown lets an in-flight statement
// finish and that new connections are refused while draining.
func TestGracefulShutdownDrains(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 2000)
	srv := New(db, Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type qres struct {
		res *engine.Result
		err error
	}
	resCh := make(chan qres, 1)
	go func() {
		r, err := c.Query(context.Background(),
			"SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 2 ORDER BY count(*)")
		resCh <- qres{r, err}
	}()
	// Give the query time to reach the server before draining.
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight query did not finish across graceful drain: %v", r.err)
	}
	if len(r.res.Rows) == 0 {
		t.Fatal("in-flight query returned no rows")
	}
	if _, err := client.Connect(srv.Addr().String()); err == nil {
		t.Fatal("connect succeeded after shutdown")
	}
}

// TestForcedShutdownCancelsInFlight verifies that an expired drain deadline
// cancels the in-flight statement instead of hanging Shutdown.
func TestForcedShutdownCancelsInFlight(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 3000)
	srv := New(db, Config{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("sgb_algorithm", "allpairs"); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), `SELECT count(*) FROM pts AS a, pts AS b
			GROUP BY a.x, b.y DISTANCE-TO-ALL L2 WITHIN 0.1 ON-OVERLAP FORM-NEW-GROUP`)
		errCh <- err
	}()
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: got %v, want deadline exceeded", err)
	}
	if e := time.Since(start); e > 3*time.Second {
		t.Fatalf("forced shutdown took %v", e)
	}
	if qerr := <-errCh; qerr == nil {
		t.Fatal("in-flight query survived forced shutdown")
	}
}

// TestServerMetricsExported checks the new server gauges/counters appear in
// the Prometheus text (both over the wire and via the registry) and track
// connection activity.
func TestServerMetricsExported(t *testing.T) {
	db := engine.NewDB()
	loadPoints(t, db, 50)
	srv := startServer(t, db, Config{})
	c := connect(t, srv)

	if _, err := c.Query(context.Background(), "SELECT count(*) FROM pts"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"server_connections_open", "server_connections_total",
		"server_sessions_active", "server_bytes_in_total", "server_bytes_out_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	snap := db.Metrics().Snapshot()
	if snap.Counters["server_connections_total"] < 1 {
		t.Errorf("server_connections_total = %d, want >= 1", snap.Counters["server_connections_total"])
	}
	if snap.Gauges["server_connections_open"] < 1 {
		t.Errorf("server_connections_open = %v, want >= 1", snap.Gauges["server_connections_open"])
	}
	if snap.Counters["server_bytes_in_total"] == 0 || snap.Counters["server_bytes_out_total"] == 0 {
		t.Error("byte counters did not move")
	}
}

// TestHandshakeRejectsGarbage makes sure a non-protocol client (e.g. an HTTP
// probe) is refused instead of wedging a session.
func TestHandshakeRejectsGarbage(t *testing.T) {
	db := engine.NewDB()
	srv := startServer(t, db, Config{})

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1024)
	n, _ := nc.Read(buf)
	// Whatever came back (an error frame or nothing), the connection must be
	// closed promptly.
	if _, err := nc.Read(buf[n:]); err == nil {
		t.Fatal("connection stayed open after garbage handshake")
	}
}

// TestVersionMismatchRejected pins the single-version contract: the server
// refuses every Hello but Hello{MaxVersion}, older versions included.
func TestVersionMismatchRejected(t *testing.T) {
	db := engine.NewDB()
	srv := startServer(t, db, Config{})

	for _, v := range []uint32{1, 2, 3, wire.MaxVersion + 7} {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteMessage(nc, &wire.Hello{Version: v}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		msg, err := wire.ReadMessage(nc)
		nc.Close()
		if err != nil {
			t.Fatalf("Hello{%d}: %v", v, err)
		}
		e, ok := msg.(*wire.Error)
		if !ok || e.Code != wire.CodeVersionMismatch {
			t.Fatalf("Hello{%d}: got %#v, want CodeVersionMismatch error", v, msg)
		}
	}
}
