// Command sgbcli is an interactive SQL shell for the similarity group-by
// engine. By default it runs against an embedded in-process database; with
// -connect host:port it speaks the wire protocol to a running sgbd instead,
// and the settings meta commands (\alg, \limits) map onto
// session-scoped settings of that connection.
//
// Statements end with ';'. Meta commands:
//
//	\tables              list tables
//	\load tpch <SF>      generate and load TPC-H-style data
//	\load checkin <N>    generate and load a check-in table ("checkins")
//	\alg <name>          pick the SGB algorithm: auto (cost-based, the
//	                     default) | allpairs | bounds | index
//	\save <file>         snapshot the database to a file
//	\open <file>         replace the session database with a snapshot
//	\timing              toggle query timing (with parse/plan/execute spans;
//	                     remote: also prints the query's trace ID)
//	\stats               dump the engine metrics registry (Prometheus text)
//	\slowlog <ms>        log queries slower than <ms> to stderr (0 disables)
//	\slowlog             remote only: fetch the server's slow-query log,
//	                     newest first, with each query's trace spans
//	\processlist         remote only: show the server's in-flight queries
//	                     (trace ID, client, state, elapsed)
//	\subscribe <view> [<token>]
//	                     remote only: stream a materialized view's deltas
//	                     until Ctrl-C; with a token, resume after that seq
//	\limits rows <n> | time <dur> | off
//	                     set per-query resource limits (no args: show)
//	\q                   quit
//
// In remote mode \tables, \load, \save, and \open are unavailable (they need
// the embedded database); everything else works, with \stats fetching the
// server's metrics registry over the wire.
//
// Ctrl-C while a statement is executing cancels that statement (embedded:
// context cancellation; remote: a wire Cancel frame — the server aborts the
// query and the connection stays usable); Ctrl-C at the prompt exits the
// shell.
//
// Example session:
//
//	sgb> \load checkin 10000
//	sgb> SELECT count(*) FROM checkins
//	     GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.5;
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"sgb/internal/checkin"
	"sgb/internal/client"
	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/stream"
	"sgb/internal/tpch"
	"sgb/internal/wire"
)

// session bundles the shell's state: the embedded database handle or the
// remote connection, plus the observability toggles.
type session struct {
	db      *engine.DB   // embedded mode (nil when remote)
	conn    *client.Conn // remote mode (nil when embedded)
	timing  bool
	slowLog time.Duration // 0 = disabled
}

// exec runs one statement with SIGINT wired to query cancellation: Ctrl-C
// mid-query aborts the statement instead of the shell. In remote mode the
// context cancellation sends a wire Cancel frame to the server. The signal
// registration is scoped to the statement, so Ctrl-C at the idle prompt keeps
// its default exit behaviour.
func (s *session) exec(sql string) (*engine.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if s.conn != nil {
		return s.conn.Query(ctx, sql)
	}
	return s.db.ExecContext(ctx, sql)
}

func main() {
	connect := flag.String("connect", "", "connect to a remote sgbd at host:port instead of running embedded")
	flag.Parse()

	s := &session{}
	if *connect != "" {
		conn, err := client.Connect(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sgbcli: connect:", err)
			os.Exit(1)
		}
		defer conn.Close()
		s.conn = conn
		fmt.Printf("connected to %s (%s) — \\q to quit\n", *connect, conn.Server())
	} else {
		s.db = engine.NewDB()
		fmt.Println("similarity group-by shell — \\q to quit, \\load tpch 1 to get data")
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder

	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sgb> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(s, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		sql := strings.TrimSpace(buf.String())
		buf.Reset()
		start := time.Now()
		res, err := s.exec(sql)
		elapsed := time.Since(start)
		if err != nil {
			if client.IsCanceled(err) {
				fmt.Printf("canceled after %v\n", elapsed.Round(time.Millisecond))
			} else {
				fmt.Println("error:", err)
				printErrHint(err)
			}
		} else {
			printResult(res)
			if s.timing {
				switch {
				case s.db != nil && s.db.LastTrace() != nil:
					fmt.Printf("(%v — %s)\n", elapsed, s.db.LastTrace())
				case s.conn != nil && s.conn.LastTraceID() != "":
					// The trace ID keys the server-side trace: feed it to
					// \slowlog or /debug/slowlog for the span breakdown.
					fmt.Printf("(%v — trace=%s)\n", elapsed, s.conn.LastTraceID())
				default:
					fmt.Printf("(%v)\n", elapsed)
				}
			}
		}
		if s.slowLog > 0 && elapsed >= s.slowLog {
			fmt.Fprintf(os.Stderr, "slow query (%v): %s\n", elapsed, firstLine(sql))
		}
		prompt()
	}
}

// printErrHint translates the server's typed degradation errors into a
// human next step, including the server's retry-after hint when present.
func printErrHint(err error) {
	var se *client.ServerError
	if !errors.As(err, &se) {
		return
	}
	retry := ""
	if d := se.RetryAfter(); d > 0 {
		retry = fmt.Sprintf(" (server suggests retrying in %v)", d)
	}
	switch se.Code {
	case wire.CodeReadOnly:
		fmt.Printf("hint: server is read-only: disk full or write fault; reads keep working and writes resume automatically once the disk recovers%s\n", retry)
	case wire.CodeOverloaded:
		fmt.Printf("hint: server is shedding load (admission queue or memory budget full); retry the statement%s\n", retry)
	}
}

// firstLine compresses a statement to one log-friendly line.
func firstLine(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > 120 {
		sql = sql[:117] + "..."
	}
	return sql
}

// meta handles a backslash command; it returns false on \q.
func meta(s *session, cmd string) bool {
	if s.conn != nil {
		return metaRemote(s, cmd)
	}
	db := s.db
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\timing":
		s.timing = !s.timing
		fmt.Println("timing:", s.timing)
	case "\\stats":
		if err := db.Metrics().WritePrometheus(os.Stdout); err != nil {
			fmt.Println("stats failed:", err)
		}
	case "\\limits":
		lim := db.Limits()
		switch {
		case len(fields) == 1:
		case len(fields) == 2 && fields[1] == "off":
			lim = engine.Limits{}
		case len(fields) == 3 && fields[1] == "rows":
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 0 {
				fmt.Println("bad row limit:", fields[2])
				return true
			}
			lim.MaxRowsMaterialized = n
		case len(fields) == 3 && fields[1] == "time":
			d, err := time.ParseDuration(fields[2])
			if err != nil || d < 0 {
				fmt.Println("bad time limit:", fields[2])
				return true
			}
			lim.MaxExecutionTime = d
		default:
			fmt.Println("usage: \\limits [rows <n> | time <duration> | off]")
			return true
		}
		db.SetLimits(lim)
		rows, dur := "unlimited", "unlimited"
		if lim.MaxRowsMaterialized > 0 {
			rows = strconv.FormatInt(lim.MaxRowsMaterialized, 10)
		}
		if lim.MaxExecutionTime > 0 {
			dur = lim.MaxExecutionTime.String()
		}
		fmt.Printf("limits: rows=%s time=%s\n", rows, dur)
	case "\\slowlog":
		if len(fields) != 2 {
			fmt.Println("usage: \\slowlog <milliseconds>  (0 disables)")
			break
		}
		ms, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || ms < 0 {
			fmt.Println("bad threshold:", fields[1])
			break
		}
		s.slowLog = time.Duration(ms * float64(time.Millisecond))
		if s.slowLog == 0 {
			fmt.Println("slow-query log disabled")
		} else {
			fmt.Printf("logging queries slower than %v to stderr\n", s.slowLog)
		}
	case "\\tables":
		for _, n := range db.Catalog().Names() {
			t, _ := db.Catalog().Get(n)
			fmt.Printf("%s (%d rows)\n", n, len(t.Rows))
		}
	case "\\alg":
		if len(fields) != 2 {
			fmt.Println("usage: \\alg auto|allpairs|bounds|index")
			break
		}
		switch fields[1] {
		case "auto":
			db.SetSGBAlgorithmAuto()
		case "allpairs":
			db.SetSGBAlgorithm(core.AllPairs)
		case "bounds":
			db.SetSGBAlgorithm(core.BoundsChecking)
		case "index":
			db.SetSGBAlgorithm(core.IndexBounds)
		default:
			fmt.Println("unknown algorithm:", fields[1])
		}
		if db.SGBAlgorithmIsAuto() {
			fmt.Println("SGB algorithm: auto (cost-based per query)")
		} else {
			fmt.Println("SGB algorithm:", db.SGBAlgorithm())
		}
	case "\\save":
		if len(fields) != 2 {
			fmt.Println("usage: \\save <file>")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			fmt.Println("save failed:", err)
			break
		}
		err = db.Save(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Println("save failed:", err)
		} else {
			fmt.Println("saved to", fields[1])
		}
	case "\\open":
		if len(fields) != 2 {
			fmt.Println("usage: \\open <file>")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			fmt.Println("open failed:", err)
			break
		}
		loaded, err := engine.Load(f)
		f.Close()
		if err != nil {
			fmt.Println("open failed:", err)
			break
		}
		s.db = loaded
		fmt.Println("opened", fields[1])
	case "\\load":
		if len(fields) != 3 {
			fmt.Println("usage: \\load tpch <SF> | \\load checkin <N>")
			break
		}
		switch fields[1] {
		case "tpch":
			sf, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				fmt.Println("bad scale factor:", fields[2])
				break
			}
			d := tpch.Generate(tpch.Config{SF: sf, Seed: 1})
			if err := d.Load(db); err != nil {
				fmt.Println("load failed:", err)
				break
			}
			fmt.Printf("loaded: %v\n", d.Counts())
		case "checkin":
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("bad count:", fields[2])
				break
			}
			cs := checkin.Generate(checkin.Config{N: n, Seed: 1})
			if err := checkin.Load(db, "checkins", cs); err != nil {
				fmt.Println("load failed:", err)
				break
			}
			fmt.Printf("loaded %d check-ins into table checkins\n", n)
		default:
			fmt.Println("unknown dataset:", fields[1])
		}
	case "\\processlist":
		fmt.Println("\\processlist needs a server; use -connect")
	case "\\subscribe":
		fmt.Println("\\subscribe needs a server; use -connect")
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return true
}

// metaRemote handles a backslash command against a remote sgbd: the settings
// commands become wire Set messages scoped to this connection's session, and
// \stats fetches the server's metrics registry. Commands that need the
// embedded database (\tables, \load, \save, \open) are unavailable.
func metaRemote(s *session, cmd string) bool {
	c := s.conn
	fields := strings.Fields(cmd)
	// set sends one session-setting change and reports the outcome.
	set := func(name, value string) {
		if err := c.Set(name, value); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("%s = %s\n", name, value)
		}
	}
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\timing":
		s.timing = !s.timing
		fmt.Println("timing:", s.timing)
	case "\\slowlog":
		// With no argument, fetch the server's slow-query log; with a
		// threshold, keep the local client-side logging from embedded mode.
		if len(fields) == 1 {
			entries, err := c.SlowLog(context.Background())
			if err != nil {
				fmt.Println("slowlog failed:", err)
				break
			}
			if len(entries) == 0 {
				fmt.Println("server slowlog is empty")
				break
			}
			for _, e := range entries {
				fmt.Printf("%s  %8.3fms  trace=%s  client=%s\n", e.FinishedAt, e.ElapsedMS, e.TraceID, e.Client)
				fmt.Printf("  %s\n", firstLine(e.SQL))
				if e.Err != "" {
					fmt.Printf("  error: %s\n", e.Err)
				}
				for _, sp := range e.Trace.Spans {
					fmt.Printf("  %-12s %8.3fms\n", sp.Name, sp.DurMS)
				}
			}
			break
		}
		if len(fields) != 2 {
			fmt.Println("usage: \\slowlog [<milliseconds>]  (no args: fetch server slowlog; 0 disables local logging)")
			break
		}
		ms, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || ms < 0 {
			fmt.Println("bad threshold:", fields[1])
			break
		}
		s.slowLog = time.Duration(ms * float64(time.Millisecond))
		if s.slowLog == 0 {
			fmt.Println("slow-query log disabled")
		} else {
			fmt.Printf("logging queries slower than %v to stderr\n", s.slowLog)
		}
	case "\\processlist":
		procs, err := c.ProcessList(context.Background())
		if err != nil {
			fmt.Println("processlist failed:", err)
			break
		}
		if len(procs) == 0 {
			fmt.Println("no queries in flight")
			break
		}
		for _, q := range procs {
			fmt.Printf("trace=%s  client=%s  state=%-10s  %8.3fms  %s\n",
				q.TraceID, q.Client, q.State, q.ElapsedMS, firstLine(q.SQL))
		}
	case "\\stats":
		text, err := c.Stats()
		if err != nil {
			fmt.Println("stats failed:", err)
			break
		}
		printStatsHeadline(text)
		fmt.Print(text)
	case "\\alg":
		if len(fields) != 2 {
			fmt.Println("usage: \\alg auto|allpairs|bounds|index")
			break
		}
		set("sgb_algorithm", fields[1])
	case "\\limits":
		switch {
		case len(fields) == 2 && fields[1] == "off":
			set("max_rows", "0")
			set("max_time", "0")
		case len(fields) == 3 && fields[1] == "rows":
			set("max_rows", fields[2])
		case len(fields) == 3 && fields[1] == "time":
			set("max_time", fields[2])
		default:
			fmt.Println("usage: \\limits rows <n> | time <duration> | off")
		}
	case "\\subscribe":
		if len(fields) < 2 || len(fields) > 3 {
			fmt.Println("usage: \\subscribe <view> [<resume-token>]")
			break
		}
		var token uint64
		if len(fields) == 3 {
			t, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				fmt.Println("bad resume token:", fields[2])
				break
			}
			token = t
		}
		s.subscribe(fields[1], token)
	case "\\tables", "\\load", "\\save", "\\open":
		fmt.Printf("%s needs the embedded database; not available with -connect\n", fields[0])
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return true
}

// printStatsHeadline surfaces the server's degradation state above the raw
// Prometheus dump: read-only mode, queued admissions, and memory pressure
// are the first things an operator checks when queries misbehave.
func printStatsHeadline(text string) {
	get := func(name string) (float64, bool) {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	if v, ok := get("server_degraded"); ok && v != 0 {
		fmt.Println("!! server is DEGRADED (read-only): writes are rejected until the disk probe recovers")
	}
	if v, ok := get("server_admission_queued"); ok && v > 0 {
		fmt.Printf("!! %d statement(s) queued for admission (server at max-active-queries)\n", int64(v))
	}
	used, okUsed := get("engine_mem_used_bytes")
	budget, okBudget := get("engine_mem_budget_bytes")
	if okUsed && okBudget && budget > 0 {
		fmt.Printf("memory: %.0f of %.0f budget bytes in use (%.0f%%)\n", used, budget, 100*used/budget)
	}
}

// subscribe streams a materialized view's deltas to stdout until Ctrl-C,
// then detaches cleanly and returns the connection to the idle prompt. Each
// line carries the delta's resume token (seq), so a later
// \subscribe <view> <seq> resumes after the last delta seen.
func (s *session) subscribe(view string, token uint64) {
	ss, err := s.conn.SubscribeOnce(view, token)
	if err != nil {
		fmt.Println("subscribe failed:", err)
		return
	}
	if ss.Snapshot {
		fmt.Printf("-- snapshot at seq %d (token predates retention; full state image follows); Ctrl-C to stop\n", ss.Seq)
	} else {
		fmt.Printf("-- live after seq %d; Ctrl-C to stop\n", ss.Seq)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// The server answers Cancel with Done, unblocking Next below.
			s.conn.Cancel()
		case <-done:
		}
	}()
	n := 0
	for {
		d, err := ss.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				fmt.Printf("-- subscription closed (%d deltas)\n", n)
			} else {
				fmt.Println("stream error:", err)
			}
			return
		}
		n++
		switch d.Kind {
		case stream.GroupsMerged:
			fmt.Printf("seq=%d  %-14s group=%d absorbed=%v\n", d.Seq, d.Kind, d.Group, d.Merged)
		case stream.GroupDissolved:
			fmt.Printf("seq=%d  %-14s group=%d\n", d.Seq, d.Kind, d.Group)
		default:
			fmt.Printf("seq=%d  %-14s group=%d members=%v\n", d.Seq, d.Kind, d.Group, d.Members)
		}
	}
}

func printResult(res *engine.Result) {
	if len(res.Columns) == 0 {
		if res.RowsAffected > 0 {
			fmt.Printf("ok (%d rows)\n", res.RowsAffected)
		} else {
			fmt.Println("ok")
		}
		return
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	// EXPLAIN plans are one wide column; clipping them at 60 chars would
	// cut off the actuals annotations.
	isPlan := len(res.Columns) == 1 && res.Columns[0] == "plan"
	const maxRows = 50
	shown := res.Rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	cells := make([][]string, len(shown))
	for i, r := range shown {
		cells[i] = make([]string, len(r))
		for j, v := range r {
			s := v.String()
			if len(s) > 60 && !isPlan {
				s = s[:57] + "..."
			}
			cells[i][j] = s
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	row := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				fmt.Print(" | ")
			}
			fmt.Print(v, strings.Repeat(" ", widths[i]-len(v)))
		}
		fmt.Println()
	}
	row(res.Columns)
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	fmt.Println(strings.Repeat("-", total))
	for _, r := range cells {
		row(r)
	}
	if len(res.Rows) > maxRows {
		fmt.Printf("... (%d rows total)\n", len(res.Rows))
	} else {
		fmt.Printf("(%d rows)\n", len(res.Rows))
	}
}
