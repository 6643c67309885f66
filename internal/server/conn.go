package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/stream"
	"sgb/internal/wire"
)

// handshakeTimeout bounds how long a fresh connection may take to send its
// Hello; it keeps half-open sockets from pinning connection slots.
const handshakeTimeout = 10 * time.Second

// conn is one client connection: a counting socket, an engine session, and
// the goroutine plumbing that lets Cancel frames arrive mid-query.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	sess *engine.Session

	// ctx is the connection's force-close signal: canceling it aborts the
	// in-flight statement and terminates the session loop.
	ctx    context.Context
	cancel context.CancelFunc
	// drain asks the session loop to exit at the next statement boundary
	// (graceful shutdown); closed at most once by beginDrain.
	drain     chan struct{}
	drainOnce sync.Once
	// in carries frames from the reader goroutine; done stops the reader
	// when the session loop exits first.
	in   chan readResult
	done chan struct{}
}

type readResult struct {
	msg wire.Message
	// dur is the frame's wire-decode time (read + decode, excluding idle
	// wait), recorded as the query's wire_decode span.
	dur time.Duration
	err error
}

func newConn(s *Server, nc net.Conn) *conn {
	m := s.db.Metrics()
	cc := &countingConn{
		Conn: nc,
		in:   m.Counter("server_bytes_in_total"),
		out:  m.Counter("server_bytes_out_total"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &conn{
		srv:    s,
		nc:     cc,
		br:     bufio.NewReader(cc),
		sess:   s.db.NewSession(),
		ctx:    ctx,
		cancel: cancel,
		drain:  make(chan struct{}),
		in:     make(chan readResult),
		done:   make(chan struct{}),
	}
	return c
}

// beginDrain asks the session to finish its current statement and close.
func (c *conn) beginDrain() {
	c.drainOnce.Do(func() { close(c.drain) })
}

// forceClose aborts the in-flight statement and tears the socket down.
func (c *conn) forceClose() {
	c.cancel()
	c.nc.Close()
}

// serve runs the connection to completion: handshake, then the
// request/response loop. It owns the socket and closes it on exit.
func (c *conn) serve() {
	// Last line of panic defense: a bug anywhere in the session loop kills
	// this connection, not the daemon. Registered first so the socket/ctx
	// cleanup defers below still run during unwinding.
	defer func() {
		if p := recover(); p != nil {
			c.srv.db.Metrics().Counter("server_panics_recovered_total").Inc()
		}
	}()
	defer c.nc.Close()
	defer c.cancel()
	defer close(c.done)

	if err := c.handshake(); err != nil {
		return
	}
	go c.readLoop()

	for {
		c.setIdleDeadline()
		select {
		case <-c.ctx.Done():
			return
		case <-c.drain:
			c.writeMsg(&wire.Error{Code: wire.CodeShuttingDown, Message: "server is shutting down"})
			return
		case rr := <-c.in:
			if rr.err != nil {
				// A malformed trace ID is a typed decode failure worth naming
				// to the client before the (now desynced) stream closes.
				if errors.Is(rr.err, wire.ErrBadTraceID) {
					c.writeMsg(&wire.Error{Code: wire.CodeProtocol, Message: rr.err.Error()})
				}
				return
			}
			c.clearDeadline()
			if !c.dispatch(rr) {
				return
			}
		}
	}
}

// handshake performs the Hello/Welcome version exchange under its own
// deadline. The reader goroutine is not running yet; serve reads directly.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	msg, err := wire.ReadMessage(c.br)
	if err != nil {
		return err
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("expected Hello, got %T", msg)})
		return errors.New("server: bad handshake")
	}
	if hello.Version != wire.MaxVersion {
		c.writeMsg(&wire.Error{Code: wire.CodeVersionMismatch,
			Message: fmt.Sprintf("client speaks protocol %d, server speaks %d",
				hello.Version, wire.MaxVersion)})
		return errors.New("server: version mismatch")
	}
	return c.writeMsg(&wire.Welcome{Version: wire.MaxVersion, Server: c.srv.cfg.ServerName})
}

// readLoop feeds decoded frames to the session loop until the connection
// errors or the session loop exits.
func (c *conn) readLoop() {
	for {
		msg, dur, err := wire.ReadMessageTimed(c.br)
		select {
		case c.in <- readResult{msg, dur, err}:
			if err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

// setIdleDeadline arms the between-statements idle timer (a read deadline on
// the socket, which interrupts the reader goroutine's pending Read).
func (c *conn) setIdleDeadline() {
	if t := c.srv.cfg.IdleTimeout; t > 0 {
		c.nc.SetReadDeadline(time.Now().Add(t))
	}
}

// clearDeadline disarms the idle timer while a statement runs — a long query
// is activity, and Cancel frames must be readable indefinitely.
func (c *conn) clearDeadline() {
	if c.srv.cfg.IdleTimeout > 0 {
		c.nc.SetReadDeadline(time.Time{})
	}
}

// dispatch handles one idle-state frame; false terminates the connection.
func (c *conn) dispatch(rr readResult) bool {
	switch m := rr.msg.(type) {
	case *wire.Query:
		return c.runQuery(m, rr.dur)
	case *wire.Set:
		return c.applySetting(m)
	case *wire.Ping:
		return c.writeMsg(&wire.Pong{}) == nil
	case *wire.Stats:
		var sb strings.Builder
		if err := c.srv.db.Metrics().WritePrometheus(&sb); err != nil {
			return c.writeMsg(&wire.Error{Code: wire.CodeInternal, Message: err.Error()}) == nil
		}
		return c.writeMsg(&wire.StatsText{Text: sb.String()}) == nil
	case *wire.Introspect:
		return c.introspect(m)
	case *wire.Subscribe:
		return c.runSubscribe(m)
	case *wire.Cancel:
		// Nothing in flight; a late Cancel for a query that already
		// finished is legal and ignored.
		return true
	case *wire.Close:
		return false
	default:
		c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("unexpected %T", rr.msg)})
		return false
	}
}

// introspect answers an Introspect request with the process list or slowlog
// as JSON.
func (c *conn) introspect(m *wire.Introspect) bool {
	var v any
	switch m.What {
	case wire.IntrospectProcessList:
		v = c.srv.ProcessList()
	case wire.IntrospectSlowLog:
		v = c.srv.SlowLog().Entries()
	default:
		return c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("unknown introspection target %q", m.What)}) == nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return c.writeMsg(&wire.Error{Code: wire.CodeInternal, Message: err.Error()}) == nil
	}
	return c.writeMsg(&wire.IntrospectResult{What: m.What, JSON: string(b)}) == nil
}

// runSubscribe streams a materialized view's deltas until the client cancels
// (Cancel ends the stream with Done; the connection survives), the client
// closes, or the subscription is cut server-side. The resume contract: the
// client presents the Seq of the last delta it consumed, and the reply is
// Subscribed{Seq, Snapshot} followed by the missed deltas (Snapshot=false) or
// a full state image as GroupCreated deltas (Snapshot=true, token predates
// ring retention — the client discards local state first). Live deltas follow
// in Seq order. A consumer that falls behind the manager's buffer is cut with
// a typed error; it re-subscribes with its token and resumes by ring replay.
func (c *conn) runSubscribe(m *wire.Subscribe) bool {
	mgr := c.srv.cfg.Streams
	if mgr == nil {
		return c.writeMsg(&wire.Error{Code: wire.CodeQuery,
			Message: "subscriptions are not enabled on this server"}) == nil
	}
	at, err := mgr.Subscribe(m.View, m.Token, 0)
	if err != nil {
		return c.writeMsg(&wire.Error{Code: wire.CodeQuery, Message: err.Error()}) == nil
	}
	defer at.Sub.Close()

	reg := c.srv.db.Metrics()
	reg.Counter("server_subscribes_total").Inc()
	if err := c.writeMsg(&wire.Subscribed{Seq: at.Seq, Snapshot: at.Snapshot}); err != nil {
		return false
	}
	for _, d := range at.Backlog {
		if c.writeDelta(d) != nil {
			return false
		}
	}
	for {
		select {
		case <-c.ctx.Done():
			return false
		case <-c.drain:
			c.writeMsg(&wire.Error{Code: wire.CodeShuttingDown, Message: "server is shutting down"})
			return false
		case d, ok := <-at.Sub.C:
			if !ok {
				// Lagged past the buffer, view dropped, or view broken. The
				// client re-subscribes with its last consumed Seq.
				c.writeMsg(&wire.Error{Code: wire.CodeQuery,
					Message: "subscription interrupted (lagged or view dropped); resubscribe to resume"})
				return true
			}
			if c.writeDelta(d) != nil {
				return false
			}
		case rr := <-c.in:
			if rr.err != nil {
				return false
			}
			switch rr.msg.(type) {
			case *wire.Cancel:
				return c.writeMsg(&wire.Done{}) == nil
			case *wire.Ping:
				if c.writeMsg(&wire.Pong{}) != nil {
					return false
				}
			case *wire.Close:
				return false
			default:
				c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
					Message: fmt.Sprintf("unexpected %T during subscription", rr.msg)})
				return false
			}
		}
	}
}

// writeDelta maps a stream delta onto its wire frame.
func (c *conn) writeDelta(d stream.Delta) error {
	return c.writeMsg(&wire.Delta{
		View:    d.View,
		Seq:     d.Seq,
		Kind:    uint8(d.Kind),
		Group:   d.Group,
		Members: d.Members,
		Merged:  d.Merged,
	})
}

// statementPanicError marks a statement whose executor goroutine panicked.
// The panic is contained to the statement: the session, the connection, and
// the daemon all keep serving, and the stack lands in the slowlog trace.
type statementPanicError struct {
	val any
}

func (e *statementPanicError) Error() string {
	return fmt.Sprintf("internal error: statement panicked: %v (stack captured to slowlog trace)", e.val)
}

// admit acquires an execution slot when the server caps concurrent
// statements, waiting in the bounded admission queue and shedding beyond it.
// It returns a release func (nil-safe semantics are the caller's: release is
// non-nil iff ok and a slot was taken), ok=false when the statement must not
// run (shed, canceled, or connection-fatal), and fatal=true when the
// connection itself must close.
func (c *conn) admit(tr *obs.Trace, qcancel context.CancelFunc) (release func(), ok, fatal bool) {
	if c.srv.slots == nil {
		return func() {}, true, false
	}
	// Fast path: a slot is free.
	select {
	case c.srv.slots <- struct{}{}:
		return func() { <-c.srv.slots }, true, false
	default:
	}
	m := c.srv.db.Metrics()
	if int(c.srv.queued.Add(1)) > c.srv.cfg.AdmissionQueue {
		// Queue full: shed now rather than queue without bound.
		c.srv.queued.Add(-1)
		m.Counter("server_queries_shed_total").Inc()
		err := c.writeMsg(&wire.Error{
			Code:         wire.CodeOverloaded,
			Message:      "server overloaded: admission queue full; retry later",
			RetryAfterMS: uint32(shedRetryAfter / time.Millisecond),
		})
		return nil, false, err != nil
	}
	tr.SetState("queued")
	queuedGauge := m.Gauge("server_admission_queued")
	queuedGauge.Add(1)
	defer func() {
		queuedGauge.Add(-1)
		c.srv.queued.Add(-1)
	}()
	for {
		select {
		case c.srv.slots <- struct{}{}:
			return func() { <-c.srv.slots }, true, false
		case <-c.ctx.Done():
			return nil, false, true
		case <-c.drain:
			c.writeMsg(&wire.Error{Code: wire.CodeShuttingDown, Message: "server is shutting down"})
			return nil, false, true
		case rr := <-c.in:
			if rr.err != nil {
				return nil, false, true
			}
			switch rr.msg.(type) {
			case *wire.Cancel:
				qcancel()
				err := c.writeMsg(&wire.Error{Code: wire.CodeCanceled, Message: "query canceled while queued"})
				return nil, false, err != nil
			case *wire.Ping:
				if c.writeMsg(&wire.Pong{}) != nil {
					return nil, false, true
				}
			case *wire.Close:
				return nil, false, true
			default:
				c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
					Message: fmt.Sprintf("unexpected %T while queued", rr.msg)})
				return nil, false, true
			}
		}
	}
}

// runQuery executes one statement on the session while concurrently watching
// the wire for Cancel. It reports false when the connection must close.
//
// This is where the end-to-end trace assembles: the client's propagated trace
// ID (or a server-minted one for an untraced query) heads a trace that
// accumulates the frame's wire_decode span, the engine's parse/plan/execute
// spans, the WAL's wal_append/wal_fsync spans from the commit hook, and
// finally the row-streaming span — then lands in the slowlog.
func (c *conn) runQuery(q *wire.Query, decodeDur time.Duration) bool {
	qctx, qcancel := context.WithCancel(c.ctx)
	defer qcancel()

	m := c.srv.db.Metrics()
	active := m.Gauge("server_sessions_active")
	active.Add(1)
	defer active.Add(-1)

	id := q.TraceID
	if id == "" {
		id = obs.NewTraceID()
	}
	tr := obs.NewTraceWithID(id)
	start := time.Now()
	tr.AddSpan("wire_decode", start.Add(-decodeDur), decodeDur)
	m.Histogram("server_wire_decode_seconds", obs.DefBuckets).Observe(decodeDur.Seconds())
	tr.SetState("parsing")

	entry := &procEntry{tr: tr, client: c.nc.RemoteAddr().String(), sql: q.SQL, start: start}
	c.srv.trackQuery(entry)
	defer c.srv.untrackQuery(entry)

	// Statement admission: when the server caps concurrency, wait for an
	// execution slot (visible as state "queued" in the process list) or shed.
	release, admitted, fatal := c.admit(tr, qcancel)
	if !admitted {
		tr.SetState("done")
		c.srv.recordFinished(entry, c.settingsString(), time.Since(start), 0,
			errors.New("statement not admitted (shed or canceled while queued)"))
		return !fatal
	}
	defer release()
	tr.SetState("parsing")

	type execResult struct {
		res *engine.Result
		err error
	}
	resCh := make(chan execResult, 1)
	go func() {
		// Panic isolation: a panicking statement becomes a typed error on this
		// connection with the stack preserved in the slowlog trace, while the
		// daemon and every other session keep serving.
		defer func() {
			if p := recover(); p != nil {
				m.Counter("server_panics_recovered_total").Inc()
				tr.Annotate("panic: %v", p)
				tr.Annotate("stack: %s", debug.Stack())
				resCh <- execResult{nil, &statementPanicError{val: p}}
			}
		}()
		res, err := c.sess.ExecContextTrace(qctx, q.SQL, tr)
		resCh <- execResult{res, err}
	}()

	// finish streams the outcome and records the statement in the latency
	// histograms and, past the threshold, the slowlog. The terminal frame
	// (Done or Error) acknowledges the statement: a client holding the trace
	// ID may ask for its slowlog entry the moment that frame arrives, so the
	// entry is recorded first and the acknowledgement sent last.
	finish := func(res *engine.Result, execErr error, connFatal bool) bool {
		execDur := time.Since(start)
		m.Histogram("server_wire_execute_seconds", obs.DefBuckets).Observe(execDur.Seconds())
		var terminal wire.Message
		var werr error
		var rows int64
		if execErr != nil {
			terminal = c.queryError(execErr)
		} else {
			rows = int64(len(res.Rows))
			terminal = &wire.Done{RowsAffected: int64(res.RowsAffected), RowCount: rows}
			if !connFatal {
				tr.SetState("streaming")
				span := tr.StartSpan("stream")
				werr = c.streamRows(res)
				span.End()
				m.Histogram("server_wire_stream_seconds", obs.DefBuckets).
					Observe(span.Duration().Seconds())
			}
		}
		tr.SetState("done")
		c.srv.recordFinished(entry, c.settingsString(), time.Since(start), rows, execErr)
		return !connFatal && werr == nil && c.writeMsg(terminal) == nil
	}

	connFatal := false
	for {
		select {
		case r := <-resCh:
			return finish(r.res, r.err, connFatal)
		case <-c.ctx.Done():
			// Force shutdown: the query context is already canceled; wait
			// for the executor goroutine, then drop the connection.
			<-resCh
			return false
		case rr := <-c.in:
			if rr.err != nil {
				// Client went away mid-query: abort the statement, reap the
				// executor goroutine, close.
				qcancel()
				<-resCh
				return false
			}
			switch rr.msg.(type) {
			case *wire.Cancel:
				qcancel()
			case *wire.Ping:
				if c.writeMsg(&wire.Pong{}) != nil {
					qcancel()
					connFatal = true
				}
			case *wire.Close:
				qcancel()
				<-resCh
				return false
			default:
				qcancel()
				<-resCh
				c.writeMsg(&wire.Error{Code: wire.CodeProtocol,
					Message: fmt.Sprintf("unexpected %T during query", rr.msg)})
				return false
			}
		}
	}
}

// rowBatchRows is the row count of every RowBatch frame but a statement's
// last.
const rowBatchRows = 1024

// streamRows sends a completed statement's rows: RowHeader (when the
// statement produces columns), then RowBatch frames of rowBatchRows rows. The
// caller sends Done.
func (c *conn) streamRows(res *engine.Result) error {
	if len(res.Columns) == 0 {
		return nil
	}
	if err := c.writeMsg(&wire.RowHeader{Columns: res.Columns}); err != nil {
		return err
	}
	for off := 0; off < len(res.Rows); off += rowBatchRows {
		end := min(off+rowBatchRows, len(res.Rows))
		if err := c.writeMsg(&wire.RowBatch{Rows: res.Rows[off:end]}); err != nil {
			return err
		}
	}
	return nil
}

// queryError maps an engine failure onto a typed wire error. The connection
// survives query errors; only write failures are fatal.
func (c *conn) queryError(err error) *wire.Error {
	code := wire.CodeQuery
	var retryMS uint32
	var rle *engine.ResourceLimitError
	var pe *statementPanicError
	switch {
	case errors.Is(err, ErrDegraded):
		// Disk fault: the store is read-only until the probe promotes it back.
		code = wire.CodeReadOnly
		if st := c.srv.cfg.Store; st != nil {
			retryMS = uint32(st.RetryAfter() / time.Millisecond)
		}
	case errors.As(err, &pe):
		code = wire.CodeInternal
	case errors.As(err, &rle):
		if rle.Global() {
			// Global memory pressure, not this query's fault: retryable.
			code = wire.CodeOverloaded
			retryMS = uint32(shedRetryAfter / time.Millisecond)
		} else {
			code = wire.CodeResourceLimit
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeCanceled
	}
	return &wire.Error{Code: code, Message: err.Error(), RetryAfterMS: retryMS}
}

// applySetting maps a Set frame onto the connection's engine session.
func (c *conn) applySetting(m *wire.Set) bool {
	fail := func(format string, args ...any) bool {
		return c.writeMsg(&wire.Error{Code: wire.CodeUnknownSetting,
			Message: fmt.Sprintf(format, args...)}) == nil
	}
	switch m.Name {
	case "sgb_algorithm":
		if m.Value == "auto" {
			c.sess.SetSGBAlgorithmAuto()
			break
		}
		alg, ok := parseAlgorithm(m.Value)
		if !ok {
			return fail("unknown SGB algorithm %q (want auto|allpairs|bounds|index)", m.Value)
		}
		c.sess.SetSGBAlgorithm(alg)
	case "max_rows":
		n, err := strconv.ParseInt(m.Value, 10, 64)
		if err != nil || n < 0 {
			return fail("bad max_rows %q", m.Value)
		}
		lim := c.sess.Settings().Limits
		lim.MaxRowsMaterialized = n
		c.sess.SetLimits(lim)
	case "max_time":
		d, err := time.ParseDuration(m.Value)
		if (err != nil && m.Value != "0") || d < 0 {
			return fail("bad max_time %q (want a duration like 2s, or 0)", m.Value)
		}
		lim := c.sess.Settings().Limits
		lim.MaxExecutionTime = d
		c.sess.SetLimits(lim)
	default:
		return fail("unknown setting %q", m.Name)
	}
	return c.writeMsg(&wire.Done{}) == nil
}

// writeMsg sends one frame. Frame writes are serialized by the session loop
// (the only writer), so no extra locking is needed here.
func (c *conn) writeMsg(m wire.Message) error {
	return wire.WriteMessage(c.nc, m)
}

// settingsString summarizes the session knobs that shaped a statement's plan,
// recorded alongside the statement in the slowlog.
func (c *conn) settingsString() string {
	st := c.sess.Settings()
	name := algName(st.SGBAlgorithm)
	if st.SGBAuto {
		name = "auto"
	}
	return "algorithm=" + name
}

// algName is the inverse of parseAlgorithm.
func algName(a core.Algorithm) string {
	switch a {
	case core.AllPairs:
		return "allpairs"
	case core.BoundsChecking:
		return "bounds"
	case core.IndexBounds:
		return "index"
	}
	return fmt.Sprintf("alg(%d)", a)
}

// parseAlgorithm maps the wire spelling onto the core enum.
func parseAlgorithm(s string) (core.Algorithm, bool) {
	switch s {
	case "allpairs":
		return core.AllPairs, true
	case "bounds":
		return core.BoundsChecking, true
	case "index":
		return core.IndexBounds, true
	}
	return 0, false
}

// countingConn counts every socket byte into the server traffic metrics.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
