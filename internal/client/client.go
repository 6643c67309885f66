// Package client is the Go client for sgbd's wire protocol. It exposes the
// same Result shape as the embedded engine API, so code written against
// engine.DB ports to a remote server by swapping the handle:
//
//	conn, err := client.Connect("127.0.0.1:7433")
//	res, err := conn.Query(ctx, "SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.5")
//
// Query materializes; Stream returns a Rows iterator that yields batches as
// they arrive. Canceling the context mid-query sends a wire Cancel frame:
// the server aborts the statement promptly and the connection stays usable
// for the next query.
//
// A Conn runs one query at a time (calls serialize on an internal mutex);
// open several connections for concurrent statements.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/wire"
)

// ServerError is a typed failure reported by the server. Use the wire.Code*
// constants to classify it.
type ServerError = wire.Error

// ErrConnClosed reports an operation on a connection that was closed locally
// (Close was called). It is a transport-level condition, distinct from query
// errors (*ServerError) — callers can retry it on a fresh connection.
var ErrConnClosed = errors.New("client: connection closed")

// Options tunes ConnectContext. The zero value means a single attempt.
type Options struct {
	// MaxRetries is how many additional connection attempts follow a failed
	// dial or handshake (so MaxRetries = 2 means up to 3 attempts). Retries
	// apply to transport failures and to the server's transient rejections
	// (CodeTooManyConnections, CodeShuttingDown); protocol-level failures
	// such as a version mismatch fail immediately.
	MaxRetries int
	// BaseDelay is the first retry's backoff; it doubles per attempt with
	// jitter. 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 means 2s.
	MaxDelay time.Duration
}

// Conn is one client connection to an sgbd server.
type Conn struct {
	nc net.Conn

	// wmu serializes frame writes: Cancel is sent from the canceling
	// goroutine while the querying goroutine owns the conversation.
	wmu sync.Mutex
	// qmu serializes conversations (query/set/ping); one at a time per conn.
	qmu sync.Mutex

	// closed is set under qmu+wmu by Close.
	closed bool

	server string // server identification from the Welcome handshake

	// idMu guards lastTraceID, readable from any goroutine while the
	// querying goroutine advances it.
	idMu        sync.Mutex
	lastTraceID string
}

// Connect dials addr and performs the protocol handshake.
func Connect(addr string) (*Conn, error) {
	return ConnectContext(context.Background(), addr)
}

// ConnectContext is Connect bounded by ctx (dial and handshake). An optional
// Options enables retry with exponential backoff and jitter on dial or
// handshake failure.
func ConnectContext(ctx context.Context, addr string, opts ...Options) (*Conn, error) {
	o := withDefaults(opts)
	var err error
	for attempt := 0; ; attempt++ {
		var c *Conn
		c, err = dial(ctx, addr)
		if err == nil {
			return c, nil
		}
		if attempt >= o.MaxRetries || ctx.Err() != nil || !retryable(err) {
			return nil, err
		}
		select {
		case <-time.After(backoffDelay(err, attempt, o)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// withDefaults returns the optional Options argument with its zero delays
// replaced by the documented defaults.
func withDefaults(opts []Options) Options {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	return o
}

// retryable classifies a connect failure: transport errors and the server's
// transient rejections are worth another attempt; protocol-level refusals
// (version mismatch, bad handshake) will fail the same way every time.
// CodeReadOnly (degraded store pending disk recovery) and CodeOverloaded
// (admission queue full) are transient by design — the server attaches a
// retry-after hint that backoffDelay honors.
func retryable(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		switch se.Code {
		case wire.CodeTooManyConnections, wire.CodeShuttingDown,
			wire.CodeReadOnly, wire.CodeOverloaded:
			return true
		}
		return false
	}
	return true
}

// backoffDelay computes the next retry sleep. When the server attached a
// retry-after hint, the hint wins — plus up to 25% jitter so a herd of
// hinted clients still spreads out. Otherwise: exponential backoff with
// jitter, half the window fixed and half random.
func backoffDelay(err error, attempt int, o Options) time.Duration {
	var se *ServerError
	if errors.As(err, &se) && se.RetryAfterMS != 0 {
		hint := se.RetryAfter()
		return hint + rand.N(hint/4+1)
	}
	delay := o.BaseDelay << attempt
	if delay > o.MaxDelay || delay <= 0 {
		delay = o.MaxDelay
	}
	return delay/2 + rand.N(delay/2+1)
}

// dial performs one connection attempt offering wire.MaxVersion, the only
// version either side speaks. Every failure path closes the socket — the
// deferred cleanup is the single place that decides, so no early return can
// leak the net.Conn.
func dial(ctx context.Context, addr string) (c *Conn, err error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			nc.Close()
		}
	}()
	if deadline, ok := ctx.Deadline(); ok {
		nc.SetDeadline(deadline)
	} else {
		nc.SetDeadline(time.Now().Add(10 * time.Second))
	}
	if err := wire.WriteMessage(nc, &wire.Hello{Version: wire.MaxVersion}); err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	msg, err := wire.ReadMessage(nc)
	if err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch m := msg.(type) {
	case *wire.Welcome:
		if m.Version != wire.MaxVersion {
			// Reported as the typed refusal a server sends for a foreign Hello,
			// so retryable treats a mismatch detected on either side alike.
			return nil, &ServerError{Code: wire.CodeVersionMismatch,
				Message: fmt.Sprintf("server welcomed protocol %d, client speaks %d", m.Version, wire.MaxVersion)}
		}
		nc.SetDeadline(time.Time{})
		return &Conn{nc: nc, server: m.Server}, nil
	case *wire.Error:
		return nil, m
	default:
		return nil, fmt.Errorf("client: handshake: unexpected %T", msg)
	}
}

// Server reports the server identification string from the handshake.
func (c *Conn) Server() string { return c.server }

// LastTraceID reports the trace ID the client attached to its most recent
// query, empty before the first query. Safe to call from any goroutine.
func (c *Conn) LastTraceID() string {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	return c.lastTraceID
}

// Close sends a graceful goodbye and closes the socket.
func (c *Conn) Close() error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	_ = wire.WriteMessage(c.nc, &wire.Close{})
	return c.nc.Close()
}

// closeSocket force-closes the transport without taking the conversation
// lock — the way a subscription watcher unblocks a reader waiting in a socket
// read. The conn is unusable afterwards.
func (c *Conn) closeSocket() error { return c.nc.Close() }

// writeMsg sends one frame under the write lock.
func (c *Conn) writeMsg(m wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	return wire.WriteMessage(c.nc, m)
}

// Cancel asks the server to abort the connection's in-flight query, if any.
// It is safe to call from any goroutine — a REPL's Ctrl-C handler, a
// context watcher — while another goroutine is reading the query's rows.
func (c *Conn) Cancel() error {
	return c.writeMsg(&wire.Cancel{})
}

// Query executes one statement and materializes the full result — the same
// Result shape the embedded engine.DB.ExecContext returns. Canceling ctx
// mid-query sends a wire Cancel and returns ctx.Err().
func (c *Conn) Query(ctx context.Context, sql string) (*engine.Result, error) {
	rows, err := c.Stream(ctx, sql)
	if err != nil {
		return nil, err
	}
	res := &engine.Result{Columns: rows.Columns()}
	for {
		batch, err := rows.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, batch...)
	}
	res.RowsAffected = int(rows.RowsAffected())
	return res, nil
}

// Exec is Query without a context, mirroring engine.DB.Exec.
func (c *Conn) Exec(sql string) (*engine.Result, error) {
	return c.Query(context.Background(), sql)
}

// Rows is a streamed query result. It must be drained (NextBatch to io.EOF)
// or Close()d before the connection can run another statement.
type Rows struct {
	c        *Conn
	ctx      context.Context
	traceID  string
	cols     []string
	done     bool
	affected int64
	rowCount int64
	// stopWatch releases the context watcher goroutine; cancelMu/finished
	// fence the watcher's Cancel against query completion, so a Cancel frame
	// can never land after a subsequent Query frame.
	stopWatch chan struct{}
	watchOnce sync.Once
	cancelMu  sync.Mutex
	finished  bool
}

// Stream executes one statement and returns an iterator over its row
// batches. The first response frame (RowHeader, Done, or Error) is consumed
// before Stream returns, so column names are immediately available.
func (c *Conn) Stream(ctx context.Context, sql string) (*Rows, error) {
	c.qmu.Lock()
	// The client mints the query's trace ID so the end-to-end trace starts at
	// the caller, and the server's slowlog entry can be looked up by an ID the
	// client already holds.
	traceID := obs.NewTraceID()
	c.idMu.Lock()
	c.lastTraceID = traceID
	c.idMu.Unlock()
	// The lock is held until the Rows is fully drained or closed; Rows.finish
	// releases it.
	if err := c.writeMsg(&wire.Query{SQL: sql, TraceID: traceID}); err != nil {
		c.qmu.Unlock()
		return nil, err
	}
	r := &Rows{c: c, ctx: ctx, traceID: traceID, stopWatch: make(chan struct{})}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// Best effort: the server replies with CodeCanceled, which
				// the reading goroutine maps back to ctx.Err(). The fence
				// skips the send once the query has already completed.
				r.cancelMu.Lock()
				if !r.finished {
					c.Cancel()
				}
				r.cancelMu.Unlock()
			case <-r.stopWatch:
			}
		}()
	}

	msg, err := r.read()
	if err != nil {
		r.finish()
		return nil, err
	}
	switch m := msg.(type) {
	case *wire.RowHeader:
		r.cols = m.Columns
		return r, nil
	case *wire.Done:
		// Columnless statement (DDL/DML): the result is complete.
		r.affected, r.rowCount = m.RowsAffected, m.RowCount
		r.finish()
		return r, nil
	default:
		r.finish()
		return nil, fmt.Errorf("client: unexpected %T starting result", msg)
	}
}

// read receives the next frame, mapping server-reported failures (and local
// context cancellation) to errors.
func (r *Rows) read() (wire.Message, error) {
	msg, err := wire.ReadMessage(r.c.nc)
	if err != nil {
		// The socket is broken; no further queries can run on this conn.
		return nil, err
	}
	if e, ok := msg.(*wire.Error); ok {
		if e.Code == wire.CodeCanceled && r.ctx.Err() != nil {
			return nil, r.ctx.Err()
		}
		return nil, e
	}
	return msg, nil
}

// TraceID reports the trace ID attached to this query. Present the ID to
// \slowlog or /debug/slowlog to retrieve the server-side trace.
func (r *Rows) TraceID() string { return r.traceID }

// Columns names the result columns (empty for DDL/DML).
func (r *Rows) Columns() []string { return r.cols }

// RowsAffected reports the DML row count; valid once the stream is drained.
func (r *Rows) RowsAffected() int64 { return r.affected }

// RowCount reports the server-side total row count; valid once drained.
func (r *Rows) RowCount() int64 { return r.rowCount }

// NextBatch returns the next batch of rows, or io.EOF when the result is
// complete. Any other error means the statement failed (typed *ServerError,
// or the context error after a cancellation).
func (r *Rows) NextBatch() ([]engine.Row, error) {
	if r.done {
		return nil, io.EOF
	}
	msg, err := r.read()
	if err != nil {
		r.finish()
		return nil, err
	}
	switch m := msg.(type) {
	case *wire.RowBatch:
		return m.Rows, nil
	case *wire.Done:
		r.affected, r.rowCount = m.RowsAffected, m.RowCount
		r.finish()
		return nil, io.EOF
	default:
		r.finish()
		return nil, fmt.Errorf("client: unexpected %T mid-result", msg)
	}
}

// Close drains and discards the remainder of the stream so the connection
// can run the next statement.
func (r *Rows) Close() error {
	for !r.done {
		if _, err := r.NextBatch(); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
	}
	return nil
}

// finish releases the per-query resources: the context watcher and the
// conversation lock.
func (r *Rows) finish() {
	if r.done {
		return
	}
	r.done = true
	r.cancelMu.Lock()
	r.finished = true
	r.cancelMu.Unlock()
	r.watchOnce.Do(func() { close(r.stopWatch) })
	r.c.qmu.Unlock()
}

// Set changes one session-scoped setting on the server. Names:
// sgb_algorithm (auto|allpairs|bounds|index), max_rows, max_time (Go duration,
// "0" clears).
func (c *Conn) Set(name, value string) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if err := c.writeMsg(&wire.Set{Name: name, Value: value}); err != nil {
		return err
	}
	return c.expectDone()
}

// Ping round-trips a liveness probe.
func (c *Conn) Ping(ctx context.Context) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if deadline, ok := ctx.Deadline(); ok {
		c.nc.SetReadDeadline(deadline)
		defer c.nc.SetReadDeadline(time.Time{})
	}
	if err := c.writeMsg(&wire.Ping{}); err != nil {
		return err
	}
	msg, err := wire.ReadMessage(c.nc)
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *wire.Pong:
		return nil
	case *wire.Error:
		return m
	default:
		return fmt.Errorf("client: unexpected %T to Ping", msg)
	}
}

// Stats fetches the server's metrics registry in Prometheus text format.
func (c *Conn) Stats() (string, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if err := c.writeMsg(&wire.Stats{}); err != nil {
		return "", err
	}
	msg, err := wire.ReadMessage(c.nc)
	if err != nil {
		return "", err
	}
	switch m := msg.(type) {
	case *wire.StatsText:
		return m.Text, nil
	case *wire.Error:
		return "", m
	default:
		return "", fmt.Errorf("client: unexpected %T to Stats", msg)
	}
}

// ProcessList fetches the server's in-flight queries (oldest first) — the
// wire form of \processlist.
func (c *Conn) ProcessList(ctx context.Context) ([]obs.QueryInfo, error) {
	var out []obs.QueryInfo
	if err := c.introspect(ctx, wire.IntrospectProcessList, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SlowLog fetches the server's slow-query ring buffer, newest first — the
// wire form of \slowlog.
func (c *Conn) SlowLog(ctx context.Context) ([]obs.SlowQuery, error) {
	var out []obs.SlowQuery
	if err := c.introspect(ctx, wire.IntrospectSlowLog, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// introspect round-trips one Introspect request and unmarshals the JSON
// payload into v.
func (c *Conn) introspect(ctx context.Context, what string, v any) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if deadline, ok := ctx.Deadline(); ok {
		c.nc.SetReadDeadline(deadline)
		defer c.nc.SetReadDeadline(time.Time{})
	}
	if err := c.writeMsg(&wire.Introspect{What: what}); err != nil {
		return err
	}
	msg, err := wire.ReadMessage(c.nc)
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *wire.IntrospectResult:
		return json.Unmarshal([]byte(m.JSON), v)
	case *wire.Error:
		return m
	default:
		return fmt.Errorf("client: unexpected %T to Introspect", msg)
	}
}

// expectDone reads the acknowledgement for a settings change.
func (c *Conn) expectDone() error {
	msg, err := wire.ReadMessage(c.nc)
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *wire.Done:
		return nil
	case *wire.Error:
		return m
	default:
		return fmt.Errorf("client: unexpected %T to Set", msg)
	}
}

// IsCanceled reports whether err is a cancellation: either the local context
// error or the server's typed canceled code.
func IsCanceled(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var se *ServerError
	return errors.As(err, &se) && se.Code == wire.CodeCanceled
}
