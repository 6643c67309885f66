// Package server is sgbd's serving layer: a TCP listener speaking the
// internal/wire protocol, with one session goroutine per connection layered
// over a shared engine.DB.
//
// Each connection gets its own engine.Session, so the execution knobs a
// client adjusts over the wire (SGB algorithm, batch size, resource limits)
// are scoped to that connection and resolved at plan time — two clients can
// never race each other's settings. Statements execute under
// a per-query context wired into engine.ExecContext, so a wire Cancel frame
// aborts an in-flight query promptly while the connection stays usable.
//
// The server enforces a connection limit and an idle timeout, exports
// server_* metrics through the engine's obs registry, and drains gracefully:
// Shutdown stops accepting, lets in-flight statements finish (bounded by the
// caller's context), then force-closes whatever remains.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
	"sgb/internal/stream"
	"sgb/internal/wire"
)

// Config tunes a Server. The zero value listens on a random localhost port
// with no connection limit and no idle timeout.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// MaxConns caps concurrently open connections; 0 means unlimited.
	// Connections over the limit are rejected with CodeTooManyConnections.
	MaxConns int
	// IdleTimeout closes connections with no client activity between
	// statements; 0 disables. The timer never fires mid-query.
	IdleTimeout time.Duration
	// ServerName is the identification string in the Welcome handshake.
	// Empty means "sgbd".
	ServerName string
	// SlowQueryThreshold selects which finished statements enter the
	// slow-query log: those at least this slow. 0 logs every statement;
	// negative disables the slowlog entirely.
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring buffer capacity; 0 means 128.
	SlowLogSize int
	// Streams, when non-nil, serves SUBSCRIBE: it is the stream manager
	// maintaining the materialized similarity-group views (wired to the same
	// DB via the store observer or AttachEngine). Subscribe frames are
	// rejected when nil.
	Streams *stream.Manager
	// Store, when non-nil, is the durable store the server fronts. The
	// serving layer uses it to map degraded-state write rejections to
	// CodeReadOnly with the probe interval as the retry-after hint.
	Store *Store
	// MaxActiveQueries caps statements executing concurrently across all
	// connections; 0 = unlimited. Excess statements wait in a bounded
	// admission queue and are shed with CodeOverloaded beyond it.
	MaxActiveQueries int
	// AdmissionQueue bounds how many statements may wait for an execution
	// slot when MaxActiveQueries is reached; 0 = 64. Statements beyond the
	// bound are refused immediately with CodeOverloaded and a retry-after
	// hint — shedding early beats queueing without bound.
	AdmissionQueue int
}

// defaultAdmissionQueue is the statement wait-queue bound when Config leaves
// AdmissionQueue 0 (and MaxActiveQueries is set).
const defaultAdmissionQueue = 64

// shedRetryAfter is the retry-after hint attached to CodeOverloaded sheds: a
// beat longer than a typical queued statement takes to drain.
const shedRetryAfter = 250 * time.Millisecond

// defaultSlowLogSize is the slow-query ring capacity when Config leaves it 0.
const defaultSlowLogSize = 128

// Server is a running sgbd listener. Create with New, start with Start.
type Server struct {
	cfg Config
	db  *engine.DB
	ln  net.Listener

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool

	// procMu guards the process list of in-flight queries; slowlog is the
	// finished-query ring buffer (internally synchronized).
	procMu  sync.Mutex
	procs   map[*procEntry]struct{}
	slowlog *obs.SlowLog

	// slots is the statement-admission semaphore (nil = unlimited); queued
	// counts statements waiting for a slot against cfg.AdmissionQueue.
	slots  chan struct{}
	queued atomic.Int64

	wg sync.WaitGroup // accept loop + one goroutine per connection
}

// New prepares a server over db. The db's metrics registry gains the
// server_* series.
func New(db *engine.DB, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.ServerName == "" {
		cfg.ServerName = "sgbd"
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = defaultSlowLogSize
	}
	if cfg.AdmissionQueue <= 0 {
		cfg.AdmissionQueue = defaultAdmissionQueue
	}
	s := &Server{
		cfg:     cfg,
		db:      db,
		conns:   make(map[*conn]struct{}),
		procs:   make(map[*procEntry]struct{}),
		slowlog: obs.NewSlowLog(cfg.SlowLogSize),
	}
	if cfg.MaxActiveQueries > 0 {
		s.slots = make(chan struct{}, cfg.MaxActiveQueries)
	}
	return s
}

// DB returns the shared database the server serves.
func (s *Server) DB() *engine.DB { return s.db }

// Start binds the listen address and begins accepting connections in a
// background goroutine. It returns once the listener is bound, so Addr is
// valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	// Pre-register the server metric series so a scrape before the first
	// connection still sees them at zero.
	m := s.db.Metrics()
	m.Gauge("server_connections_open")
	m.Counter("server_connections_total")
	m.Gauge("server_sessions_active")
	m.Counter("server_bytes_in_total")
	m.Counter("server_bytes_out_total")
	m.Counter("server_slow_queries_total")
	m.Histogram("server_wire_decode_seconds", obs.DefBuckets)
	m.Histogram("server_wire_execute_seconds", obs.DefBuckets)
	m.Histogram("server_wire_stream_seconds", obs.DefBuckets)
	m.Gauge("server_degraded")
	m.Gauge("server_admission_queued")
	m.Counter("server_queries_shed_total")
	m.Counter("server_panics_recovered_total")

	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed: shutdown.
			return
		}
		s.admit(nc)
	}
}

// admit applies the drain state and connection limit, then hands the
// connection to its session goroutine.
func (s *Server) admit(nc net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		rejectConn(nc, wire.CodeShuttingDown, "server is shutting down")
		return
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.db.Metrics().Counter("server_connections_rejected_total").Inc()
		rejectConn(nc, wire.CodeTooManyConnections,
			fmt.Sprintf("connection limit (%d) reached", s.cfg.MaxConns))
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.mu.Unlock()

	m := s.db.Metrics()
	m.Counter("server_connections_total").Inc()
	m.Gauge("server_connections_open").Add(1)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		c.serve()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		m.Gauge("server_connections_open").Add(-1)
	}()
}

// rejectConn sends a terminal error frame on a connection that never gets a
// session, then closes it. Best effort with a short deadline: a stalled peer
// must not wedge the accept loop's goroutine.
func rejectConn(nc net.Conn, code uint16, msg string) {
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = wire.WriteMessage(nc, &wire.Error{Code: code, Message: msg})
	nc.Close()
}

// Shutdown drains the server: it stops accepting, closes idle connections,
// and lets in-flight statements finish. When ctx expires first, remaining
// statements are canceled and their connections force-closed. Shutdown
// returns once every session goroutine has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Grace period over: abort in-flight queries and close the sockets.
	for _, c := range conns {
		c.forceClose()
	}
	<-done
	return ctx.Err()
}
