package client_test

// In-process protocol tests against a scripted server: a counting listener
// accepts real TCP connections and misbehaves on purpose (garbage frames,
// wrong message types, typed rejections, immediate hangups) so the tests can
// assert two properties the integration suite cannot: every failed connect
// closes its socket (no leaks), and the retry policy distinguishes transient
// rejections from permanent protocol failures.

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/wire"
)

// scriptServer is a counting net.Listener wrapper: every accepted connection
// is numbered and handed to the scripted handler on its own goroutine.
type scriptServer struct {
	ln       net.Listener
	accepted atomic.Int64
	wg       sync.WaitGroup
}

func newScriptServer(t *testing.T, handler func(n int64, nc net.Conn)) *scriptServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			n := s.accepted.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer nc.Close()
				handler(n, nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *scriptServer) addr() string { return s.ln.Addr().String() }

// expectPeerClose reads until the client's side of nc closes. A read deadline
// expiring instead means the client leaked the socket.
func expectPeerClose(t *testing.T, nc net.Conn, context string) {
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	for {
		if _, err := nc.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: client never closed its connection (leak)", context)
			}
			return
		}
	}
}

// readHello consumes the client's handshake frame.
func readHello(t *testing.T, nc net.Conn) bool {
	msg, err := wire.ReadMessage(nc)
	if err != nil {
		t.Errorf("script server: reading Hello: %v", err)
		return false
	}
	if _, ok := msg.(*wire.Hello); !ok {
		t.Errorf("script server: expected Hello, got %T", msg)
		return false
	}
	return true
}

// TestConnectFailureClosesSocket drives ConnectContext through every
// handshake failure path — garbage reply, wrong message type, typed server
// rejection — and asserts the client closed its socket each time. The server
// side observes the close directly, so a leaked net.Conn fails the test
// rather than lingering until process exit.
func TestConnectFailureClosesSocket(t *testing.T) {
	scenarios := []struct {
		name string
		// accepts is how many connections the failure consumes.
		accepts int64
		respond func(t *testing.T, nc net.Conn)
	}{
		{"garbage reply", 1, func(t *testing.T, nc net.Conn) {
			if !readHello(t, nc) {
				return
			}
			nc.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
		}},
		{"wrong message type", 1, func(t *testing.T, nc net.Conn) {
			if !readHello(t, nc) {
				return
			}
			wire.WriteMessage(nc, &wire.Pong{})
		}},
		{"typed rejection", 1, func(t *testing.T, nc net.Conn) {
			if !readHello(t, nc) {
				return
			}
			wire.WriteMessage(nc, &wire.Error{Code: wire.CodeVersionMismatch, Message: "speak v999"})
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			closed := make(chan struct{}, 8)
			srv := newScriptServer(t, func(_ int64, nc net.Conn) {
				sc.respond(t, nc)
				expectPeerClose(t, nc, sc.name)
				closed <- struct{}{}
			})
			if _, err := client.Connect(srv.addr()); err == nil {
				t.Fatal("connect succeeded against a misbehaving server")
			}
			for i := int64(0); i < sc.accepts; i++ {
				select {
				case <-closed:
				case <-time.After(10 * time.Second):
					t.Fatal("script server never observed the client close")
				}
			}
			if n := srv.accepted.Load(); n != sc.accepts {
				t.Fatalf("accepted %d connections, want %d", n, sc.accepts)
			}
		})
	}
}

// TestConnectRejectsOldWelcome scripts a server that welcomes the client at
// protocol 1. The client speaks only wire.MaxVersion, so Connect must fail
// with a typed version mismatch, close its socket, and not spend its retry
// budget redialing.
func TestConnectRejectsOldWelcome(t *testing.T) {
	closed := make(chan struct{}, 8)
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: 1, Server: "v1-script"})
		expectPeerClose(t, nc, "v1 welcome")
		closed <- struct{}{}
	})
	_, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 5,
		BaseDelay:  time.Millisecond,
	})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeVersionMismatch {
		t.Fatalf("err = %v, want CodeVersionMismatch ServerError", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("script server never observed the client close")
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Errorf("accepted %d connections, want 1 (no redial)", n)
	}
}

// TestConnectRetriesTransientRejection: the server answers the first two
// attempts with CodeTooManyConnections (a transient condition) and completes
// the handshake on the third. With retries enabled the client must end up
// connected, having closed both rejected sockets along the way.
func TestConnectRetriesTransientRejection(t *testing.T) {
	srv := newScriptServer(t, func(n int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		if n <= 2 {
			wire.WriteMessage(nc, &wire.Error{Code: wire.CodeTooManyConnections, Message: "at limit"})
			expectPeerClose(t, nc, "rejected attempt")
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: wire.MaxVersion, Server: "script"})
		expectPeerClose(t, nc, "accepted conn after Close")
	})
	c, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 5,
		BaseDelay:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("connect with retries: %v", err)
	}
	defer c.Close()
	if got := c.Server(); got != "script" {
		t.Errorf("Server() = %q, want %q", got, "script")
	}
	if n := srv.accepted.Load(); n != 3 {
		t.Errorf("accepted %d connections, want 3 (two rejections + success)", n)
	}
}

// TestConnectRetriesTransportFailure: a server that hangs up before the
// handshake is a transport failure, and transport failures are retryable.
// The counting listener verifies the configured attempt budget is spent.
func TestConnectRetriesTransportFailure(t *testing.T) {
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		// Hang up without answering the Hello.
	})
	_, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 2,
		BaseDelay:  time.Millisecond,
	})
	if err == nil {
		t.Fatal("connect succeeded against a hanging-up server")
	}
	if n := srv.accepted.Load(); n != 3 {
		t.Errorf("accepted %d connections, want 3 (initial + 2 retries)", n)
	}
}

// TestConnectDoesNotRetryVersionMismatch: a protocol-level refusal will fail
// identically on every attempt, so the retry budget must not be spent on it.
// The refusal costs exactly one connection: there is no downgrade redial.
func TestConnectDoesNotRetryVersionMismatch(t *testing.T) {
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		wire.WriteMessage(nc, &wire.Error{Code: wire.CodeVersionMismatch, Message: "speak v999"})
		expectPeerClose(t, nc, "version mismatch")
	})
	_, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 5,
		BaseDelay:  time.Millisecond,
	})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeVersionMismatch {
		t.Fatalf("err = %v, want CodeVersionMismatch ServerError", err)
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Errorf("accepted %d connections, want 1 (no redial, no retries)", n)
	}
}

// TestConnectContextCancelStopsRetries: cancellation during backoff returns
// promptly with the context error instead of sleeping out the budget.
func TestConnectContextCancelStopsRetries(t *testing.T) {
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		// Hang up: retryable, pushing the client into its backoff sleep.
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.ConnectContext(ctx, srv.addr(), client.Options{
		MaxRetries: 10,
		BaseDelay:  10 * time.Second, // without cancellation this would sleep ~5s+
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to surface", elapsed)
	}
}

// TestErrConnClosed: every operation on a locally-closed Conn reports the
// typed ErrConnClosed, and Close is idempotent.
func TestErrConnClosed(t *testing.T) {
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: wire.MaxVersion, Server: "script"})
		expectPeerClose(t, nc, "closed conn")
	})
	c, err := client.Connect(srv.addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v, want nil", err)
	}
	if _, err := c.Query(context.Background(), "SELECT 1"); !errors.Is(err, client.ErrConnClosed) {
		t.Errorf("Query after close: %v, want ErrConnClosed", err)
	}
	if err := c.Cancel(); !errors.Is(err, client.ErrConnClosed) {
		t.Errorf("Cancel after close: %v, want ErrConnClosed", err)
	}
	if err := c.Set("max_rows", "64"); !errors.Is(err, client.ErrConnClosed) {
		t.Errorf("Set after close: %v, want ErrConnClosed", err)
	}
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrConnClosed) {
		t.Errorf("Ping after close: %v, want ErrConnClosed", err)
	}
}
