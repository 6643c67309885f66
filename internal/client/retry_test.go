package client_test

// Scripted-server tests for the degradation-aware retry policy: CodeReadOnly
// (store degraded after a disk fault) and CodeOverloaded (admission queue or
// memory budget full) are transient by contract, so the client retries them —
// and when the rejection carries a retry-after hint, the hint replaces the
// exponential backoff schedule. The tests prove the hint is honored by
// configuring a backoff so large that ignoring the hint would blow the test
// deadline.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"sgb/internal/client"
	"sgb/internal/wire"
)

// hugeDelay is a backoff no test can afford to sleep: if a retry completes
// promptly anyway, the server's retry-after hint must have replaced it.
const hugeDelay = 5 * time.Minute

func TestConnectRetriesOverloadedHonoringHint(t *testing.T) {
	srv := newScriptServer(t, func(n int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		if n <= 2 {
			wire.WriteMessage(nc, &wire.Error{Code: wire.CodeOverloaded,
				Message: "admission queue full", RetryAfterMS: 25})
			expectPeerClose(t, nc, "overloaded rejection")
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: wire.MaxVersion, Server: "script"})
		expectPeerClose(t, nc, "accepted conn after Close")
	})
	start := time.Now()
	c, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 5,
		BaseDelay:  hugeDelay,
		MaxDelay:   hugeDelay,
	})
	if err != nil {
		t.Fatalf("connect with overloaded retries: %v", err)
	}
	defer c.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("retries took %v: the 25ms retry-after hint was not honored", elapsed)
	}
	if n := srv.accepted.Load(); n != 3 {
		t.Errorf("accepted %d connections, want 3 (two sheds + success)", n)
	}
}

func TestConnectRetriesReadOnly(t *testing.T) {
	srv := newScriptServer(t, func(n int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		if n == 1 {
			wire.WriteMessage(nc, &wire.Error{Code: wire.CodeReadOnly,
				Message: "store degraded (read-only)", RetryAfterMS: 10})
			expectPeerClose(t, nc, "read-only rejection")
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: wire.MaxVersion, Server: "script"})
		expectPeerClose(t, nc, "accepted conn after Close")
	})
	c, err := client.ConnectContext(context.Background(), srv.addr(), client.Options{
		MaxRetries: 2,
		BaseDelay:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("connect with read-only retry: %v", err)
	}
	defer c.Close()
	if n := srv.accepted.Load(); n != 2 {
		t.Errorf("accepted %d connections, want 2 (one rejection + success)", n)
	}
}

// TestConnectReadOnlyNotRetriedWithoutBudget: the rejection is typed, so with
// MaxRetries 0 it surfaces immediately — carrying the hint for the caller.
func TestConnectReadOnlyNotRetriedWithoutBudget(t *testing.T) {
	srv := newScriptServer(t, func(_ int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		wire.WriteMessage(nc, &wire.Error{Code: wire.CodeReadOnly,
			Message: "store degraded (read-only)", RetryAfterMS: 1000})
		expectPeerClose(t, nc, "read-only rejection")
	})
	_, err := client.Connect(srv.addr())
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeReadOnly {
		t.Fatalf("err = %v, want CodeReadOnly ServerError", err)
	}
	if se.RetryAfter() != time.Second {
		t.Errorf("surfaced hint %v, want 1s", se.RetryAfter())
	}
	if n := srv.accepted.Load(); n != 1 {
		t.Errorf("accepted %d connections, want 1 (no retry budget)", n)
	}
}

// TestSubscribeReattachHonorsHint drives the managed Subscribe loop through a
// mid-stream disconnect followed by an overloaded re-attach: the stream must
// resume with the consumed token, pacing the retry by the server's hint
// rather than the (deliberately unaffordable) exponential schedule.
func TestSubscribeReattachHonorsHint(t *testing.T) {
	tokens := make(chan uint64, 8)
	srv := newScriptServer(t, func(n int64, nc net.Conn) {
		if !readHello(t, nc) {
			return
		}
		wire.WriteMessage(nc, &wire.Welcome{Version: wire.MaxVersion, Server: "script"})
		msg, err := wire.ReadMessage(nc)
		if err != nil {
			t.Errorf("script server: reading Subscribe: %v", err)
			return
		}
		sub, ok := msg.(*wire.Subscribe)
		if !ok {
			t.Errorf("script server: expected Subscribe, got %T", msg)
			return
		}
		tokens <- sub.Token
		switch n {
		case 1:
			// Deliver one delta, then drop the connection mid-stream.
			wire.WriteMessage(nc, &wire.Subscribed{Seq: 0, Snapshot: true})
			wire.WriteMessage(nc, &wire.Delta{View: sub.View, Seq: 1, Kind: 0,
				Group: 10, Members: []int64{10, 11}})
			return // handler return closes nc: a dead socket
		case 2:
			// Re-attach arrives while "overloaded": shed with a hint.
			wire.WriteMessage(nc, &wire.Error{Code: wire.CodeOverloaded,
				Message: "admission queue full", RetryAfterMS: 25})
		default:
			wire.WriteMessage(nc, &wire.Subscribed{Seq: sub.Token, Snapshot: false})
			wire.WriteMessage(nc, &wire.Delta{View: sub.View, Seq: 2, Kind: 1,
				Group: 10, Members: []int64{12}})
			expectPeerClose(t, nc, "stream conn at test end")
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	sub, err := client.Subscribe(ctx, srv.addr(), "v", client.Options{
		MaxRetries: 3,
		BaseDelay:  hugeDelay,
		MaxDelay:   hugeDelay,
	})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}

	read := func(what string) client.Event {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				t.Fatalf("events closed waiting for %s: %v", what, sub.Err())
			}
			return ev
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}
	if ev := read("rebase marker"); !ev.Rebase {
		t.Fatalf("first event %+v, want rebase marker", ev)
	}
	if ev := read("first delta"); ev.Delta.Seq != 1 {
		t.Fatalf("first delta %+v, want seq 1", ev.Delta)
	}
	// The connection drops after seq 1; the managed loop must reconnect —
	// riding through the overloaded shed via its hint — and resume at token 1.
	if ev := read("post-reattach delta"); ev.Delta.Seq != 2 {
		t.Fatalf("post-reattach delta %+v, want seq 2", ev.Delta)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("reattach took %v: the 25ms retry-after hint was not honored", elapsed)
	}
	if tok := <-tokens; tok != 0 {
		t.Errorf("first attach token %d, want 0", tok)
	}
	if tok := <-tokens; tok != 1 {
		t.Errorf("shed re-attach token %d, want 1 (the consumed delta)", tok)
	}
	if tok := <-tokens; tok != 1 {
		t.Errorf("successful re-attach token %d, want 1", tok)
	}
	cancel()
}
