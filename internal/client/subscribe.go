package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sgb/internal/stream"
	"sgb/internal/wire"
)

// Delta is the client-side view delta; it is the stream layer's type, so
// consumers share the canonical replay semantics (stream.Apply).
type Delta = stream.Delta

// SubStream is a live subscription conversation on a single connection
// (SubscribeOnce). The connection is dedicated to the stream until Close.
type SubStream struct {
	c *Conn
	// Seq is the stream's resume baseline from the Subscribed reply: the
	// token the server resumed after (or, under Snapshot, the sequence the
	// state image carries).
	Seq uint64
	// Snapshot reports that the presented token predated the server's delta
	// retention: the consumer must discard local state, and the first deltas
	// are a full state image (one GroupCreated per group).
	Snapshot bool

	done bool
}

// SubscribeOnce attaches this connection to a materialized view's delta
// stream, resuming after token (0 = from the server's current retention
// floor, which yields a snapshot image). The connection is occupied until the
// stream ends; use Next to read deltas and Close for a clean detach.
func (c *Conn) SubscribeOnce(view string, token uint64) (*SubStream, error) {
	c.qmu.Lock()
	if err := c.writeMsg(&wire.Subscribe{View: view, Token: token}); err != nil {
		c.qmu.Unlock()
		return nil, err
	}
	msg, err := wire.ReadMessage(c.nc)
	if err != nil {
		c.qmu.Unlock()
		return nil, err
	}
	switch m := msg.(type) {
	case *wire.Subscribed:
		return &SubStream{c: c, Seq: m.Seq, Snapshot: m.Snapshot}, nil
	case *wire.Error:
		c.qmu.Unlock()
		return nil, m
	default:
		c.qmu.Unlock()
		return nil, fmt.Errorf("client: unexpected %T to Subscribe", msg)
	}
}

// Next blocks for the next delta. io.EOF reports a clean end (after Close's
// Cancel); any other error means the stream broke — reconnect and resume with
// the Seq of the last delta consumed.
func (s *SubStream) Next() (Delta, error) {
	if s.done {
		return Delta{}, io.EOF
	}
	msg, err := wire.ReadMessage(s.c.nc)
	if err != nil {
		s.finish()
		return Delta{}, err
	}
	switch m := msg.(type) {
	case *wire.Delta:
		return Delta{
			View:    m.View,
			Seq:     m.Seq,
			Kind:    stream.DeltaKind(m.Kind),
			Group:   m.Group,
			Members: m.Members,
			Merged:  m.Merged,
		}, nil
	case *wire.Done:
		s.finish()
		return Delta{}, io.EOF
	case *wire.Error:
		s.finish()
		return Delta{}, m
	default:
		s.finish()
		return Delta{}, fmt.Errorf("client: unexpected %T mid-subscription", msg)
	}
}

// Close cancels the subscription and drains to the server's Done, returning
// the connection to the idle state for further queries.
func (s *SubStream) Close() error {
	if s.done {
		return nil
	}
	if err := s.c.Cancel(); err != nil {
		s.finish()
		return err
	}
	for {
		msg, err := wire.ReadMessage(s.c.nc)
		if err != nil {
			s.finish()
			return err
		}
		switch msg.(type) {
		case *wire.Delta:
			// In-flight deltas between our Cancel and the server's Done.
		case *wire.Done, *wire.Error:
			s.finish()
			return nil
		default:
			s.finish()
			return fmt.Errorf("client: unexpected %T draining subscription", msg)
		}
	}
}

// finish releases the conversation lock once.
func (s *SubStream) finish() {
	if !s.done {
		s.done = true
		s.c.qmu.Unlock()
	}
}

// Event is one notification from a managed Subscription. Rebase marks a
// resume that landed past the server's delta retention: the consumer discards
// its local group state, and the deltas that follow begin with a full state
// image. Otherwise Delta carries the next state transition; apply it with
// stream.Apply.
type Event struct {
	Delta  Delta
	Rebase bool
}

// Subscription is a managed, auto-reconnecting delta stream created by
// Subscribe. Events delivers in Seq order across reconnects with no loss or
// duplication for consumed sequences (the resume token advances only as
// events are delivered). The channel closes when the context ends, the server
// reports a permanent error, or reconnection attempts are exhausted; Err
// explains which.
type Subscription struct {
	Events <-chan Event

	mu  sync.Mutex
	err error
}

// Err reports why Events closed (nil after a clean context end).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Subscribe opens a managed subscription to view on the server at addr,
// starting from token 0 (a fresh snapshot). Dial, handshake, and every
// reconnect use o's retry/backoff policy (the same schedule ConnectContext
// applies); between stream breaks the resume token is the last delivered
// delta's Seq, so a server restart — even a kill -9, since WAL replay
// regenerates delta history deterministically — continues the stream without
// losing or duplicating consumed deltas.
func Subscribe(ctx context.Context, addr, view string, opts ...Options) (*Subscription, error) {
	o := withDefaults(opts)
	events := make(chan Event, 64)
	sub := &Subscription{Events: events}

	// First attach synchronously so an unknown view or protocol problem is an
	// immediate error rather than a closed channel.
	conn, ss, err := subscribeAttach(ctx, addr, view, 0, o)
	if err != nil {
		return nil, err
	}

	go func() {
		defer close(events)
		token := ss.Seq
		rebase := ss.Snapshot
		for {
			token, err = pumpStream(ctx, ss, events, token, rebase)
			// The conn is dedicated to the finished stream cycle; force the
			// socket shut rather than Close(), which waits on the
			// conversation lock the stream may still hold.
			ss.finish()
			conn.closeSocket()
			if err == nil || ctx.Err() != nil {
				if ctx.Err() != nil && !errors.Is(err, io.EOF) {
					sub.setErr(ctx.Err())
				}
				return
			}
			// Stream broke: reconnect with backoff and resume after token.
			conn, ss, err = subscribeAttach(ctx, addr, view, token, o)
			if err != nil {
				sub.setErr(err)
				return
			}
			rebase = ss.Snapshot
			if ss.Snapshot {
				token = ss.Seq
			}
		}
	}()
	return sub, nil
}

// subscribeAttach dials (with retry/backoff) and attaches to the view. A
// failed attach on a fresh connection is retried under the same policy when
// retryable — a restarting server refuses dials and may briefly not know the
// view while replaying.
func subscribeAttach(ctx context.Context, addr, view string, token uint64, o Options) (*Conn, *SubStream, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		conn, err := ConnectContext(ctx, addr, Options{BaseDelay: o.BaseDelay, MaxDelay: o.MaxDelay})
		if err == nil {
			var ss *SubStream
			ss, err = conn.SubscribeOnce(view, token)
			if err == nil {
				return conn, ss, nil
			}
			conn.Close()
		}
		lastErr = err
		if attempt >= o.MaxRetries || !retryable(err) {
			return nil, nil, lastErr
		}
		// Same schedule as ConnectContext, honoring a server retry-after hint
		// (e.g. a degraded store still replaying after a disk fault).
		select {
		case <-time.After(backoffDelay(err, attempt, o)):
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// pumpStream forwards deltas to events until the stream ends, returning the
// last delivered Seq. A nil error is a clean end; rebase emits the discard
// marker before the first delta.
func pumpStream(ctx context.Context, ss *SubStream, events chan<- Event, token uint64, rebase bool) (uint64, error) {
	if rebase {
		select {
		case events <- Event{Rebase: true}:
		case <-ctx.Done():
			return token, nil
		}
	}
	// A context watcher force-closes the socket so a blocked read unblocks;
	// the connection is dedicated to this stream cycle, so that is safe.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			ss.c.closeSocket()
		case <-stop:
		}
	}()
	for {
		d, err := ss.Next()
		if err != nil {
			if ctx.Err() != nil {
				return token, nil
			}
			// io.EOF included: the managed loop never sends Cancel, so a
			// server Done is unsolicited and a raw EOF is a dead socket —
			// either way the stream broke; reconnect and resume.
			return token, err
		}
		select {
		case events <- Event{Delta: d}:
			token = d.Seq
		case <-ctx.Done():
			return token, nil
		}
	}
}
