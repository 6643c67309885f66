package obs

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NewTraceID mints a random 64-bit trace identifier rendered as 16 lowercase
// hex digits — the form carried in the wire protocol's Query frame and
// reported by the server's slowlog and process list.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// ValidTraceID reports whether id is a well-formed trace identifier: exactly
// 16 lowercase hex digits.
func ValidTraceID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one timed phase of a query (wire decode, parse, plan, execute, WAL
// append/fsync, row streaming). Name and Start are immutable after creation;
// the duration is finalized by End and safe to read concurrently.
type Span struct {
	Name  string
	Start time.Time

	durNS atomic.Int64
	ended atomic.Bool
}

// End stops the span's clock. Calling End twice keeps the first duration.
func (s *Span) End() {
	if s.ended.CompareAndSwap(false, true) {
		s.durNS.Store(int64(time.Since(s.Start)))
	}
}

// Duration reads the recorded duration (zero until End, unless the span was
// added pre-measured via Trace.AddSpan).
func (s *Span) Duration() time.Duration {
	return time.Duration(s.durNS.Load())
}

// Trace records the timed phases of a single statement plus free-form
// annotations (e.g. the SGB cost counters of the run), an optional trace ID,
// a live execution state, and — for sampled statements — the rendered plan
// tree with per-operator actuals.
//
// A Trace is safe for concurrent use: the WAL flush path may annotate a live
// trace while the server's process list reads its state from another
// goroutine.
type Trace struct {
	id string // immutable after creation

	mu    sync.Mutex
	state string
	spans []*Span
	notes []string
	plan  []string
}

// NewTrace starts an empty trace with no ID.
func NewTrace() *Trace { return &Trace{} }

// NewTraceWithID starts an empty trace carrying the given trace ID (typically
// minted by the client or the server for cross-boundary correlation).
func NewTraceWithID(id string) *Trace { return &Trace{id: id} }

// ID returns the trace identifier ("" when untraced).
func (t *Trace) ID() string { return t.id }

// SetState records the statement's current execution phase (parsing,
// planning, executing, committing, streaming) for live introspection.
func (t *Trace) SetState(state string) {
	t.mu.Lock()
	t.state = state
	t.mu.Unlock()
}

// State reports the most recently set execution phase.
func (t *Trace) State() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// StartSpan begins a named span; the caller must End it.
func (t *Trace) StartSpan(name string) *Span {
	s := &Span{Name: name, Start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// AddSpan attaches an externally measured, already completed span — e.g. the
// server's wire-decode time, measured before the trace existed.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration) *Span {
	s := &Span{Name: name, Start: start}
	s.durNS.Store(int64(d))
	s.ended.Store(true)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Annotate attaches a formatted note to the trace.
func (t *Trace) Annotate(format string, args ...any) {
	n := fmt.Sprintf(format, args...)
	t.mu.Lock()
	t.notes = append(t.notes, n)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// Notes returns a copy of the attached annotations.
func (t *Trace) Notes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.notes...)
}

// SetPlan attaches the rendered plan tree (EXPLAIN-style lines, with
// per-operator actuals when the statement ran instrumented).
func (t *Trace) SetPlan(lines []string) {
	cp := append([]string(nil), lines...)
	t.mu.Lock()
	t.plan = cp
	t.mu.Unlock()
}

// Plan returns a copy of the attached plan lines (nil when the statement was
// not sampled for instrumentation).
func (t *Trace) Plan() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.plan...)
}

// Snapshot freezes the trace into the JSON-friendly introspection shape used
// by the server's slowlog.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	notes := append([]string(nil), t.notes...)
	plan := append([]string(nil), t.plan...)
	t.mu.Unlock()
	snap := TraceSnapshot{ID: t.id, Notes: notes, Plan: plan}
	for _, s := range spans {
		snap.Spans = append(snap.Spans, SpanInfo{
			Name:  s.Name,
			DurMS: float64(s.Duration().Nanoseconds()) / 1e6,
		})
	}
	return snap
}

// String renders the trace as a one-line breakdown, e.g.
// "parse=0.021ms plan=0.105ms execute=3.2ms; distance_comps=1234".
func (t *Trace) String() string {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	notes := append([]string(nil), t.notes...)
	t.mu.Unlock()
	var sb strings.Builder
	for i, s := range spans {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", s.Name, fmtSpanDur(s.Duration()))
	}
	for i, n := range notes {
		if i == 0 {
			sb.WriteString("; ")
		} else {
			sb.WriteByte(' ')
		}
		sb.WriteString(n)
	}
	return sb.String()
}

func fmtSpanDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	default:
		return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
	}
}
