package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
)

// TestRoundTrip encodes and decodes one instance of every message type.
func TestRoundTrip(t *testing.T) {
	msgs := []Message{
		&Hello{Version: MaxVersion},
		&Welcome{Version: MaxVersion, Server: "sgbd test"},
		&Query{SQL: "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"},
		&Set{Name: "batch_size", Value: "4"},
		&Ping{},
		&Pong{},
		&Cancel{},
		&Stats{},
		&StatsText{Text: "# TYPE engine_queries_total counter\nengine_queries_total 7\n"},
		&Close{},
		&RowHeader{Columns: []string{"id", "cnt", "avg"}},
		&RowHeader{Columns: []string{}},
		&RowBatch{Rows: []engine.Row{
			{engine.NewInt(1), engine.NewFloat(2.5), engine.NewString("a"), engine.NewBool(true), engine.Null},
			{engine.NewInt(-9), engine.NewFloat(math.Inf(-1)), engine.NewString(""), engine.NewBool(false), engine.Null},
		}},
		&RowBatch{Rows: []engine.Row{}},
		&Done{RowsAffected: 42, RowCount: 1000},
		&Done{RowsAffected: -1, RowCount: 0},
		&Error{Code: CodeResourceLimit, Message: "query exceeded rows limit"},
		&Error{Code: CodeReadOnly, Message: "store degraded", RetryAfterMS: 1000},
		&Error{Code: CodeOverloaded, Message: "admission queue full", RetryAfterMS: 250},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write %T: %v", m, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T:\n got %#v\nwant %#v", m, got, m)
		}
		if buf.Len() != 0 {
			t.Errorf("%T: %d bytes left after decode", m, buf.Len())
		}
	}
}

// TestRoundTripFloatBits pins that float values round-trip bit-exactly,
// including NaN payloads and negative zero — required for the server's
// bit-identical-to-embedded guarantee.
func TestRoundTripFloatBits(t *testing.T) {
	bits := []uint64{
		math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.NaN()), 0x7ff8000000000123,
		math.Float64bits(math.Inf(1)), math.Float64bits(1e-308),
	}
	for _, b := range bits {
		m := &RowBatch{Rows: []engine.Row{{{T: engine.TypeFloat, F: math.Float64frombits(b)}}}}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gv := got.(*RowBatch).Rows[0][0]
		if math.Float64bits(gv.F) != b {
			t.Errorf("float bits %#x round-tripped to %#x", b, math.Float64bits(gv.F))
		}
	}
}

// TestSequentialStream decodes several messages written back to back, as a
// real connection would carry them.
func TestSequentialStream(t *testing.T) {
	var buf bytes.Buffer
	seq := []Message{
		&RowHeader{Columns: []string{"c"}},
		&RowBatch{Rows: []engine.Row{{engine.NewInt(1)}}},
		&RowBatch{Rows: []engine.Row{{engine.NewInt(2)}}},
		&Done{RowCount: 2},
	}
	for _, m := range seq {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range seq {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message %d: got %#v want %#v", i, got, want)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("after stream: got %v, want io.EOF", err)
	}
}

// TestMalformedFrames exercises the decoder's error paths: bad magic,
// unknown types, truncation, oversized lengths, corrupt counts, and trailing
// garbage must all fail loudly rather than mis-decode.
func TestMalformedFrames(t *testing.T) {
	encode := func(m Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("truncated header", func(t *testing.T) {
		_, err := ReadMessage(bytes.NewReader([]byte{TypePing, 0, 0}))
		if err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		b := encode(&Query{SQL: "SELECT 1"})
		_, err := ReadMessage(bytes.NewReader(b[:len(b)-3]))
		if err != io.ErrUnexpectedEOF {
			t.Errorf("got %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		hdr := []byte{TypeQuery, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(hdr[1:], MaxFrame+1)
		_, err := ReadMessage(bytes.NewReader(hdr))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		_, err := ReadMessage(bytes.NewReader([]byte{0x7f, 0, 0, 0, 0}))
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := encode(&Hello{Version: MaxVersion})
		copy(b[5:], "HTTP")
		_, err := ReadMessage(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("corrupt row count", func(t *testing.T) {
		b := encode(&RowBatch{Rows: []engine.Row{{engine.NewInt(1)}}})
		// Overwrite the row count with a huge value; the decoder must bound
		// it against the remaining bytes, not allocate.
		binary.BigEndian.PutUint32(b[5:9], 1<<30)
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("corrupt count decoded without error")
		}
	})
	t.Run("unknown value type", func(t *testing.T) {
		b := encode(&RowBatch{Rows: []engine.Row{{engine.NewBool(true)}}})
		b[len(b)-2] = 0xee // value type tag
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil ||
			!strings.Contains(err.Error(), "unknown value type") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		b := encode(&Ping{})
		b = append(b, 0xab)
		binary.BigEndian.PutUint32(b[1:5], 1)
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil ||
			!strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("clean EOF", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
			t.Errorf("got %v, want io.EOF", err)
		}
	})
}

// TestErrorRetryAfterEncoding pins the v4 compatibility contract for the
// Error frame's optional retry-after field: a zero hint encodes exactly as
// the pre-v4 frame (no trailing bytes, so old decoders accept it), and a
// nonzero hint appends one uint32 that new decoders read back.
func TestErrorRetryAfterEncoding(t *testing.T) {
	var withoutHint, withHint bytes.Buffer
	if err := WriteMessage(&withoutHint, &Error{Code: CodeReadOnly, Message: "ro"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&withHint, &Error{Code: CodeReadOnly, Message: "ro", RetryAfterMS: 500}); err != nil {
		t.Fatal(err)
	}
	if withHint.Len() != withoutHint.Len()+4 {
		t.Fatalf("hinted frame is %d bytes, unhinted %d; want exactly 4 more",
			withHint.Len(), withoutHint.Len())
	}

	got, err := ReadMessage(&withoutHint)
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*Error); e.RetryAfterMS != 0 || e.RetryAfter() != 0 {
		t.Fatalf("zero-hint frame decoded RetryAfterMS=%d", e.RetryAfterMS)
	}
	got, err = ReadMessage(&withHint)
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*Error); e.RetryAfterMS != 500 || e.RetryAfter() != 500*time.Millisecond {
		t.Fatalf("hinted frame decoded RetryAfterMS=%d RetryAfter=%v", e.RetryAfterMS, e.RetryAfter())
	}
}

func TestQueryTraceIDRoundTrip(t *testing.T) {
	id := obs.NewTraceID()
	want := &Query{SQL: "SELECT 1", TraceID: id}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v want %#v", got, want)
	}
}

// TestQueryMalformedTraceID pins the typed rejection of bad trace IDs on
// both the encode and decode sides.
func TestQueryMalformedTraceID(t *testing.T) {
	bad := []string{"short", "0123456789ABCDEF", "0123456789abcdefff", "xyzw456789abcdef"}
	for _, id := range bad {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Query{SQL: "SELECT 1", TraceID: id}); !errors.Is(err, ErrBadTraceID) {
			t.Errorf("encode %q: got %v, want ErrBadTraceID", id, err)
		}
	}
	// Hand-build frames with a malformed trailing trace ID (an honest encoder
	// refuses to produce them, so splice the tail in by hand).
	for _, id := range append(bad, "") {
		payload := appendString(nil, "SELECT 1")
		payload = appendString(payload, id)
		frame := []byte{TypeQuery, 0, 0, 0, byte(len(payload))}
		frame = append(frame, payload...)
		_, err := ReadMessage(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadTraceID) {
			t.Errorf("decode with trace id %q: got %v, want ErrBadTraceID", id, err)
		}
	}
}

func TestIntrospectRoundTrip(t *testing.T) {
	msgs := []Message{
		&Introspect{What: IntrospectProcessList},
		&Introspect{What: IntrospectSlowLog},
		&IntrospectResult{What: IntrospectProcessList, JSON: `[{"trace_id":"00aabbccddeeff11","state":"executing"}]`},
		&IntrospectResult{What: IntrospectSlowLog, JSON: `[]`},
	}
	for _, want := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, want); err != nil {
			t.Fatalf("write %T: %v", want, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %T: got %#v want %#v", want, got, want)
		}
	}
}

func TestReadMessageTimed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Query{SQL: "SELECT 1", TraceID: obs.NewTraceID()}); err != nil {
		t.Fatal(err)
	}
	m, d, err := ReadMessageTimed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*Query); !ok {
		t.Fatalf("decoded %T", m)
	}
	if d < 0 || d > time.Second {
		t.Fatalf("implausible decode duration %v", d)
	}
	// Truncated payload still reports a duration alongside the error.
	var buf2 bytes.Buffer
	if err := WriteMessage(&buf2, &Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	b := buf2.Bytes()
	if _, _, err := ReadMessageTimed(bytes.NewReader(b[:len(b)-2])); err == nil ||
		!strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("truncated timed read: %v", err)
	}
}
