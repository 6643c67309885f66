// Package wire defines sgbd's client/server protocol: a length-prefixed
// binary framing with a small fixed message set.
//
// Every frame is
//
//	[1 byte message type][4 bytes big-endian payload length][payload]
//
// The connection opens with a version handshake (Hello → Welcome or Error),
// after which the client drives a simple request/response conversation. The
// one deliberate asymmetry is Cancel: the client may send it while a Query is
// still streaming, and the server aborts the in-flight statement — which is
// why server sessions read frames concurrently with query execution.
//
// Result rows stream as typed RowBatch frames of at most 1024 rows each
// (internal/server's rowBatchRows). Values carry the engine's type tags; the
// encoding round-trips engine.Value exactly (including the NaN bit patterns
// the float encoding preserves).
//
// Protocol version: there is exactly one, MaxVersion. A server accepts only
// Hello{MaxVersion} and refuses anything else with CodeVersionMismatch; a
// client refuses a Welcome at any other version. Every client and server
// that speaks the protocol is built from this tree, so there is no
// negotiation and no downgrade. Additive changes (new message types, new Set
// keys) do not bump the version; a change to an existing frame layout does,
// and every handshake site references MaxVersion rather than a literal so a
// bump cannot leave a straggler. Two frames carry optional trailing fields:
// Query's trace ID (the server mints one when it is absent) and Error's
// retry-after hint (omitted when zero).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
)

// MaxVersion is the one protocol version this package speaks, and the single
// source of truth every handshake site must reference. See the package
// comment for the version policy.
const MaxVersion = 4

// Magic opens every Hello payload, so a server can reject a stray HTTP or
// MySQL client with a protocol error instead of a confusing decode failure.
const Magic = "SGBW"

// MaxFrame caps a single frame's payload size. Row batches are chunked well
// below this by the sender; the bound exists so a corrupt or hostile length
// prefix cannot make a peer allocate gigabytes.
const MaxFrame = 16 << 20

// Message type bytes. Client-originated types have the high bit clear,
// server-originated types have it set.
const (
	TypeHello      byte = 0x01 // client: magic, protocol version
	TypeQuery      byte = 0x02 // client: one SQL statement
	TypeSet        byte = 0x03 // client: session setting name/value
	TypePing       byte = 0x04 // client: liveness probe
	TypeCancel     byte = 0x05 // client: abort the in-flight query
	TypeStats      byte = 0x06 // client: request the server metrics snapshot
	TypeClose      byte = 0x07 // client: graceful goodbye
	TypeIntrospect byte = 0x08 // client: request process list / slowlog
	TypeSubscribe  byte = 0x09 // client: open a materialized-view delta stream

	TypeWelcome          byte = 0x81 // server: handshake accepted
	TypeRowHeader        byte = 0x82 // server: result column names
	TypeRowBatch         byte = 0x83 // server: one batch of result rows
	TypeDone             byte = 0x84 // server: statement/settings op completed
	TypeError            byte = 0x85 // server: typed failure
	TypePong             byte = 0x86 // server: ping reply
	TypeStatsText        byte = 0x87 // server: Prometheus text metrics
	TypeIntrospectResult byte = 0x88 // server: introspection JSON
	TypeSubscribed       byte = 0x89 // server: subscription accepted
	TypeDelta            byte = 0x8A // server: one group delta
)

// Delta kinds carried by the Delta message. The numeric values are shared
// with internal/stream's DeltaKind, so the wire byte is the stream kind.
const (
	// DeltaGroupCreated introduces a new group with its initial members.
	DeltaGroupCreated uint8 = 1
	// DeltaMemberJoined adds members to an existing group.
	DeltaMemberJoined uint8 = 2
	// DeltaGroupsMerged folds the Merged groups' members into Group (the
	// surviving, smallest-id group) and removes them.
	DeltaGroupsMerged uint8 = 3
	// DeltaGroupDissolved removes a group outright.
	DeltaGroupDissolved uint8 = 4
)

// Introspection targets carried by the Introspect message.
const (
	// IntrospectProcessList asks for the in-flight query list.
	IntrospectProcessList = "processlist"
	// IntrospectSlowLog asks for the slow-query log, newest first.
	IntrospectSlowLog = "slowlog"
)

// Error codes carried by the Error message.
const (
	// CodeInternal is an unclassified server-side failure.
	CodeInternal uint16 = 1
	// CodeQuery is a statement failure: parse error, unknown table, type
	// error — anything the engine rejects.
	CodeQuery uint16 = 2
	// CodeCanceled reports that the statement was aborted by a Cancel frame
	// (or the server shutting down mid-query).
	CodeCanceled uint16 = 3
	// CodeResourceLimit reports a typed engine.ResourceLimitError: the
	// statement exceeded the session's row or time budget.
	CodeResourceLimit uint16 = 4
	// CodeProtocol is a framing or message-sequence violation.
	CodeProtocol uint16 = 5
	// CodeTooManyConnections means the server is at its connection limit.
	CodeTooManyConnections uint16 = 6
	// CodeShuttingDown means the server is draining and takes no new work.
	CodeShuttingDown uint16 = 7
	// CodeUnknownSetting rejects a Set with an unrecognized name or an
	// unparseable value.
	CodeUnknownSetting uint16 = 8
	// CodeVersionMismatch rejects a Hello whose protocol version the server
	// does not speak.
	CodeVersionMismatch uint16 = 9
	// CodeReadOnly rejects a write because the store is degraded: a disk
	// fault latched the WAL, so reads keep serving but no statement can be
	// made durable until the background probe repairs the log. Retryable;
	// the Error usually carries a retry-after hint.
	CodeReadOnly uint16 = 10
	// CodeOverloaded sheds a statement under resource pressure — the
	// admission queue is full or the process memory budget is exhausted.
	// The statement was never executed, so retrying after the hint is safe.
	CodeOverloaded uint16 = 11
)

// Message is one protocol frame, decoded.
type Message interface {
	// wireType is the frame's type byte.
	wireType() byte
}

// Hello is the client's opening frame.
type Hello struct {
	// Version is the protocol version the client speaks.
	Version uint32
}

// Welcome accepts the handshake.
type Welcome struct {
	// Version is the protocol version the server speaks.
	Version uint32
	// Server is a human-readable server identification string.
	Server string
}

// Query submits one SQL statement.
//
// TraceID optionally correlates the statement with an end-to-end trace: 16
// lowercase hex digits, minted by the client (or left empty, in which case
// the server mints one itself). The field rides as an optional trailing
// string after SQL and is omitted entirely when empty.
type Query struct {
	SQL     string
	TraceID string
}

// Set changes one session-scoped setting. Names and value syntax are defined
// by the server (see internal/server: sgb_algorithm, max_rows, max_time).
type Set struct {
	Name, Value string
}

// Ping probes liveness; the server answers Pong.
type Ping struct{}

// Pong answers Ping.
type Pong struct{}

// Cancel aborts the connection's in-flight query, if any. It is the only
// client frame legal while a query is streaming.
type Cancel struct{}

// Stats requests the server's metrics registry; answered by StatsText.
type Stats struct{}

// Introspect requests one of the server's live-introspection surfaces
// — What is IntrospectProcessList or IntrospectSlowLog. It is part of the
// Stats family: answered out of band of queries with an IntrospectResult.
type Introspect struct {
	What string
}

// IntrospectResult answers Introspect with a JSON document: an array of
// obs.QueryInfo for the process list, an array of obs.SlowQuery for the
// slowlog.
type IntrospectResult struct {
	What string
	JSON string
}

// Subscribe opens a delta stream over a materialized similarity-group
// view. Token is the resume position: the WAL sequence of the last delta the
// client has durably consumed, or 0 for "from the beginning". The server
// replays every retained delta with a sequence greater than Token before
// switching to live pushes; if Token predates its retention horizon it sends
// a full state snapshot instead (see Subscribed.Snapshot).
type Subscribe struct {
	View  string
	Token uint64
}

// Subscribed accepts a Subscribe. Seq is the view's current position
// (the WAL sequence of the last commit folded into it). When Snapshot is
// true, the client's resume token was 0 or predated the server's delta
// retention, so the frames that follow are a full state snapshot (synthetic
// GroupCreated deltas stamped at Seq) and the client must discard any state
// it was holding; otherwise the stream resumes exactly after Token with no
// gaps or repeats.
type Subscribed struct {
	Seq      uint64
	Snapshot bool
}

// Delta is one typed change to a materialized view's group state.
// Group ids are stable: a group is identified by its smallest member row id.
// Replay semantics, applied in stream order against a map of group id →
// member set: Created sets the group; Joined unions Members in; Merged moves
// every member of each Merged group into Group and deletes the sources;
// Dissolved deletes the group.
type Delta struct {
	View    string
	Seq     uint64
	Kind    uint8
	Group   int64
	Members []int64 // Created: initial members; Joined: the new members
	Merged  []int64 // GroupsMerged: ids of the absorbed groups
}

// StatsText carries the metrics registry in Prometheus text format.
type StatsText struct {
	Text string
}

// Close announces a graceful disconnect.
type Close struct{}

// RowHeader opens a streamed result: the output column names, in order.
// A statement with no result columns (DDL/DML) skips straight to Done.
type RowHeader struct {
	Columns []string
}

// RowBatch carries a batch of result rows. A result may span any number of
// RowBatch frames (including zero), terminated by Done.
type RowBatch struct {
	Rows []engine.Row
}

// Done terminates a successful statement (after zero or more RowBatch
// frames) and acknowledges Set.
type Done struct {
	// RowsAffected counts rows touched by DML.
	RowsAffected int64
	// RowCount is the total number of result rows streamed.
	RowCount int64
}

// Error terminates a failed request.
type Error struct {
	Code    uint16
	Message string
	// RetryAfterMS, when nonzero, hints how many milliseconds the client
	// should wait before retrying (CodeReadOnly: the degraded-probe
	// interval; CodeOverloaded: the shed backoff). Encoded as an optional
	// trailing field only when nonzero.
	RetryAfterMS uint32
}

// Error renders the server failure as a Go error string.
func (e *Error) Error() string {
	return fmt.Sprintf("server error (code %d): %s", e.Code, e.Message)
}

// RetryAfter converts the hint to a duration (0 = no hint).
func (e *Error) RetryAfter() time.Duration {
	return time.Duration(e.RetryAfterMS) * time.Millisecond
}

func (*Introspect) wireType() byte       { return TypeIntrospect }
func (*IntrospectResult) wireType() byte { return TypeIntrospectResult }
func (*Subscribe) wireType() byte        { return TypeSubscribe }
func (*Subscribed) wireType() byte       { return TypeSubscribed }
func (*Delta) wireType() byte            { return TypeDelta }

func (*Hello) wireType() byte     { return TypeHello }
func (*Welcome) wireType() byte   { return TypeWelcome }
func (*Query) wireType() byte     { return TypeQuery }
func (*Set) wireType() byte       { return TypeSet }
func (*Ping) wireType() byte      { return TypePing }
func (*Pong) wireType() byte      { return TypePong }
func (*Cancel) wireType() byte    { return TypeCancel }
func (*Stats) wireType() byte     { return TypeStats }
func (*StatsText) wireType() byte { return TypeStatsText }
func (*Close) wireType() byte     { return TypeClose }
func (*RowHeader) wireType() byte { return TypeRowHeader }
func (*RowBatch) wireType() byte  { return TypeRowBatch }
func (*Done) wireType() byte      { return TypeDone }
func (*Error) wireType() byte     { return TypeError }

// ErrFrameTooLarge is returned when a frame's length prefix exceeds
// MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrBadTraceID reports a Query frame carrying a malformed trace ID (not 16
// lowercase hex digits). Decode errors wrap it, so peers can classify the
// failure with errors.Is.
var ErrBadTraceID = errors.New("wire: malformed trace id")

// errShort is the shared truncated-payload decode error.
var errShort = errors.New("wire: truncated payload")

// WriteMessage encodes m as one frame on w.
func WriteMessage(w io.Writer, m Message) error {
	payload, err := appendPayload(nil, m)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := make([]byte, 5, 5+len(payload))
	hdr[0] = m.wireType()
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	_, err = w.Write(append(hdr, payload...))
	return err
}

// ReadMessage decodes the next frame from r. It returns io.EOF only on a
// clean boundary (no partial frame read); a frame truncated mid-way surfaces
// as io.ErrUnexpectedEOF.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := ReadMessageTimed(r)
	return m, err
}

// ReadMessageTimed decodes the next frame and reports how long reading and
// decoding it took, measured from after the first header byte arrived — so
// idle time waiting for the client to speak is excluded and the duration is
// the wire-decode cost of the frame itself. The server uses it to attach a
// wire_decode span to query traces.
func ReadMessageTimed(r io.Reader) (Message, time.Duration, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, time.Since(start), err
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > MaxFrame {
		return nil, time.Since(start), ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, time.Since(start), err
	}
	m, err := decodePayload(hdr[0], payload)
	return m, time.Since(start), err
}

// appendPayload encodes m's payload (everything after the frame header).
func appendPayload(b []byte, m Message) ([]byte, error) {
	switch m := m.(type) {
	case *Hello:
		b = append(b, Magic...)
		b = appendUint32(b, m.Version)
	case *Welcome:
		b = appendUint32(b, m.Version)
		b = appendString(b, m.Server)
	case *Query:
		b = appendString(b, m.SQL)
		if m.TraceID != "" {
			if !obs.ValidTraceID(m.TraceID) {
				return nil, fmt.Errorf("%w: %q", ErrBadTraceID, m.TraceID)
			}
			// Optional tail; omitted entirely when untraced.
			b = appendString(b, m.TraceID)
		}
	case *Set:
		b = appendString(b, m.Name)
		b = appendString(b, m.Value)
	case *Ping, *Pong, *Cancel, *Stats, *Close:
		// no payload
	case *Introspect:
		b = appendString(b, m.What)
	case *IntrospectResult:
		b = appendString(b, m.What)
		b = appendString(b, m.JSON)
	case *Subscribe:
		b = appendString(b, m.View)
		b = appendUint64(b, m.Token)
	case *Subscribed:
		b = appendUint64(b, m.Seq)
		if m.Snapshot {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case *Delta:
		b = appendString(b, m.View)
		b = appendUint64(b, m.Seq)
		b = append(b, m.Kind)
		b = appendUint64(b, uint64(m.Group))
		b = appendUint32(b, uint32(len(m.Members)))
		for _, id := range m.Members {
			b = appendUint64(b, uint64(id))
		}
		b = appendUint32(b, uint32(len(m.Merged)))
		for _, id := range m.Merged {
			b = appendUint64(b, uint64(id))
		}
	case *StatsText:
		b = appendString(b, m.Text)
	case *RowHeader:
		b = appendUint32(b, uint32(len(m.Columns)))
		for _, c := range m.Columns {
			b = appendString(b, c)
		}
	case *RowBatch:
		b = appendUint32(b, uint32(len(m.Rows)))
		for _, row := range m.Rows {
			b = appendUint32(b, uint32(len(row)))
			for _, v := range row {
				b = appendValue(b, v)
			}
		}
	case *Done:
		b = appendUint64(b, uint64(m.RowsAffected))
		b = appendUint64(b, uint64(m.RowCount))
	case *Error:
		b = append(b, byte(m.Code>>8), byte(m.Code))
		b = appendString(b, m.Message)
		// Optional trailing retry-after hint; omitted when zero.
		if m.RetryAfterMS != 0 {
			b = appendUint32(b, m.RetryAfterMS)
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode %T", m)
	}
	return b, nil
}

// decodePayload decodes one frame payload into its message.
func decodePayload(typ byte, b []byte) (Message, error) {
	d := &decoder{b: b}
	var m Message
	switch typ {
	case TypeHello:
		magic := d.bytes(4)
		v := d.uint32()
		if d.err == nil && string(magic) != Magic {
			return nil, fmt.Errorf("wire: bad magic %q", magic)
		}
		m = &Hello{Version: v}
	case TypeWelcome:
		m = &Welcome{Version: d.uint32(), Server: d.string()}
	case TypeQuery:
		q := &Query{SQL: d.string()}
		if d.err == nil && d.off < len(d.b) {
			q.TraceID = d.string()
			if d.err == nil && !obs.ValidTraceID(q.TraceID) {
				return nil, fmt.Errorf("%w: %q", ErrBadTraceID, q.TraceID)
			}
		}
		m = q
	case TypeSet:
		m = &Set{Name: d.string(), Value: d.string()}
	case TypePing:
		m = &Ping{}
	case TypePong:
		m = &Pong{}
	case TypeCancel:
		m = &Cancel{}
	case TypeStats:
		m = &Stats{}
	case TypeIntrospect:
		m = &Introspect{What: d.string()}
	case TypeIntrospectResult:
		m = &IntrospectResult{What: d.string(), JSON: d.string()}
	case TypeSubscribe:
		m = &Subscribe{View: d.string(), Token: d.uint64()}
	case TypeSubscribed:
		s := &Subscribed{Seq: d.uint64()}
		if f := d.bytes(1); d.err == nil {
			s.Snapshot = f[0] != 0
		}
		m = s
	case TypeDelta:
		dl := &Delta{View: d.string(), Seq: d.uint64()}
		if k := d.bytes(1); d.err == nil {
			dl.Kind = k[0]
		}
		dl.Group = int64(d.uint64())
		n := d.count()
		dl.Members = make([]int64, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			dl.Members = append(dl.Members, int64(d.uint64()))
		}
		n = d.count()
		dl.Merged = make([]int64, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			dl.Merged = append(dl.Merged, int64(d.uint64()))
		}
		m = dl
	case TypeStatsText:
		m = &StatsText{Text: d.string()}
	case TypeClose:
		m = &Close{}
	case TypeRowHeader:
		n := d.count()
		cols := make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			cols = append(cols, d.string())
		}
		m = &RowHeader{Columns: cols}
	case TypeRowBatch:
		n := d.count()
		rows := make([]engine.Row, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			w := d.count()
			row := make(engine.Row, 0, w)
			for j := 0; j < w && d.err == nil; j++ {
				row = append(row, d.value())
			}
			rows = append(rows, row)
		}
		m = &RowBatch{Rows: rows}
	case TypeDone:
		m = &Done{RowsAffected: int64(d.uint64()), RowCount: int64(d.uint64())}
	case TypeError:
		code := d.bytes(2)
		msg := d.string()
		var retryMS uint32
		// Optional trailing retry-after hint (nonzero only).
		if d.err == nil && d.off < len(d.b) {
			retryMS = d.uint32()
		}
		if d.err == nil {
			m = &Error{Code: uint16(code[0])<<8 | uint16(code[1]), Message: msg, RetryAfterMS: retryMS}
		}
	default:
		return nil, fmt.Errorf("wire: unknown message type 0x%02x", typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != d.off {
		return nil, fmt.Errorf("wire: %d trailing bytes after message type 0x%02x", len(d.b)-d.off, typ)
	}
	return m, nil
}

// --- primitive encoding ---

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendString(b []byte, s string) []byte {
	b = appendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendValue encodes one typed engine value: a type tag byte followed by a
// fixed- or length-prefixed payload. Floats ship as raw IEEE bits, so every
// bit pattern (±0, NaN payloads) round-trips and the server's results stay
// bit-identical to embedded execution.
func appendValue(b []byte, v engine.Value) []byte {
	b = append(b, byte(v.T))
	switch v.T {
	case engine.TypeNull:
	case engine.TypeInt:
		b = appendUint64(b, uint64(v.I))
	case engine.TypeFloat:
		b = appendUint64(b, math.Float64bits(v.F))
	case engine.TypeString:
		b = appendString(b, v.S)
	case engine.TypeBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// decoder is a cursor over a frame payload; the first error sticks.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b)-d.off < n {
		d.err = errShort
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// count reads a uint32 element count and sanity-bounds it against the bytes
// actually remaining, so a corrupt count cannot pre-allocate gigabytes.
func (d *decoder) count() int {
	n := d.uint32()
	if d.err == nil && int(n) > len(d.b)-d.off {
		d.err = errShort
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count()
	b := d.bytes(n)
	if d.err != nil {
		return ""
	}
	return string(b)
}

func (d *decoder) value() engine.Value {
	tb := d.bytes(1)
	if d.err != nil {
		return engine.Null
	}
	switch t := engine.Type(tb[0]); t {
	case engine.TypeNull:
		return engine.Null
	case engine.TypeInt:
		return engine.NewInt(int64(d.uint64()))
	case engine.TypeFloat:
		return engine.NewFloat(math.Float64frombits(d.uint64()))
	case engine.TypeString:
		return engine.NewString(d.string())
	case engine.TypeBool:
		b := d.bytes(1)
		if d.err != nil {
			return engine.Null
		}
		return engine.NewBool(b[0] != 0)
	default:
		d.err = fmt.Errorf("wire: unknown value type 0x%02x", tb[0])
		return engine.Null
	}
}
