package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sgb/internal/engine"
)

// FuzzReadMessage hammers the frame decoder with arbitrary bytes. The decoder
// guards the server's front door — every byte a client sends flows through
// it — so it must never panic, never over-allocate from a corrupt length
// prefix, and decode successfully only into messages that re-encode
// canonically.
//
// The seed corpus covers a valid encoding of every message type plus the
// corrupted-frame shapes TestMalformedFrames checks by hand (truncations,
// oversized lengths, unknown types, bad magic, trailing garbage).
func FuzzReadMessage(f *testing.F) {
	encode := func(m Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// One valid frame per message type.
	valid := []Message{
		&Hello{Version: MaxVersion},
		&Welcome{Version: MaxVersion, Server: "sgbd/test"},
		&Query{SQL: "SELECT count(*) FROM t GROUP BY x DISTANCE-TO-ANY L2 WITHIN 0.5"},
		&Query{SQL: "SELECT 1", TraceID: "00aabbccddeeff11"},
		&Introspect{What: IntrospectProcessList},
		&IntrospectResult{What: IntrospectSlowLog, JSON: `[{"trace_id":"00aabbccddeeff11"}]`},
		&Set{Name: "batch_size", Value: "1024"},
		&Ping{},
		&Pong{},
		&Cancel{},
		&Stats{},
		&StatsText{Text: "sgb_queries_total 42\n"},
		&Close{},
		&RowHeader{Columns: []string{"id", "lat", "lon"}},
		&RowBatch{Rows: []engine.Row{
			{engine.NewInt(1), engine.NewFloat(0.5), engine.NewString("a")},
			{engine.Null, engine.NewBool(true), engine.NewFloat(math.NaN())},
		}},
		&Done{RowsAffected: 3, RowCount: 9},
		&Error{Code: CodeQuery, Message: "no such table"},
	}
	for _, m := range valid {
		f.Add(encode(m))
	}

	// Corrupted-frame seeds mirroring TestMalformedFrames.
	f.Add([]byte{TypePing, 0, 0})              // truncated header
	f.Add(encode(&Query{SQL: "SELECT 1"})[:8]) // truncated payload
	oversized := []byte{TypeQuery, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(oversized[1:], MaxFrame+1)
	f.Add(oversized)                // oversized length prefix
	f.Add([]byte{0x7f, 0, 0, 0, 0}) // unknown message type
	badMagic := encode(&Hello{Version: MaxVersion})
	copy(badMagic[5:], "HTTP")
	f.Add(badMagic) // bad magic
	trailing := encode(&Pong{})
	trailing[4] = 7                       // lie about the payload length, then supply garbage
	f.Add(append(trailing, "garbage"...)) // trailing bytes inside the frame
	badCount := encode(&RowHeader{Columns: []string{"a"}})
	binary.BigEndian.PutUint32(badCount[5:], 1<<30)
	f.Add(badCount) // corrupt element count
	badValue := encode(&RowBatch{Rows: []engine.Row{{engine.NewInt(1)}}})
	badValue[13] = 0xee
	f.Add(badValue) // unknown value type tag
	badTrace := encode(&Query{SQL: "SELECT 1"})
	badTrace = append(badTrace, 0, 0, 0, 3, 'x', 'y', 'z')
	binary.BigEndian.PutUint32(badTrace[1:5], uint32(len(badTrace)-5))
	f.Add(badTrace) // malformed trailing trace ID

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		// A decoded message must re-encode, and its encoding must be a fixed
		// point: decode(encode(m)) == m, compared byte-wise so float NaN
		// payloads (which break reflect.DeepEqual) still round-trip exactly.
		first := encode(m)
		m2, err := ReadMessage(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decoding own encoding of %T failed: %v\ninput: %x", m, err, data)
		}
		second := encode(m2)
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not canonical for %T:\n first: %x\nsecond: %x", m, first, second)
		}
	})
}
