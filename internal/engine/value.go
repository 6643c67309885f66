// Package engine is the relational substrate the SGB operators are embedded
// in: an in-memory column catalog, a SQL dialect extended with the paper's
// DISTANCE-TO-ALL / DISTANCE-TO-ANY grammar, and a Volcano-style executor
// with scans, filters, hash joins, sorting, standard hash aggregation and the
// two similarity group-by physical operators.
//
// The engine plays the role PostgreSQL plays in the paper (§8.2): it lets
// the SGB operators run inside a query pipeline, interleaved with joins,
// predicates and ordinary aggregation, so that operator overhead can be
// measured against the standard Group-By on the same footing.
package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the engine's value types.
type Type uint8

const (
	// TypeNull is the type of the SQL NULL value.
	TypeNull Type = iota
	// TypeInt is a 64-bit signed integer.
	TypeInt
	// TypeFloat is a 64-bit IEEE float.
	TypeFloat
	// TypeString is a UTF-8 string.
	TypeString
	// TypeBool is a boolean.
	TypeBool
)

// String names the type the way the SQL dialect spells it.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps SQL type names onto engine types.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return TypeString, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("engine: unknown type %q", s)
	}
}

// Value is one SQL value. Values are comparable with == (all fields are
// comparable). B sits next to T so the struct packs into 40 bytes.
type Value struct {
	// T is the value's type; the corresponding payload field below is the
	// only meaningful one.
	T Type
	B bool
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{T: TypeNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{T: TypeInt, I: v} }

// NewFloat returns a float value. Every NaN is stored as math.NaN(): Go
// leaves a NaN result's sign and payload unspecified, so two evaluations of
// one expression could otherwise disagree bit for bit.
func NewFloat(v float64) Value {
	if v != v {
		v = math.NaN()
	}
	return Value{T: TypeFloat, F: v}
}

// NewString returns a string value.
func NewString(v string) Value { return Value{T: TypeString, S: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{T: TypeBool, B: v} }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsFloat coerces a numeric value to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.T {
	case TypeInt:
		return float64(v.I), nil
	case TypeFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("engine: %s is not numeric", v)
	}
}

// AsInt coerces a numeric value to int64 (floats truncate).
func (v Value) AsInt() (int64, error) {
	switch v.T {
	case TypeInt:
		return v.I, nil
	case TypeFloat:
		return int64(v.F), nil
	default:
		return 0, fmt.Errorf("engine: %s is not numeric", v)
	}
}

// Truthy interprets v as a WHERE-clause predicate result. NULL is false.
func (v Value) Truthy() bool { return v.T == TypeBool && v.B }

// String renders v for result display.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values: -1, 0 or +1. NULL sorts before everything.
// INT against FLOAT compares exactly, without rounding the int to float;
// other cross-type comparisons are errors. A NaN compares equal to every
// number.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	switch {
	case a.T == TypeInt && b.T == TypeInt:
		return cmp.Compare(a.I, b.I), nil
	case a.T == TypeFloat && b.T == TypeFloat:
		return cmpFloat(a.F, b.F), nil
	case a.T == TypeInt && b.T == TypeFloat:
		return cmpIntFloat(a.I, b.F), nil
	case a.T == TypeFloat && b.T == TypeInt:
		return cmpFloatInt(a.F, b.I), nil
	case a.T == TypeString && b.T == TypeString:
		return strings.Compare(a.S, b.S), nil
	case a.T == TypeBool && b.T == TypeBool:
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("engine: cannot compare %s and %s", a.T, b.T)
}

// cmpFloat orders two floats; a NaN is equal to everything.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpIntFloat orders i against f exactly: f's integral part, saturated at
// ±2^63, against i, then f's fraction. A NaN is equal to every int.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f >= exactInt64Bound:
		return -1
	case f < -exactInt64Bound:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

func cmpFloatInt(f float64, i int64) int { return -cmpIntFloat(i, f) }

// Row is one tuple.
type Row []Value

// Clone returns a copy of the row that does not share storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// appendKey appends the hash-operator key of vals to dst. Each value is one
// type tag byte, then its payload: 8 little-endian bytes for an int or a
// float's raw bits, a uvarint length and the bytes for a string, nothing for
// NULL, true and false. The tag fixes the payload's length, so the encoding is
// injective over value sequences. Floats key by raw bits: 0.0 and -0.0 are
// different keys, a NaN equals only its own bit pattern, and FLOAT 3.0 is not
// INT 3 (the join canonicalizes first, see canonicalKeyValue).
//
// Callers reuse dst across rows and look up with m[string(dst)], which does
// not allocate; the key string is materialized only when it is inserted.
func appendKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		switch v.T {
		case TypeNull:
			dst = append(dst, 'n')
		case TypeInt:
			dst = binary.LittleEndian.AppendUint64(append(dst, 'i'), uint64(v.I))
		case TypeFloat:
			dst = binary.LittleEndian.AppendUint64(append(dst, 'f'), math.Float64bits(v.F))
		case TypeString:
			dst = binary.AppendUvarint(append(dst, 's'), uint64(len(v.S)))
			dst = append(dst, v.S...)
		case TypeBool:
			if v.B {
				dst = append(dst, 't')
			} else {
				dst = append(dst, 'b')
			}
		}
	}
	return dst
}
