package engine

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{Null, "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	if f, err := NewInt(3).AsFloat(); err != nil || f != 3 {
		t.Errorf("int AsFloat = %v, %v", f, err)
	}
	if i, err := NewFloat(3.9).AsInt(); err != nil || i != 3 {
		t.Errorf("float AsInt = %v, %v", i, err)
	}
	if _, err := NewString("x").AsFloat(); err == nil {
		t.Error("string coerced to float")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull wrong")
	}
	if Null.Truthy() || NewBool(false).Truthy() || !NewBool(true).Truthy() {
		t.Error("Truthy wrong")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("cross-type string/int comparison succeeded")
	}
}

func key(vals ...Value) string { return string(appendKey(nil, vals)) }

func TestKeyInjective(t *testing.T) {
	// Values that render similarly must still key differently.
	pairs := [][2][]Value{
		{{NewInt(1)}, {NewString("1")}},
		{{NewString("a|b")}, {NewString("a"), NewString("b")}},
		{{NewString("")}, {Null}},
		{{NewBool(true)}, {NewInt(1)}},
		{{NewFloat(1)}, {NewInt(1)}},
		{{NewString("12")}, {NewString("1"), NewString("2")}},
	}
	for _, p := range pairs {
		if key(p[0]...) == key(p[1]...) {
			t.Errorf("key collision between %v and %v", p[0], p[1])
		}
	}
	if key(NewInt(5), NewString("x")) != key(NewInt(5), NewString("x")) {
		t.Error("key not deterministic")
	}
}

// decimalKey is the engine's former hash-key encoding: per value a type tag,
// a decimal or hex rendering and a '|' terminator. It stays as the oracle
// appendKey must partition values exactly like.
func decimalKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.T {
		case TypeNull:
			sb.WriteByte('n')
		case TypeInt:
			sb.WriteByte('i')
			sb.WriteString(strconv.FormatInt(v.I, 10))
		case TypeFloat:
			sb.WriteByte('f')
			sb.WriteString(strconv.FormatUint(math.Float64bits(v.F), 16))
		case TypeString:
			sb.WriteByte('s')
			sb.WriteString(strconv.Itoa(len(v.S)))
			sb.WriteByte(':')
			sb.WriteString(v.S)
		case TypeBool:
			if v.B {
				sb.WriteByte('t')
			} else {
				sb.WriteByte('b')
			}
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// checkKeyPartition fails unless appendKey puts a and b in the same group
// exactly when the decimal oracle does.
func checkKeyPartition(t *testing.T, a, b []Value) bool {
	t.Helper()
	same := key(a...) == key(b...)
	if want := decimalKey(a) == decimalKey(b); same != want {
		t.Errorf("%v vs %v: appendKey same=%v, decimal oracle same=%v", a, b, same, want)
	}
	return same
}

// TestKeyPartition pins appendKey to the oracle's partition on the values
// where an encoding could slip: separators and digits inside strings, signed
// zero, NaN, the int64 boundaries, and the join's canonical int/float keys.
func TestKeyPartition(t *testing.T) {
	nan := math.NaN()
	canon := func(vs ...Value) []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = canonicalKeyValue(v)
		}
		return out
	}
	cases := []struct {
		name string
		a, b []Value
		same bool
	}{
		{"separator in string", []Value{NewString("a|b")}, []Value{NewString("a"), NewString("b")}, false},
		{"colon and digits", []Value{NewString("1:x")}, []Value{NewString("1"), NewString("x")}, false},
		{"decimal lookalike", []Value{NewString("i1|")}, []Value{NewInt(1)}, false},
		{"length prefix lookalike", []Value{NewString("s1:a")}, []Value{NewString("a")}, false},
		{"digits split", []Value{NewString("12"), NewString("3")}, []Value{NewString("1"), NewString("23")}, false},
		{"string tag inside string", []Value{NewString("asb")}, []Value{NewString("a"), NewString("b")}, false},
		{"NULL tag inside string", []Value{NewString("an")}, []Value{NewString("a"), Null}, false},
		{"equal strings", []Value{NewString("x|1:2")}, []Value{NewString("x|1:2")}, true},
		{"zero vs negative zero", []Value{NewFloat(0)}, []Value{NewFloat(math.Copysign(0, -1))}, false},
		{"NaN equals its own bits", []Value{NewFloat(nan)}, []Value{NewFloat(nan)}, true},
		{"NaN payloads differ", []Value{NewFloat(nan)}, []Value{{T: TypeFloat, F: math.Float64frombits(math.Float64bits(nan) ^ 1)}}, false},
		{"max int64", []Value{NewInt(math.MaxInt64)}, []Value{NewInt(math.MaxInt64)}, true},
		{"max int64 neighbours", []Value{NewInt(math.MaxInt64)}, []Value{NewInt(math.MaxInt64 - 1)}, false},
		{"min int64 vs max", []Value{NewInt(math.MinInt64)}, []Value{NewInt(math.MaxInt64)}, false},
		{"min int64 vs -1", []Value{NewInt(math.MinInt64)}, []Value{NewInt(-1)}, false},
		{"2^53 vs 2^53+1 in a join", canon(NewInt(1 << 53)), canon(NewInt(1<<53 + 1)), false},
		{"2^53 int vs float in a join", canon(NewInt(1 << 53)), canon(NewFloat(1 << 53)), true},
		{"INT 3 = FLOAT 3.0 in a join", canon(NewInt(3)), canon(NewFloat(3)), true},
		{"INT 3 vs FLOAT 3.0 in GROUP BY", []Value{NewInt(3)}, []Value{NewFloat(3)}, false},
		{"2^63 float stays float in a join", canon(NewFloat(1 << 63)), canon(NewInt(math.MinInt64)), false},
		{"-2^63 float folds in a join", canon(NewFloat(-(1 << 63))), canon(NewInt(math.MinInt64)), true},
		{"NULL vs empty string", []Value{Null}, []Value{NewString("")}, false},
		{"booleans", []Value{NewBool(true), NewBool(false)}, []Value{NewBool(true), NewBool(false)}, true},
		{"bool vs int", []Value{NewBool(true)}, []Value{NewInt(1)}, false},
		{"row prefix", []Value{NewInt(1)}, []Value{NewInt(1), Null}, false},
	}
	for _, c := range cases {
		if got := checkKeyPartition(t, c.a, c.b); got != c.same {
			t.Errorf("%s: same key = %v, want %v", c.name, got, c.same)
		}
	}

	// The same split seen through SQL: INT 3 and FLOAT 3.0 join, but group
	// apart.
	db := NewDB()
	mustExec(t, db, "CREATE TABLE kv (k INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO kv VALUES (3, 0.0), (4, 3.0)")
	if got := mustExec(t, db, "SELECT count(*) FROM kv a, kv b WHERE a.k = b.f").Rows[0][0]; got != NewInt(1) {
		t.Errorf("INT 3 = FLOAT 3.0 join count = %v, want 1", got)
	}
	res := mustExec(t, db, "SELECT count(*) FROM kv GROUP BY CASE WHEN k = 3 THEN k ELSE f END")
	if len(res.Rows) != 2 {
		t.Errorf("INT 3 and FLOAT 3.0 formed %d groups, want 2", len(res.Rows))
	}
}

// fuzzValue maps one byte onto a small value domain, so two fuzzed rows
// collide often enough for the partition check to see equal keys.
func fuzzValue(b byte, s1, s2 string) Value {
	ints := []int64{0, 1, -1, 3, 12, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 3, 1.5, 1 << 53, math.Inf(1), -(1 << 63)}
	strs := []string{"", "|", ":", "1", "12", "i1|", "s1:a", "a|b", "n", "sa", s1, s2}
	switch i := int(b >> 3); b & 7 {
	case 0:
		return Null
	case 1:
		return NewBool(i&1 == 1)
	case 2, 3:
		return NewInt(ints[i%len(ints)])
	case 4:
		return NewInt(int64(i) - 16)
	case 5:
		return NewFloat(floats[i%len(floats)])
	default:
		return NewString(strs[i%len(strs)])
	}
}

// FuzzKeyPartition checks appendKey(a) == appendKey(b) ⇔ oracle(a) ==
// oracle(b) over mixed-type rows, each byte of a and b choosing one value.
func FuzzKeyPartition(f *testing.F) {
	f.Add([]byte{0, 9, 18}, []byte{0, 9, 18}, "a|b", "1:")
	f.Add([]byte{6, 14}, []byte{22}, "12", "3")
	f.Add([]byte{5, 13}, []byte{13, 5}, "", "|")
	f.Add([]byte{42, 50}, []byte{42, 58}, "s1:", "i1|")
	f.Fuzz(func(t *testing.T, a, b []byte, s1, s2 string) {
		row := func(bs []byte) []Value {
			out := make([]Value, len(bs))
			for i, x := range bs {
				out[i] = fuzzValue(x, s1, s2)
			}
			return out
		}
		checkKeyPartition(t, row(a), row(b))
	})
}

// TestValueSize pins Value at 40 bytes: B packs beside the type tag.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 40", got)
	}
}

func TestParseTypeNames(t *testing.T) {
	for in, want := range map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "bigint": TypeInt,
		"float": TypeFloat, "DOUBLE": TypeFloat, "numeric": TypeFloat,
		"text": TypeString, "VARCHAR": TypeString,
		"bool": TypeBool, "BOOLEAN": TypeBool,
	} {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType accepted unknown type")
	}
}

func TestSchemaResolve(t *testing.T) {
	s := Schema{
		{Table: "t1", Name: "a", T: TypeInt},
		{Table: "t1", Name: "b", T: TypeInt},
		{Table: "t2", Name: "b", T: TypeFloat},
	}
	if i, err := s.Resolve("", "a"); err != nil || i != 0 {
		t.Errorf("Resolve a = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "b"); err == nil {
		t.Error("ambiguous unqualified b resolved")
	}
	if i, err := s.Resolve("t2", "b"); err != nil || i != 2 {
		t.Errorf("Resolve t2.b = %d, %v", i, err)
	}
	if i, err := s.Resolve("T1", "B"); err != nil || i != 1 {
		t.Errorf("case-insensitive resolve = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "zz"); err == nil {
		t.Error("unknown column resolved")
	}
	if _, err := s.Resolve("t3", "a"); err == nil {
		t.Error("unknown qualifier resolved")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl, err := c.Create("Points", Schema{{Name: "x", T: TypeFloat}, {Name: "y", T: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("points", nil); err == nil {
		t.Error("duplicate create (case-insensitive) succeeded")
	}
	if _, err := c.Get("POINTS"); err != nil {
		t.Error("case-insensitive lookup failed")
	}
	if err := tbl.Insert(Row{NewInt(1), NewFloat(2)}); err != nil {
		t.Fatalf("insert with int->float coercion failed: %v", err)
	}
	if tbl.Rows[0][0].T != TypeFloat {
		t.Error("int was not coerced to declared float column")
	}
	if err := tbl.Insert(Row{NewFloat(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(Row{NewString("x"), NewFloat(0)}); err == nil {
		t.Error("type mismatch accepted")
	}
	c.Drop("points")
	if _, err := c.Get("points"); err == nil {
		t.Error("dropped table still resolvable")
	}
}
