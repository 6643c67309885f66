package engine

import (
	"fmt"
	"math"
	"testing"
)

// oracleCompile is the expression evaluator the compiler replaced, kept as
// the oracle compiled expressions are checked against: every operator's
// operands are boxed Values, and the arithmetic switches on the operator
// string and re-derives both operands' types for every row. It covers the
// literal, column, unary and binary operators FuzzCompiledExpr generates.
func oracleCompile(e Expr, schema Schema) (evalFn, error) {
	switch e := e.(type) {
	case *Literal:
		v := e.V
		return func(Row) (Value, error) { return v, nil }, nil
	case *ColumnRef:
		idx, err := schema.Resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) { return r[idx], nil }, nil
	case *UnaryExpr:
		x, err := oracleCompile(e.X, schema)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			return func(r Row) (Value, error) {
				v, err := x(r)
				if err != nil || v.IsNull() {
					return Null, err
				}
				switch v.T {
				case TypeInt:
					return NewInt(-v.I), nil
				case TypeFloat:
					return NewFloat(-v.F), nil
				}
				return Null, fmt.Errorf("engine: cannot negate %s", v.T)
			}, nil
		case "NOT":
			return func(r Row) (Value, error) {
				v, err := x(r)
				if err != nil || v.IsNull() {
					return Null, err
				}
				if v.T != TypeBool {
					return Null, fmt.Errorf("engine: NOT expects a boolean, got %s", v.T)
				}
				return NewBool(!v.B), nil
			}, nil
		}
	case *BinaryExpr:
		l, err := oracleCompile(e.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := oracleCompile(e.R, schema)
		if err != nil {
			return nil, err
		}
		return oracleBinary(e.Op, l, r)
	}
	return nil, fmt.Errorf("oracle: cannot compile %T", e)
}

func oracleBinary(op string, l, r evalFn) (evalFn, error) {
	switch op {
	case "AND", "OR":
		and := op == "AND"
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			if lv.T == TypeBool && lv.B != and {
				return NewBool(!and), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if rv.T == TypeBool && rv.B != and {
				return NewBool(!and), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			if lv.T != TypeBool || rv.T != TypeBool {
				return Null, fmt.Errorf("engine: %s expects booleans", op)
			}
			return NewBool(and), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			c, err := Compare(lv, rv)
			if err != nil {
				return Null, err
			}
			switch op {
			case "=":
				return NewBool(c == 0), nil
			case "<>":
				return NewBool(c != 0), nil
			case "<":
				return NewBool(c < 0), nil
			case "<=":
				return NewBool(c <= 0), nil
			case ">":
				return NewBool(c > 0), nil
			default:
				return NewBool(c >= 0), nil
			}
		}, nil
	case "+", "-", "*", "/":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return oracleArith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("oracle: unknown operator %q", op)
}

func oracleArith(op string, a, b Value) (Value, error) {
	ai, bi, af, bf, isInt, err := numericPair(a, b)
	if err != nil {
		return Null, fmt.Errorf("engine: %s requires numeric operands (%s, %s)", op, a.T, b.T)
	}
	if isInt && op != "/" {
		switch op {
		case "+":
			return NewInt(ai + bi), nil
		case "-":
			return NewInt(ai - bi), nil
		case "*":
			return NewInt(ai * bi), nil
		}
	}
	if isInt {
		af, bf = float64(ai), float64(bi)
	}
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null, fmt.Errorf("engine: division by zero")
		}
		return NewFloat(af / bf), nil
	}
	return Null, fmt.Errorf("engine: unknown arithmetic operator %q", op)
}

// numericPair coerces both operands to a common numeric representation,
// preferring integer arithmetic when both sides are integers.
func numericPair(a, b Value) (ai, bi int64, af, bf float64, isInt bool, err error) {
	if a.T == TypeInt && b.T == TypeInt {
		return a.I, b.I, 0, 0, true, nil
	}
	af, err = a.AsFloat()
	if err != nil {
		return
	}
	bf, err = b.AsFloat()
	return
}

// fuzzExprSchema is FuzzCompiledExpr's input: two INT and two FLOAT
// columns, a TEXT one, and s, typed INT the way inferType types a derived
// sum(int) column, which holds a FLOAT once the sum overflows.
var fuzzExprSchema = Schema{
	{Name: "i", T: TypeInt}, {Name: "j", T: TypeInt},
	{Name: "f", T: TypeFloat}, {Name: "g", T: TypeFloat},
	{Name: "t", T: TypeString}, {Name: "s", T: TypeInt},
}

var (
	fuzzInts   = []int64{0, 1, -1, 2, math.MaxInt64, math.MinInt64, 1<<53 + 1, 7}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 1, 1.5, -2.5, 1e308, math.NaN(), math.Inf(1)}
	fuzzCmpOps = []string{"=", "<>", "<", "<=", ">", ">="}
)

// fuzzExpr decodes an expression tree from data in prefix order, one opcode
// byte per node (b%16): 0 a column (next byte picks it), 1 an INT literal,
// 2 a FLOAT literal (next byte indexes fuzzInts / fuzzFloats), 3 NULL, 4 a
// TEXT literal, 5 a BOOL literal, 6–9 + - * /, 10–11 a comparison (next byte
// picks it), 12 AND, 13 OR, 14 NOT and 15 unary minus. Past depth 6, or
// when data runs out, every node is a leaf.
func fuzzExpr(data []byte, depth int) (Expr, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	op := next() % 16
	if depth >= 6 || len(data) == 0 {
		op %= 6
	}
	binary := func(name string) (Expr, []byte) {
		l, rest := fuzzExpr(data, depth+1)
		r, rest := fuzzExpr(rest, depth+1)
		return &BinaryExpr{Op: name, L: l, R: r}, rest
	}
	switch op {
	case 0:
		return &ColumnRef{Name: fuzzExprSchema[int(next())%len(fuzzExprSchema)].Name}, data
	case 1:
		return &Literal{V: NewInt(fuzzInts[next()%8])}, data
	case 2:
		return &Literal{V: NewFloat(fuzzFloats[next()%8])}, data
	case 3:
		return &Literal{V: Null}, data
	case 4:
		return &Literal{V: NewString("a")}, data
	case 5:
		return &Literal{V: NewBool(next()%2 == 0)}, data
	case 6, 7, 8, 9:
		return binary([]string{"+", "-", "*", "/"}[op-6])
	case 10, 11:
		return binary(fuzzCmpOps[int(next())%len(fuzzCmpOps)])
	case 12:
		return binary("AND")
	case 13:
		return binary("OR")
	}
	x, rest := fuzzExpr(data, depth+1)
	return &UnaryExpr{Op: map[byte]string{14: "NOT", 15: "-"}[op], X: x}, rest
}

// fuzzExprRow decodes one row of fuzzExprSchema from six bytes: a value of
// each column's type, or NULL, and for s an INT or a promoted FLOAT sum.
func fuzzExprRow(b []byte) Row {
	pick := func(k byte, v Value) Value {
		if k%8 == 7 {
			return Null
		}
		return v
	}
	return Row{
		pick(b[0], NewInt(fuzzInts[b[0]%8])),
		pick(b[1], NewInt(fuzzInts[b[1]%8])),
		pick(b[2], NewFloat(fuzzFloats[b[2]%8])),
		pick(b[3], NewFloat(fuzzFloats[b[3]%8])),
		pick(b[4], NewString(string('a'+rune(b[4]%3)))),
		[]Value{NewInt(5), NewFloat(1.8446744073709552e19), Null, NewInt(math.MaxInt64)}[b[5]%4],
	}
}

// renderExpr prints a fuzzed tree for failure messages.
func renderExpr(e Expr) string {
	switch e := e.(type) {
	case *ColumnRef:
		return e.Name
	case *Literal:
		if e.V.T == TypeString {
			return "'" + e.V.S + "'"
		}
		return e.V.String()
	case *UnaryExpr:
		return e.Op + "(" + renderExpr(e.X) + ")"
	case *BinaryExpr:
		return "(" + renderExpr(e.L) + " " + e.Op + " " + renderExpr(e.R) + ")"
	}
	return fmt.Sprintf("%T", e)
}

// checkCompiledExpr compiles e both ways and fails unless every row gives
// the same value, bit for bit, or the same error.
func checkCompiledExpr(t *testing.T, e Expr, schema Schema, rows []Row) {
	t.Helper()
	got, err := compileExpr(e, schema, nil)
	if err != nil {
		t.Fatalf("%s: compile: %v", renderExpr(e), err)
	}
	want, err := oracleCompile(e, schema)
	if err != nil {
		t.Fatalf("%s: oracle: %v", renderExpr(e), err)
	}
	for _, r := range rows {
		gv, gerr := got(r)
		wv, werr := want(r)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s over %v: compiled error %v, oracle error %v", renderExpr(e), r, gerr, werr)
		}
		if gerr == nil && !sameValue(gv, wv) {
			t.Fatalf("%s over %v: compiled %#v, oracle %#v", renderExpr(e), r, gv, wv)
		}
	}
}

// FuzzCompiledExpr checks the compiled expressions — operators bound at
// compile time, typed subtrees evaluated unboxed, literal-only subtrees
// folded — against the oracle over random trees and rows.
func FuzzCompiledExpr(f *testing.F) {
	rows := []byte{0, 1, 2, 3, 4, 0, 1, 7, 1, 2, 0, 1, 4, 4, 7, 5, 1, 2, 5, 5, 6, 6, 2, 3, 7, 3, 7, 7, 7, 3, 6, 2, 0, 7, 0, 1}
	for _, seed := range [][]byte{
		{9, 1, 1, 1, 0},                   // 1 / 0
		{9, 2, 2, 2, 0},                   // 1.0 / 0.0
		{6, 1, 4, 0, 0},                   // 9223372036854775807 + i: int64 overflow wraps
		{8, 15, 2, 0, 0, 2},               // -(0.0) * f: -0.0
		{7, 0, 5, 1, 1},                   // s - 1 over a sum(int) promoted to FLOAT
		{10, 4, 0, 0, 0, 2},               // i > f, exact across INT and FLOAT
		{12, 10, 2, 0, 0, 1, 3, 3},        // (i < 2) AND NULL
		{7, 8, 0, 2, 0, 3, 9, 0, 1, 1, 2}, // f*g - j/-1
	} {
		f.Add(seed, rows)
	}
	// (-(f) * f) with f = NaN: the NaN's sign and payload are unspecified.
	f.Add([]byte("8\x0f0202"), []byte("00&000"))
	f.Fuzz(func(t *testing.T, tree, data []byte) {
		e, _ := fuzzExpr(tree, 0)
		var rs []Row
		for len(data) >= 6 && len(rs) < 16 {
			rs = append(rs, fuzzExprRow(data[:6]))
			data = data[6:]
		}
		checkCompiledExpr(t, e, fuzzExprSchema, rs)
	})
}

// TestDerivedTypesNotTrusted runs arithmetic and a comparison over a derived
// column that inferType calls INT but that holds a FLOAT: the sum overflowed
// int64. The compiler must check the tag at run time, not trust the schema.
func TestDerivedTypesNotTrusted(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE n (v INT)",
		"INSERT INTO n VALUES (9223372036854775807), (9223372036854775807)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := db.Query("SELECT s - 1, s * 2, s > 0 FROM (SELECT sum(v) AS s FROM n) AS d")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	s := NewFloat(2 * float64(math.MaxInt64))
	sch := Schema{{Name: "s", T: TypeInt}}
	for i, src := range []string{"s - 1", "s * 2", "s > 0"} {
		e, err := parseExprForTest(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleCompile(e, sch)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want(Row{s})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][i]; !sameValue(got, wv) {
			t.Errorf("%s: got %#v, oracle %#v", src, got, wv)
		}
		if i < 2 && res.Rows[0][i].T != TypeFloat {
			t.Errorf("%s: got %s, want the promoted FLOAT", src, res.Rows[0][i].T)
		}
		checkCompiledExpr(t, e, sch, []Row{{s}, {NewInt(3)}, {Null}})
	}
}

// parseExprForTest parses one expression through a SELECT list.
func parseExprForTest(src string) (Expr, error) {
	stmt, err := Parse("SELECT " + src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok || len(sel.Select) != 1 {
		return nil, fmt.Errorf("%q is not one select item", src)
	}
	return sel.Select[0].Expr, nil
}
