package engine

import (
	"fmt"
	"math"
	"strings"
)

// evalFn evaluates a compiled expression against an input row.
type evalFn func(Row) (Value, error)

// compileExpr resolves column references against schema and returns an
// evaluator. pc supplies subquery planning for IN (SELECT ...); it may be
// nil when the expression cannot contain subqueries.
func compileExpr(e Expr, schema Schema, pc *planContext) (evalFn, error) {
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
		x, err := compileExpr(e.X, schema, pc)
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
		return nil, fmt.Errorf("engine: unknown unary operator %q", e.Op)

	case *BinaryExpr:
		l, err := compileExpr(e.L, schema, pc)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(e.R, schema, pc)
		if err != nil {
			return nil, err
		}
		return compileBinary(e.Op, l, r)

	case *FuncCall:
		if isAggregateName(e.Name) {
			return nil, fmt.Errorf("engine: aggregate %s() is not allowed here", e.Name)
		}
		return compileScalarCall(e, schema, pc)

	case *InList:
		x, err := compileExpr(e.X, schema, pc)
		if err != nil {
			return nil, err
		}
		items := make([]evalFn, len(e.Items))
		for i, it := range e.Items {
			if items[i], err = compileExpr(it, schema, pc); err != nil {
				return nil, err
			}
		}
		not := e.Not
		return func(r Row) (Value, error) {
			v, err := x(r)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			for _, it := range items {
				iv, err := it(r)
				if err != nil {
					return Null, err
				}
				c, err := Compare(v, iv)
				if err != nil {
					return Null, err
				}
				if c == 0 && !iv.IsNull() {
					return NewBool(!not), nil
				}
			}
			return NewBool(not), nil
		}, nil

	case *CaseExpr:
		var operand evalFn
		if e.Operand != nil {
			var err error
			if operand, err = compileExpr(e.Operand, schema, pc); err != nil {
				return nil, err
			}
		}
		conds := make([]evalFn, len(e.Whens))
		results := make([]evalFn, len(e.Whens))
		for i, w := range e.Whens {
			var err error
			if conds[i], err = compileExpr(w.Cond, schema, pc); err != nil {
				return nil, err
			}
			if results[i], err = compileExpr(w.Result, schema, pc); err != nil {
				return nil, err
			}
		}
		var elseFn evalFn
		if e.Else != nil {
			var err error
			if elseFn, err = compileExpr(e.Else, schema, pc); err != nil {
				return nil, err
			}
		}
		return func(r Row) (Value, error) {
			var opVal Value
			if operand != nil {
				v, err := operand(r)
				if err != nil {
					return Null, err
				}
				opVal = v
			}
			for i, cond := range conds {
				cv, err := cond(r)
				if err != nil {
					return Null, err
				}
				matched := false
				if operand != nil {
					if !opVal.IsNull() && !cv.IsNull() {
						c, err := Compare(opVal, cv)
						if err != nil {
							return Null, err
						}
						matched = c == 0
					}
				} else {
					matched = cv.Truthy()
				}
				if matched {
					return results[i](r)
				}
			}
			if elseFn != nil {
				return elseFn(r)
			}
			return Null, nil
		}, nil

	case *ScalarSubquery:
		if pc == nil {
			return nil, fmt.Errorf("engine: subquery is not allowed here")
		}
		var cached *Value
		query := e.Query
		planCtx := pc
		return func(Row) (Value, error) {
			if cached == nil {
				rows, rschema, err := planCtx.run(query)
				if err != nil {
					return Null, err
				}
				if len(rschema) != 1 {
					return Null, fmt.Errorf("engine: scalar subquery must return one column, got %d", len(rschema))
				}
				if len(rows) > 1 {
					return Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(rows))
				}
				v := Null
				if len(rows) == 1 {
					v = rows[0][0]
				}
				cached = &v
			}
			return *cached, nil
		}, nil

	case *InSubquery:
		if pc == nil {
			return nil, fmt.Errorf("engine: subquery is not allowed here")
		}
		x, err := compileExpr(e.X, schema, pc)
		if err != nil {
			return nil, err
		}
		// Uncorrelated: materialize the subquery once, lazily.
		var set map[string]bool
		var keyBuf []byte
		var ints, floats int // the set's INT and FLOAT keys
		probe := func(v Value) bool {
			keyBuf = appendKey(keyBuf[:0], []Value{v})
			return set[string(keyBuf)]
		}
		not := e.Not
		query := e.Query
		planCtx := pc
		return func(r Row) (Value, error) {
			if set == nil {
				rows, rschema, err := planCtx.run(query)
				if err != nil {
					return Null, err
				}
				if len(rschema) != 1 {
					return Null, fmt.Errorf("engine: IN subquery must return one column, got %d", len(rschema))
				}
				set = make(map[string]bool, len(rows))
				for _, row := range rows {
					switch row[0].T {
					case TypeInt:
						ints++
					case TypeFloat:
						floats++
					}
					keyBuf = appendKey(keyBuf[:0], row[:1])
					set[string(keyBuf)] = true
				}
			}
			v, err := x(r)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			// Match integer keys against float sets and vice versa by
			// probing the other encoding too, when the set holds any: a float
			// converts only when it is integral and inside the int64 range.
			hit := probe(v)
			if !hit {
				if v.T == TypeInt && floats > 0 {
					hit = probe(NewFloat(float64(v.I)))
				} else if c := canonicalKeyValue(v); v.T == TypeFloat && c.T == TypeInt && ints > 0 {
					hit = probe(c)
				}
			}
			return NewBool(hit != not), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile expression %T", e)
}

func compileBinary(op string, l, r evalFn) (evalFn, error) {
	switch op {
	case "AND":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			if lv.T == TypeBool && !lv.B {
				return NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if rv.T == TypeBool && !rv.B {
				return NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			if lv.T != TypeBool || rv.T != TypeBool {
				return Null, fmt.Errorf("engine: AND expects booleans")
			}
			return NewBool(true), nil
		}, nil
	case "OR":
		return func(row Row) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			if lv.T == TypeBool && lv.B {
				return NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if rv.T == TypeBool && rv.B {
				return NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			if lv.T != TypeBool || rv.T != TypeBool {
				return Null, fmt.Errorf("engine: OR expects booleans")
			}
			return NewBool(false), nil
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
	case "LIKE":
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
			if lv.T != TypeString || rv.T != TypeString {
				return Null, fmt.Errorf("engine: LIKE expects strings")
			}
			return NewBool(likeMatch(rv.S, lv.S)), nil
		}, nil
	case "||":
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
			return NewString(lv.String() + rv.String()), nil
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
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown operator %q", op)
}

func arith(op string, a, b Value) (Value, error) {
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

// compileScalarCall compiles the supported scalar functions.
func compileScalarCall(e *FuncCall, schema Schema, pc *planContext) (evalFn, error) {
	if e.Distinct {
		return nil, fmt.Errorf("engine: DISTINCT is only valid inside aggregates, not %s()", e.Name)
	}
	args := make([]evalFn, len(e.Args))
	for i, a := range e.Args {
		f, err := compileExpr(a, schema, pc)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s() expects %d argument(s), got %d", e.Name, n, len(args))
		}
		return nil
	}
	// evalArgs evaluates the arguments into one slice the call owns: every
	// function below reads it before returning and none retains it, and a
	// plan's expressions run on one goroutine.
	scratch := make([]Value, len(args))
	evalArgs := func(r Row) ([]Value, error) {
		for i, f := range args {
			v, err := f(r)
			if err != nil {
				return nil, err
			}
			scratch[i] = v
		}
		return scratch, nil
	}
	switch e.Name {
	case "abs":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() {
				return Null, err
			}
			switch vs[0].T {
			case TypeInt:
				if vs[0].I < 0 {
					return NewInt(-vs[0].I), nil
				}
				return vs[0], nil
			case TypeFloat:
				return NewFloat(math.Abs(vs[0].F)), nil
			}
			return Null, fmt.Errorf("engine: abs expects a number")
		}, nil
	case "sqrt", "floor", "ceil":
		if err := need(1); err != nil {
			return nil, err
		}
		name := e.Name
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() {
				return Null, err
			}
			f, err := vs[0].AsFloat()
			if err != nil {
				return Null, err
			}
			switch name {
			case "sqrt":
				if f < 0 {
					return Null, fmt.Errorf("engine: sqrt of negative value")
				}
				return NewFloat(math.Sqrt(f)), nil
			case "floor":
				return NewFloat(math.Floor(f)), nil
			default:
				return NewFloat(math.Ceil(f)), nil
			}
		}, nil
	case "mod":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() || vs[1].IsNull() {
				return Null, err
			}
			a, err := vs[0].AsInt()
			if err != nil {
				return Null, err
			}
			b, err := vs[1].AsInt()
			if err != nil {
				return Null, err
			}
			if b == 0 {
				return Null, fmt.Errorf("engine: mod by zero")
			}
			return NewInt(a % b), nil
		}, nil
	case "least", "greatest":
		if len(args) == 0 {
			return nil, fmt.Errorf("engine: %s() expects at least one argument", e.Name)
		}
		greatest := e.Name == "greatest"
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil {
				return Null, err
			}
			best := vs[0]
			for _, v := range vs[1:] {
				if v.IsNull() {
					return Null, nil
				}
				c, err := Compare(v, best)
				if err != nil {
					return Null, err
				}
				if (greatest && c > 0) || (!greatest && c < 0) {
					best = v
				}
			}
			return best, nil
		}, nil
	case "coalesce":
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil {
				return Null, err
			}
			for _, v := range vs {
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null, nil
		}, nil
	case "length":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() {
				return Null, err
			}
			return NewInt(int64(len(vs[0].String()))), nil
		}, nil
	case "lower", "upper":
		if err := need(1); err != nil {
			return nil, err
		}
		up := e.Name == "upper"
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() {
				return Null, err
			}
			if up {
				return NewString(strings.ToUpper(vs[0].String())), nil
			}
			return NewString(strings.ToLower(vs[0].String())), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown function %s()", e.Name)
}

// likeMatch implements SQL LIKE: '%' matches any run of characters, '_'
// matches exactly one character, everything else matches literally
// (case-sensitive, no escape syntax).
func likeMatch(pattern, s string) bool {
	// Iterative two-pointer match with backtracking on the last '%'.
	pi, si := 0, 0
	star, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			star, starS = pi, si
			pi++
		case star != -1:
			pi = star + 1
			starS++
			si = starS
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
