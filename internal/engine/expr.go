package engine

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// evalFn evaluates a compiled expression against an input row.
type evalFn func(Row) (Value, error)

// compileExpr resolves column references against schema and returns an
// evaluator. pc supplies subquery planning for IN (SELECT ...); it may be
// nil when the expression cannot contain subqueries. A binary operator over
// literals folds to its value, and typed arithmetic (see compileNum) runs
// unboxed, falling back to the generic arm for a row it cannot evaluate.
func compileExpr(e Expr, schema Schema, pc *planContext) (evalFn, error) {
	f, err := compileGeneric(e, schema, pc)
	if err != nil {
		return nil, err
	}
	switch e.(type) {
	case *UnaryExpr, *BinaryExpr:
		if !literalOnly(e) {
			if n, ok := compileNum(e, schema); ok {
				return n.box(f), nil
			}
		} else if _, bin := e.(*BinaryExpr); bin {
			if v, err := f(nil); err == nil {
				return func(Row) (Value, error) { return v, nil }, nil
			}
		}
	}
	return f, nil // a literal-only tree that fails fails on the rows that run it
}

// operand reads a bare column by index (fn nil, col its position) instead of
// through a closure. eval is written to stay under the inlining budget.
type operand struct {
	col int
	fn  evalFn
}

func (o operand) eval(r Row) (v Value, err error) {
	if o.fn == nil {
		v = r[o.col]
	} else {
		v, err = o.fn(r)
	}
	return
}

// compileOperand compiles e, as its position when it is a bare column.
func compileOperand(e Expr, schema Schema, pc *planContext) (operand, error) {
	if ref, ok := e.(*ColumnRef); ok {
		col, err := schema.Resolve(ref.Table, ref.Name)
		return operand{col: col}, err
	}
	fn, err := compileExpr(e, schema, pc)
	return operand{fn: fn}, err
}

// literalOnly reports an operator tree over literals.
func literalOnly(e Expr) bool {
	switch e := e.(type) {
	case *Literal:
		return true
	case *UnaryExpr:
		return literalOnly(e.X)
	case *BinaryExpr:
		return literalOnly(e.L) && literalOnly(e.R)
	}
	return false
}

// numFn is a typed arithmetic subtree evaluated unboxed, i for INT and f for
// FLOAT. ok is false for a leaf whose tag is not its static type (NULL too)
// or a zero divisor; the generic arm then returns the NULL or the error.
type numFn struct {
	i func(Row) (int64, bool)
	f func(Row) (float64, bool)
}

// float widens an INT subtree to float64, where the generic arm converts it.
func (n numFn) float() func(Row) (float64, bool) {
	if n.f != nil {
		return n.f
	}
	i := n.i
	return func(r Row) (float64, bool) { v, ok := i(r); return float64(v), ok }
}

// box returns n as an evaluator that runs generic for the rows n cannot
// evaluate unboxed.
func (n numFn) box(generic evalFn) evalFn {
	i, f := n.i, n.f
	return func(r Row) (Value, error) {
		if i == nil {
			if v, ok := f(r); ok {
				return NewFloat(v), nil
			}
		} else if v, ok := i(r); ok {
			return NewInt(v), nil
		}
		return generic(r)
	}
}

// compileNum compiles e unboxed when its type is fixed at compile time: a
// numeric literal-only subtree, a column whose Schema type is INT or FLOAT,
// or unary minus and + - * / over such operands. A derived column's type is
// inferType's guess, so each column leaf checks its tag on every row.
func compileNum(e Expr, schema Schema) (numFn, bool) {
	if literalOnly(e) {
		f, err := compileExpr(e, nil, nil)
		if err != nil {
			return numFn{}, false
		}
		switch v, err := f(nil); {
		case err != nil:
		case v.T == TypeInt:
			return numFn{i: func(Row) (int64, bool) { return v.I, true }}, true
		case v.T == TypeFloat:
			return numFn{f: func(Row) (float64, bool) { return v.F, true }}, true
		}
		return numFn{}, false
	}
	switch e := e.(type) {
	case *ColumnRef:
		switch idx, err := schema.Resolve(e.Table, e.Name); {
		case err != nil:
		case schema[idx].T == TypeInt:
			return numFn{i: func(r Row) (int64, bool) { return r[idx].I, r[idx].T == TypeInt }}, true
		case schema[idx].T == TypeFloat:
			return numFn{f: func(r Row) (float64, bool) { return r[idx].F, r[idx].T == TypeFloat }}, true
		}
	case *UnaryExpr:
		x, ok := compileNum(e.X, schema)
		if !ok || e.Op != "-" {
			break
		}
		if xi := x.i; xi != nil {
			return numFn{i: func(r Row) (int64, bool) { v, ok := xi(r); return -v, ok }}, true
		}
		xf := x.f
		return numFn{f: func(r Row) (float64, bool) { v, ok := xf(r); return -v, ok }}, true
	case *BinaryExpr:
		if _, ok := arithOps[e.Op]; !ok {
			break
		}
		l, lok := compileNum(e.L, schema)
		r, rok := compileNum(e.R, schema)
		if lok && rok {
			return numArith(e.Op, l, r), true
		}
	}
	return numFn{}, false
}

// numArith binds an arithmetic operator to its unboxed arm: INT op INT stays
// int64 and wraps as the generic arm does, except "/"; every other pair runs
// in float64 after widening an INT side.
func numArith(op string, l, r numFn) numFn {
	if li, ri := l.i, r.i; li != nil && ri != nil {
		switch op {
		case "+":
			return numFn{i: func(row Row) (int64, bool) { a, ok := li(row); b, ok2 := ri(row); return a + b, ok && ok2 }}
		case "-":
			return numFn{i: func(row Row) (int64, bool) { a, ok := li(row); b, ok2 := ri(row); return a - b, ok && ok2 }}
		case "*":
			return numFn{i: func(row Row) (int64, bool) { a, ok := li(row); b, ok2 := ri(row); return a * b, ok && ok2 }}
		}
	}
	lf, rf := l.float(), r.float()
	switch op {
	case "+":
		return numFn{f: func(row Row) (float64, bool) { a, ok := lf(row); b, ok2 := rf(row); return a + b, ok && ok2 }}
	case "-":
		return numFn{f: func(row Row) (float64, bool) { a, ok := lf(row); b, ok2 := rf(row); return a - b, ok && ok2 }}
	case "*":
		return numFn{f: func(row Row) (float64, bool) { a, ok := lf(row); b, ok2 := rf(row); return a * b, ok && ok2 }}
	}
	return numFn{f: func(row Row) (float64, bool) { a, ok := lf(row); b, ok2 := rf(row); return a / b, ok && ok2 && b != 0 }}
}

// compileGeneric compiles e with boxed operands, each operator bound to its
// own closure; compileExpr wraps it with the folded and unboxed forms.
func compileGeneric(e Expr, schema Schema, pc *planContext) (evalFn, error) {
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
		return compileBinary(e, l, r, schema)

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
		// Uncorrelated: materialize the subquery once, lazily, as canonical
		// keys, so INT 3 is in {3.0} and 2^53+1 is not in {2^53}.
		var set keyTable
		key := make([]Value, 1)
		not := e.Not
		query := e.Query
		planCtx := pc
		return func(r Row) (Value, error) {
			if set.words == nil {
				rows, rschema, err := planCtx.run(query)
				if err != nil {
					return Null, err
				}
				if len(rschema) != 1 {
					return Null, fmt.Errorf("engine: IN subquery must return one column, got %d", len(rschema))
				}
				set = newKeyTable()
				for _, row := range rows {
					if key[0] = canonicalKeyValue(row[0]); set.find(key) < 0 {
						set.add(key)
					}
				}
			}
			v, err := x(r)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			key[0] = canonicalKeyValue(v)
			return NewBool((set.find(key) >= 0) != not), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: cannot compile expression %T", e)
}

// arithOps holds the generic arm's int64 and float64 operations; "/" always
// divides as float.
var arithOps = map[string]struct {
	i func(a, b int64) int64
	f func(a, b float64) float64
}{
	"+": {func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }},
	"-": {func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }},
	"*": {func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }},
	"/": {nil, func(a, b float64) float64 { return a / b }},
}

// cmpMasks has bit c+1 set when the operator holds for Compare's result c.
var cmpMasks = map[string]uint8{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

func compileBinary(e *BinaryExpr, l, r evalFn, schema Schema) (evalFn, error) {
	op := e.Op
	if mask, ok := cmpMasks[op]; ok {
		generic := func(row Row) (Value, error) {
			lv, rv, null, err := evalPair(l, r, row)
			if null || err != nil {
				return Null, err
			}
			c, err := Compare(lv, rv)
			if err != nil {
				return Null, err
			}
			return NewBool(mask>>(c+1)&1 != 0), nil
		}
		ln, lok := compileNum(e.L, schema)
		rn, rok := compileNum(e.R, schema)
		switch {
		case !lok || !rok:
			return generic, nil
		case ln.i != nil && rn.i != nil:
			return cmpArm(ln.i, rn.i, cmp.Compare[int64], mask, generic), nil
		case ln.i != nil:
			return cmpArm(ln.i, rn.f, cmpIntFloat, mask, generic), nil
		case rn.i != nil:
			return cmpArm(ln.f, rn.i, cmpFloatInt, mask, generic), nil
		}
		return cmpArm(ln.f, rn.f, cmpFloat, mask, generic), nil
	}
	if arm, ok := arithOps[op]; ok {
		fi, ff := arm.i, arm.f
		return func(row Row) (Value, error) {
			lv, rv, null, err := evalPair(l, r, row)
			if null || err != nil {
				return Null, err
			}
			if lv.T == TypeInt && rv.T == TypeInt && fi != nil {
				return NewInt(fi(lv.I, rv.I)), nil
			}
			af, lerr := lv.AsFloat()
			bf, rerr := rv.AsFloat()
			switch {
			case lerr != nil || rerr != nil:
				return Null, fmt.Errorf("engine: %s requires numeric operands (%s, %s)", op, lv.T, rv.T)
			case fi == nil && bf == 0:
				return Null, fmt.Errorf("engine: division by zero")
			}
			return NewFloat(ff(af, bf)), nil
		}, nil
	}
	switch op {
	case "AND", "OR":
		and := op == "AND" // the operand value that leaves the answer open
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
	case "LIKE":
		return func(row Row) (Value, error) {
			lv, rv, null, err := evalPair(l, r, row)
			if null || err != nil {
				return Null, err
			}
			if lv.T != TypeString || rv.T != TypeString {
				return Null, fmt.Errorf("engine: LIKE expects strings")
			}
			return NewBool(likeMatch(rv.S, lv.S)), nil
		}, nil
	case "||":
		return func(row Row) (Value, error) {
			lv, rv, null, err := evalPair(l, r, row)
			if null || err != nil {
				return Null, err
			}
			return NewString(lv.String() + rv.String()), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown operator %q", op)
}

// evalPair evaluates l, then r; null reports that either is NULL.
func evalPair(l, r evalFn, row Row) (lv, rv Value, null bool, err error) {
	if lv, err = l(row); err != nil {
		return
	}
	if rv, err = r(row); err != nil {
		return
	}
	return lv, rv, lv.IsNull() || rv.IsNull(), nil
}

// cmpArm is a comparison over two typed operands, ordered unboxed by order;
// a row either operand cannot evaluate goes to the generic arm.
func cmpArm[A, B int64 | float64](l func(Row) (A, bool), r func(Row) (B, bool), order func(A, B) int, mask uint8, generic evalFn) evalFn {
	return func(row Row) (Value, error) {
		a, ok := l(row)
		b, ok2 := r(row)
		if ok && ok2 {
			return NewBool(mask>>(order(a, b)+1)&1 != 0), nil
		}
		return generic(row)
	}
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
		fn := map[string]func(float64) float64{"sqrt": math.Sqrt, "floor": math.Floor, "ceil": math.Ceil}[e.Name]
		sqrt := e.Name == "sqrt"
		return func(r Row) (Value, error) {
			vs, err := evalArgs(r)
			if err != nil || vs[0].IsNull() {
				return Null, err
			}
			f, err := vs[0].AsFloat()
			if err != nil {
				return Null, err
			}
			if sqrt && f < 0 {
				return Null, fmt.Errorf("engine: sqrt of negative value")
			}
			return NewFloat(fn(f)), nil
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
