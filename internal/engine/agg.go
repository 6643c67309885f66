package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sgb/internal/geom"
	"sgb/internal/hull"
)

// isAggregateName reports whether name denotes an aggregate function.
func isAggregateName(name string) bool {
	switch name {
	case "count", "sum", "avg", "average", "min", "max",
		"array_agg", "list_id", "st_polygon", "stddev", "variance":
		return true
	}
	return false
}

// aggState accumulates one aggregate over the rows of one group. add must
// not retain args: the caller reuses the slice for the next row.
type aggState interface {
	add(args []Value) error
	result() Value
}

// newAggState constructs the accumulator for an aggregate call.
func newAggState(name string, star bool, argc int) (aggState, error) {
	switch name {
	case "count":
		if !star && argc != 1 {
			return nil, fmt.Errorf("engine: count() expects * or one argument")
		}
		return &countAgg{star: star}, nil
	case "sum":
		if argc != 1 {
			return nil, fmt.Errorf("engine: sum() expects one argument")
		}
		return &sumAgg{}, nil
	case "avg", "average":
		if argc != 1 {
			return nil, fmt.Errorf("engine: avg() expects one argument")
		}
		return &avgAgg{}, nil
	case "min", "max":
		if argc != 1 {
			return nil, fmt.Errorf("engine: %s() expects one argument", name)
		}
		return &minMaxAgg{max: name == "max"}, nil
	case "array_agg", "list_id":
		if argc != 1 {
			return nil, fmt.Errorf("engine: %s() expects one argument", name)
		}
		return &arrayAgg{}, nil
	case "st_polygon":
		if argc != 2 {
			return nil, fmt.Errorf("engine: st_polygon() expects two arguments (x, y)")
		}
		return &polygonAgg{}, nil
	case "stddev", "variance":
		if argc != 1 {
			return nil, fmt.Errorf("engine: %s() expects one argument", name)
		}
		return &varianceAgg{stddev: name == "stddev"}, nil
	}
	return nil, fmt.Errorf("engine: unknown aggregate %s()", name)
}

type countAgg struct {
	star bool
	n    int64
}

func (a *countAgg) add(args []Value) error {
	if a.star || !args[0].IsNull() {
		a.n++
	}
	return nil
}

func (a *countAgg) result() Value { return NewInt(a.n) }

type sumAgg struct {
	anyRow  bool
	isFloat bool // a float input — or an int64 overflow — promoted the sum
	i       int64
	f       float64
}

func (a *sumAgg) add(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	a.anyRow = true
	switch v.T {
	case TypeInt:
		if a.isFloat {
			a.f += float64(v.I)
			return nil
		}
		s := a.i + v.I
		if (a.i > 0 && v.I > 0 && s < 0) || (a.i < 0 && v.I < 0 && s >= 0) {
			// The exact int64 sum just overflowed: degrade to float, keeping
			// the magnitude right instead of silently wrapping the sign.
			a.isFloat = true
			a.f = float64(a.i) + float64(v.I)
			return nil
		}
		a.i = s
	case TypeFloat:
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v.F
	default:
		return fmt.Errorf("engine: sum over non-numeric %s", v.T)
	}
	return nil
}

func (a *sumAgg) result() Value {
	if !a.anyRow {
		return Null
	}
	if a.isFloat {
		return NewFloat(a.f)
	}
	return NewInt(a.i)
}

type avgAgg struct {
	n int64
	f float64
}

func (a *avgAgg) add(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("engine: avg over non-numeric %s", v.T)
	}
	a.n++
	a.f += f
	return nil
}

func (a *avgAgg) result() Value {
	if a.n == 0 {
		return Null
	}
	return NewFloat(a.f / float64(a.n))
}

type minMaxAgg struct {
	max  bool
	seen bool
	best Value
}

func (a *minMaxAgg) add(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	if !a.seen {
		a.best, a.seen = v, true
		return nil
	}
	c, err := Compare(v, a.best)
	if err != nil {
		return err
	}
	if (a.max && c > 0) || (!a.max && c < 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAgg) result() Value {
	if !a.seen {
		return Null
	}
	return a.best
}

// arrayAgg renders the collected values PostgreSQL-style: {v1,v2,...}.
type arrayAgg struct {
	items []string
}

func (a *arrayAgg) add(args []Value) error {
	if !args[0].IsNull() {
		a.items = append(a.items, args[0].String())
	}
	return nil
}

func (a *arrayAgg) result() Value {
	return NewString("{" + strings.Join(a.items, ",") + "}")
}

// polygonAgg implements ST_Polygon(x, y): the WKT convex-hull polygon of the
// group's points, used by the paper's MANET and geo-social queries.
type polygonAgg struct {
	pts []geom.Point
}

func (a *polygonAgg) add(args []Value) error {
	if args[0].IsNull() || args[1].IsNull() {
		return nil
	}
	x, err := args[0].AsFloat()
	if err != nil {
		return fmt.Errorf("engine: st_polygon x: %v", err)
	}
	y, err := args[1].AsFloat()
	if err != nil {
		return fmt.Errorf("engine: st_polygon y: %v", err)
	}
	a.pts = append(a.pts, geom.Point{x, y})
	return nil
}

func (a *polygonAgg) result() Value {
	if len(a.pts) == 0 {
		return Null
	}
	h := hull.Compute(a.pts)
	var sb strings.Builder
	switch len(h) {
	case 1:
		fmt.Fprintf(&sb, "POINT(%g %g)", h[0][0], h[0][1])
	case 2:
		fmt.Fprintf(&sb, "LINESTRING(%g %g, %g %g)", h[0][0], h[0][1], h[1][0], h[1][1])
	default:
		sb.WriteString("POLYGON((")
		for _, p := range h {
			fmt.Fprintf(&sb, "%g %g, ", p[0], p[1])
		}
		fmt.Fprintf(&sb, "%g %g))", h[0][0], h[0][1]) // close the ring
	}
	return NewString(sb.String())
}

// varianceAgg computes the sample variance with Welford's online algorithm;
// stddev is its square root.
type varianceAgg struct {
	stddev bool
	n      int64
	mean   float64
	m2     float64
}

func (a *varianceAgg) add(args []Value) error {
	v := args[0]
	if v.IsNull() {
		return nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("engine: variance over non-numeric %s", v.T)
	}
	a.n++
	delta := f - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (f - a.mean)
	return nil
}

func (a *varianceAgg) result() Value {
	if a.n < 2 {
		return Null // sample variance is undefined below two values
	}
	v := a.m2 / float64(a.n-1)
	if a.stddev {
		return NewFloat(sqrtNonNeg(v))
	}
	return NewFloat(v)
}

func sqrtNonNeg(v float64) float64 {
	if v < 0 {
		return 0 // numerical noise on constant inputs
	}
	return math.Sqrt(v)
}

// aggCall is one aggregate invocation extracted from the SELECT/HAVING
// expressions by the grouping rewrite.
type aggCall struct {
	name     string
	star     bool
	distinct bool
	args     []evalFn
	// scratch holds one row's argument values. A plan runs on its statement's
	// goroutine, so one slice per call serves every row; no aggState keeps
	// it (distinctAgg encodes a key, arrayAgg stores String(), minMaxAgg
	// copies the Value, polygonAgg copies floats).
	scratch []Value
}

func (c *aggCall) newState() (aggState, error) {
	st, err := newAggState(c.name, c.star, len(c.args))
	if err != nil {
		return nil, err
	}
	if c.distinct {
		if c.star {
			return nil, fmt.Errorf("engine: %s(DISTINCT *) is not valid", c.name)
		}
		st = &distinctAgg{inner: st, seen: make(map[string]bool)}
	}
	return st, nil
}

// distinctAgg wraps an accumulator so each distinct argument tuple is
// accumulated once per group (count/sum/avg/... DISTINCT).
type distinctAgg struct {
	inner  aggState
	seen   map[string]bool
	keyBuf []byte
}

func (a *distinctAgg) add(args []Value) error {
	a.keyBuf = appendKey(a.keyBuf[:0], args)
	if a.seen[string(a.keyBuf)] {
		return nil
	}
	a.seen[string(a.keyBuf)] = true
	return a.inner.add(args)
}

func (a *distinctAgg) result() Value { return a.inner.result() }

// evalArgs evaluates the call's arguments over r into c.scratch.
func (c *aggCall) evalArgs(r Row) ([]Value, error) {
	if c.scratch == nil {
		c.scratch = make([]Value, len(c.args))
	}
	for i, f := range c.args {
		v, err := f(r)
		if err != nil {
			return nil, err
		}
		c.scratch[i] = v
	}
	return c.scratch, nil
}

// groupAccumulator bundles the states of all aggregate calls for one group.
type groupAccumulator struct {
	states []aggState
}

func newGroupAccumulator(calls []*aggCall) (*groupAccumulator, error) {
	acc := &groupAccumulator{states: make([]aggState, 0, len(calls))}
	return acc, acc.reset(calls)
}

// reset starts a new group: a fresh state per call in the reused states slice.
func (g *groupAccumulator) reset(calls []*aggCall) error {
	g.states = g.states[:0]
	for _, c := range calls {
		st, err := c.newState()
		if err != nil {
			return err
		}
		g.states = append(g.states, st)
	}
	return nil
}

func (g *groupAccumulator) add(calls []*aggCall, r Row) error {
	for i, c := range calls {
		args, err := c.evalArgs(r)
		if err != nil {
			return err
		}
		if err := g.states[i].add(args); err != nil {
			return err
		}
	}
	return nil
}

// appendResults appends each call's result to dst, in call order.
func (g *groupAccumulator) appendResults(dst []Value) []Value {
	for _, st := range g.states {
		dst = append(dst, st.result())
	}
	return dst
}

// exprEqual reports structural equality of two expressions, used to match
// SELECT items against GROUP BY expressions.
func exprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case *ColumnRef:
		b, ok := b.(*ColumnRef)
		return ok && strings.EqualFold(a.Table, b.Table) && strings.EqualFold(a.Name, b.Name)
	case *Literal:
		b, ok := b.(*Literal)
		return ok && a.V == b.V
	case *UnaryExpr:
		b, ok := b.(*UnaryExpr)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X)
	case *BinaryExpr:
		b, ok := b.(*BinaryExpr)
		return ok && a.Op == b.Op && exprEqual(a.L, b.L) && exprEqual(a.R, b.R)
	case *FuncCall:
		b, ok := b.(*FuncCall)
		if !ok || a.Name != b.Name || a.Star != b.Star || a.Distinct != b.Distinct || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !exprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	case *CaseExpr:
		b, ok := b.(*CaseExpr)
		if !ok || len(a.Whens) != len(b.Whens) ||
			(a.Operand == nil) != (b.Operand == nil) || (a.Else == nil) != (b.Else == nil) {
			return false
		}
		if a.Operand != nil && !exprEqual(a.Operand, b.Operand) {
			return false
		}
		for i := range a.Whens {
			if !exprEqual(a.Whens[i].Cond, b.Whens[i].Cond) ||
				!exprEqual(a.Whens[i].Result, b.Whens[i].Result) {
				return false
			}
		}
		return a.Else == nil || exprEqual(a.Else, b.Else)
	}
	return false
}

// matchGroupExpr returns the index of e among the grouping expressions. A
// bare column reference also matches when it resolves to the same column as
// a (possibly qualified) grouping expression.
func matchGroupExpr(e Expr, groupExprs []Expr, schema Schema) int {
	for i, g := range groupExprs {
		if exprEqual(e, g) {
			return i
		}
	}
	// Resolve-based match for column refs with differing qualification.
	if ec, ok := e.(*ColumnRef); ok {
		ei, err := schema.Resolve(ec.Table, ec.Name)
		if err != nil {
			return -1
		}
		for i, g := range groupExprs {
			if gc, ok := g.(*ColumnRef); ok {
				gi, err := schema.Resolve(gc.Table, gc.Name)
				if err == nil && gi == ei {
					return i
				}
			}
		}
	}
	return -1
}

// sortRowsStable sorts rows by the given key columns ascending — used to make
// hash-aggregate output deterministic.
func sortRowsStable(rows []Row, keyWidth int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for k := 0; k < keyWidth; k++ {
			c, err := Compare(rows[i][k], rows[j][k])
			if err != nil {
				return false
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}
