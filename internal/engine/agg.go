package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sgb/internal/geom"
	"sgb/internal/hull"
)

// aggKind is the aggregate an aggCall computes.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggArray
	aggPolygon
	aggVariance
	aggStddev
)

// aggKinds maps every aggregate function name onto its kind.
var aggKinds = map[string]aggKind{
	"count": aggCount, "sum": aggSum, "avg": aggAvg, "average": aggAvg,
	"min": aggMin, "max": aggMax, "array_agg": aggArray, "list_id": aggArray,
	"st_polygon": aggPolygon, "variance": aggVariance, "stddev": aggStddev,
}

// isAggregateName reports whether name denotes an aggregate function.
func isAggregateName(name string) bool {
	_, ok := aggKinds[name]
	return ok
}

// aggKindOf checks an aggregate call's arity and returns its kind.
func aggKindOf(name string, star, distinct bool, argc int) (aggKind, error) {
	kind, ok := aggKinds[name]
	if !ok {
		return 0, fmt.Errorf("engine: unknown aggregate %s()", name)
	}
	if distinct && star {
		return 0, fmt.Errorf("engine: %s(DISTINCT *) is not valid", name)
	}
	want := 1
	switch {
	case kind == aggCount && star:
		want = 0
	case kind == aggPolygon:
		want = 2
	}
	if argc != want {
		return 0, fmt.Errorf("engine: %s() expects %d argument(s), got %d", name, want, argc)
	}
	return kind, nil
}

// Bits of aggCall.bits for sum.
const (
	sumAnyRow  = 1 << iota // a non-NULL row was folded
	sumIsFloat             // a float input — or an int64 overflow — promoted the sum
)

// aggCall is one aggregate invocation extracted from the SELECT/HAVING
// expressions by the grouping rewrite. It owns the aggregate's state for every
// group of an execution, as columns indexed by group id: distributive and
// algebraic aggregates keep a fixed-size state per group in flat typed
// slices, and only the holistic array_agg and st_polygon keep a slice per
// group. A plan runs on its statement's goroutine, so the columns serve
// every row of the aggregation that opens the call.
type aggCall struct {
	kind     aggKind
	star     bool
	distinct bool
	args     []operand // a bare column argument is read by index

	n     []int64        // count; avg, variance: non-NULL rows folded
	i     []int64        // sum: the exact int64 sum
	f     []float64      // sum: the promoted sum; avg: the sum; variance: the mean
	m2    []float64      // variance: Welford's sum of squared deviations
	bits  []uint8        // sum: sumAnyRow | sumIsFloat
	best  []Value        // min, max: the extreme so far, NULL before the first row
	items [][]string     // array_agg: the rendered values
	pts   [][]geom.Point // st_polygon: the points
	// seen holds, under DISTINCT, the group id and arguments of every row
	// folded, so each distinct argument tuple counts once per group; key is
	// the scratch tuple probed.
	seen keyTable
	key  []Value
}

// reset empties every column for a new execution, keeping its capacity.
func (c *aggCall) reset() {
	c.n, c.i, c.f, c.m2, c.bits = c.n[:0], c.i[:0], c.f[:0], c.m2[:0], c.bits[:0]
	c.best, c.items, c.pts = c.best[:0], c.items[:0], c.pts[:0]
	if c.distinct {
		c.seen.reset()
	}
}

// grow appends the empty states of n more groups, numbered on from the last.
func (c *aggCall) grow(n int) {
	switch c.kind {
	case aggCount:
		c.n = extend(c.n, n)
	case aggSum:
		c.i, c.f, c.bits = extend(c.i, n), extend(c.f, n), extend(c.bits, n)
	case aggAvg:
		c.n, c.f = extend(c.n, n), extend(c.f, n)
	case aggMin, aggMax:
		c.best = extend(c.best, n)
	case aggArray:
		c.items = extend(c.items, n)
	case aggPolygon:
		c.pts = extend(c.pts, n)
	case aggVariance, aggStddev:
		c.n, c.f, c.m2 = extend(c.n, n), extend(c.f, n), extend(c.m2, n)
	}
}

// extend appends n zero values to s. When s must grow, its capacity at least
// doubles, to no fewer than 8 elements, and only the new array is allocated:
// slices.Grow, under the race detector, also allocates the tail it appends.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(len(s)+n, 2*cap(s), 8)), s...)
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// add folds one row's arguments into group g. It does not retain args.
func (c *aggCall) add(g int, args []Value) error {
	if c.distinct {
		c.key = append(append(c.key[:0], NewInt(int64(g))), args...)
		if c.seen.find(c.key) >= 0 {
			return nil
		}
		c.seen.add(c.key)
	}
	if c.kind == aggCount {
		if c.star || !args[0].IsNull() {
			c.n[g]++
		}
		return nil
	}
	v := args[0]
	if v.IsNull() || (c.kind == aggPolygon && args[1].IsNull()) {
		return nil
	}
	switch c.kind {
	case aggSum:
		return c.addSum(g, v)
	case aggAvg:
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("engine: avg over non-numeric %s", v.T)
		}
		c.n[g]++
		c.f[g] += f
	case aggMin, aggMax:
		best := c.best[g]
		switch {
		case best.IsNull():
			c.best[g] = v
		case v.T == TypeFloat && best.T == TypeFloat:
			// Compare's order on two floats, without its dispatch.
			if (c.kind == aggMax && v.F > best.F) || (c.kind == aggMin && v.F < best.F) {
				c.best[g] = v
			}
		default:
			cmp, err := Compare(v, best)
			if err != nil {
				return err
			}
			if (c.kind == aggMax && cmp > 0) || (c.kind == aggMin && cmp < 0) {
				c.best[g] = v
			}
		}
	case aggArray:
		c.items[g] = append(c.items[g], v.String())
	case aggPolygon:
		x, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("engine: st_polygon x: %v", err)
		}
		y, err := args[1].AsFloat()
		if err != nil {
			return fmt.Errorf("engine: st_polygon y: %v", err)
		}
		c.pts[g] = append(c.pts[g], geom.Point{x, y})
	case aggVariance, aggStddev:
		// Welford's online algorithm.
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("engine: variance over non-numeric %s", v.T)
		}
		c.n[g]++
		delta := f - c.f[g]
		c.f[g] += delta / float64(c.n[g])
		c.m2[g] += delta * (f - c.f[g])
	}
	return nil
}

// addSum folds a non-NULL value into sum group g: exact in int64 until a
// float input or an overflow promotes the group to float.
func (c *aggCall) addSum(g int, v Value) error {
	c.bits[g] |= sumAnyRow
	switch v.T {
	case TypeInt:
		if c.bits[g]&sumIsFloat != 0 {
			c.f[g] += float64(v.I)
			return nil
		}
		a := c.i[g]
		s := a + v.I
		if (a > 0 && v.I > 0 && s < 0) || (a < 0 && v.I < 0 && s >= 0) {
			// The exact int64 sum just overflowed: degrade to float, keeping
			// the magnitude right instead of silently wrapping the sign.
			c.bits[g] |= sumIsFloat
			c.f[g] = float64(a) + float64(v.I)
			return nil
		}
		c.i[g] = s
	case TypeFloat:
		if c.bits[g]&sumIsFloat == 0 {
			c.bits[g] |= sumIsFloat
			c.f[g] = float64(c.i[g])
		}
		c.f[g] += v.F
	default:
		return fmt.Errorf("engine: sum over non-numeric %s", v.T)
	}
	return nil
}

// result returns group g's aggregate value.
func (c *aggCall) result(g int) Value {
	switch c.kind {
	case aggCount:
		return NewInt(c.n[g])
	case aggSum:
		switch {
		case c.bits[g]&sumAnyRow == 0:
			return Null
		case c.bits[g]&sumIsFloat != 0:
			return NewFloat(c.f[g])
		}
		return NewInt(c.i[g])
	case aggAvg:
		if c.n[g] == 0 {
			return Null
		}
		return NewFloat(c.f[g] / float64(c.n[g]))
	case aggMin, aggMax:
		return c.best[g]
	case aggArray:
		// PostgreSQL-style: {v1,v2,...}.
		return NewString("{" + strings.Join(c.items[g], ",") + "}")
	case aggPolygon:
		return polygonWKT(c.pts[g])
	}
	if c.n[g] < 2 {
		return Null // sample variance is undefined below two values
	}
	v := c.m2[g] / float64(c.n[g]-1)
	if c.kind == aggStddev {
		return NewFloat(sqrtNonNeg(v))
	}
	return NewFloat(v)
}

// polygonWKT renders ST_Polygon(x, y), the WKT convex hull of a group's
// points used by the paper's MANET and geo-social queries, or NULL for none.
func polygonWKT(pts []geom.Point) Value {
	if len(pts) == 0 {
		return Null
	}
	h := hull.Compute(pts)
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

func sqrtNonNeg(v float64) float64 {
	if v < 0 {
		return 0 // numerical noise on constant inputs
	}
	return math.Sqrt(v)
}

// foldRow folds row r into group g of every call, in call order. Each call's
// arguments are evaluated into one array on the stack, which add does not
// retain: no call takes more than two.
func foldRow(calls []*aggCall, g int, r Row) error {
	var buf [2]Value
	for _, c := range calls {
		args := buf[:len(c.args)]
		for i, a := range c.args {
			v, err := a.eval(r)
			if err != nil {
				return err
			}
			args[i] = v
		}
		if err := c.add(g, args); err != nil {
			return err
		}
	}
	return nil
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
