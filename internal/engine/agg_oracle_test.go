package engine

// This file is the aggregate oracle: the per-group accumulators the engine
// folded groups with before aggregate state became columns indexed by group
// id, kept verbatim as the reference FuzzAggColumns checks the columns
// against, bit for bit.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"sgb/internal/geom"
	"sgb/internal/hull"
)

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

// newOracle constructs one group's accumulator for a call.
func newOracle(name string, star, distinct bool, argc int) (aggState, error) {
	st, err := newAggState(name, star, argc)
	if err != nil {
		return nil, err
	}
	if distinct {
		if star {
			return nil, fmt.Errorf("engine: %s(DISTINCT *) is not valid", name)
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

// sameValue is Value equality with floats compared bit for bit, so that NaN
// matches NaN and -0 does not match +0.
func sameValue(a, b Value) bool {
	return a.T == b.T && a.B == b.B && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// fuzzArg decodes one argument value from a kind byte and a payload byte:
// NULL, small and extreme INTs, FLOATs including ±0 and NaN, STRING and BOOL.
func fuzzArg(kind, p byte) Value {
	switch kind % 10 {
	case 0:
		return Null
	case 1:
		return NewInt(int64(int8(p)))
	case 2:
		return NewInt(math.MaxInt64 - int64(p))
	case 3:
		return NewInt(math.MinInt64 + int64(p))
	case 4:
		return NewFloat(float64(int8(p)) / 4)
	case 5:
		return NewFloat(0)
	case 6:
		return NewFloat(math.Copysign(0, -1))
	case 7:
		return NewFloat(math.NaN())
	case 8:
		return NewString(fmt.Sprintf("s%d", p%4))
	}
	return NewBool(p%2 == 0)
}

// FuzzAggColumns feeds one interleaved stream of (group id, arguments) rows
// to every aggregate's state columns and to one oracle accumulator per
// group, for all 11 aggregate names with and without DISTINCT, and requires
// the same error at the same row and bit-identical results for every group,
// including groups no row reached. data[0] picks 1–4 groups; each later run
// of 5 bytes is a row: group, then kind and payload of two arguments.
func FuzzAggColumns(f *testing.F) {
	row := func(g, k1, p1, k2, p2 byte) []byte { return []byte{g, k1, p1, k2, p2} }
	// A sum crossing MaxInt64 promotes to float.
	f.Add(slices.Concat([]byte{1}, row(0, 2, 1, 0, 0), row(0, 2, 1, 0, 0), row(0, 1, 5, 0, 0), row(1, 1, 7, 0, 0)))
	// min and max over mixed INT and FLOAT.
	f.Add(slices.Concat([]byte{0}, row(0, 1, 3, 1, 1), row(0, 4, 10, 4, 2), row(0, 1, 2, 1, 3), row(0, 6, 0, 5, 0)))
	// An empty group under a global aggregate.
	f.Add([]byte{0})
	// NULLs, NaN, ±0 and a STRING in one stream over three groups.
	f.Add(slices.Concat([]byte{2}, row(0, 0, 0, 1, 1), row(1, 7, 0, 4, 4), row(2, 5, 0, 6, 0), row(1, 6, 0, 7, 0), row(0, 8, 1, 8, 2)))
	// DISTINCT keys: INT 3 against FLOAT 3.0 in either argument, repeated
	// pairs, -0 against +0, NULLs, and a group that sees the same pair.
	f.Add(slices.Concat([]byte{1}, row(0, 1, 3, 4, 12), row(0, 4, 12, 1, 3), row(0, 1, 3, 4, 12), row(1, 6, 0, 5, 0),
		row(1, 5, 0, 6, 0), row(1, 0, 0, 0, 0), row(1, 0, 0, 0, 0), row(1, 1, 3, 4, 12), row(0, 1, 3, 1, 3)))
	names := []string{"count", "sum", "avg", "average", "min", "max",
		"array_agg", "list_id", "st_polygon", "stddev", "variance"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		groups := 1 + int(data[0]%4)
		rows := data[1:]
		for _, name := range names {
			for _, star := range []bool{false, true} {
				for _, distinct := range []bool{false, true} {
					if star && (name != "count" || distinct) {
						continue
					}
					argc := 1
					if star {
						argc = 0
					} else if name == "st_polygon" {
						argc = 2
					}
					kind, err := aggKindOf(name, star, distinct, argc)
					if err != nil {
						t.Fatal(err)
					}
					c := &aggCall{kind: kind, star: star, distinct: distinct}
					c.reset()
					c.grow(groups)
					oracle := make([]aggState, groups)
					for g := range oracle {
						if oracle[g], err = newOracle(name, star, distinct, argc); err != nil {
							t.Fatal(err)
						}
					}
					call := fmt.Sprintf("%s(distinct=%v star=%v)", name, distinct, star)
					args := make([]Value, argc)
					for i := 0; i+5 <= len(rows); i += 5 {
						g := int(rows[i]) % groups
						args = args[:0]
						for a := 0; a < argc; a++ {
							args = append(args, fuzzArg(rows[i+1+2*a], rows[i+2+2*a]))
						}
						errCol, errOracle := c.add(g, args), oracle[g].add(args)
						if fmt.Sprint(errCol) != fmt.Sprint(errOracle) {
							t.Fatalf("%s row %d: columns err %v, oracle err %v", call, i/5, errCol, errOracle)
						}
						if errCol != nil {
							break // the statement fails here; no result is read
						}
					}
					for g := range oracle {
						if got, want := c.result(g), oracle[g].result(); !sameValue(got, want) {
							t.Fatalf("%s group %d: columns %#v, oracle %#v", call, g, got, want)
						}
					}
				}
			}
		}
	})
}
