package engine

import (
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// encodedTable is the key table before machine-word keys: every tuple is
// keyed by its appendKey encoding. It is the oracle keyTable is checked
// against.
type encodedTable struct {
	ids map[string]int32
	buf []byte
}

// id returns the id of vals, adding it as the next id when it is new.
func (t *encodedTable) id(vals []Value) int32 {
	t.buf = appendKey(t.buf[:0], vals)
	id, ok := t.ids[string(t.buf)]
	if !ok {
		id = int32(len(t.ids))
		t.ids[string(t.buf)] = id
	}
	return id
}

// keyTablePool mixes INT, FLOAT, NULL and TEXT values, with the INT/FLOAT
// pairs that must stay apart (3 and 3.0, 2^53+1 and 2^53.0) and the floats
// that canonicalize onto ints (-0.0, ±2^53, -2^63) or do not (2^63, 1.5, NaN).
var keyTablePool = []Value{
	NewInt(0), NewInt(3), NewInt(-1), NewInt(1 << 53), NewInt(-1 << 53), NewInt(1<<53 + 1),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(3), NewFloat(1 << 53), NewFloat(-1 << 53),
	NewFloat(exactInt64Bound), NewFloat(-exactInt64Bound), NewFloat(1.5), NewFloat(math.NaN()),
	Null, NewString(""), NewString("a"),
}

// keyTableRows draws n rows of width key columns plus a trailing id column.
// Half the rows draw only INTs, so the machine-word keys get exercised
// beside the encoded ones.
func keyTableRows(rng *rand.Rand, n, width int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, width+1)
		for c := 0; c < width; c++ {
			if i%2 == 0 {
				r[c] = keyTablePool[rng.Intn(4)] // 0, 3, -1 and 2^53
			} else {
				r[c] = keyTablePool[rng.Intn(len(keyTablePool))]
			}
		}
		r[width] = NewInt(int64(i))
		rows[i] = r
	}
	return rows
}

func keyTableSchema(width int, alias string) Schema {
	var sch Schema
	for c := 0; c < width; c++ {
		sch = append(sch, Column{Table: alias, Name: "k" + strconv.Itoa(c), T: TypeInt})
	}
	return append(sch, Column{Table: alias, Name: "id", T: TypeInt})
}

// TestKeyTableMatchesEncoded checks the shared key table against the
// encoded-only oracle over 1-, 2- and 3-column keys: GROUP BY must give the
// oracle's group ids in first-appearance order, and a hash join the oracle's
// rows, each probe's matches in build order, and its bucket count.
func TestKeyTableMatchesEncoded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qc := &queryCtx{ctx: context.Background()}
	for width := 1; width <= 3; width++ {
		cols := make([]operand, width)
		for c := range cols {
			cols[c] = operand{col: c}
		}

		// GROUP BY: keys as they are.
		rows := keyTableRows(rng, 400, width)
		agg := newAggTable(cols, nil, qc)
		oracle := &encodedTable{ids: map[string]int32{}}
		var want []Row
		for _, r := range rows {
			if int(oracle.id(r[:width])) == len(want) {
				want = append(want, r[:width])
			}
			if err := agg.addRow(r); err != nil {
				t.Fatal(err)
			}
			if got, wantID := agg.keys.find(r[:width]), oracle.id(r[:width]); got != wantID {
				t.Fatalf("width %d: %v has group %d, oracle %d", width, r[:width], got, wantID)
			}
		}
		if got := agg.finish(); !reflect.DeepEqual(fmtRows(got), fmtRows(want)) {
			t.Fatalf("width %d: groups %v, oracle %v", width, fmtRows(got), fmtRows(want))
		}

		// Hash join: canonical keys, NULL never matches.
		build, probe := keyTableRows(rng, 300, width), keyTableRows(rng, 300, width)
		canon := func(r Row) ([]Value, bool) {
			k := make([]Value, width)
			for c := range k {
				if r[c].IsNull() {
					return nil, false
				}
				k[c] = canonicalKeyValue(r[c])
			}
			return k, true
		}
		buckets := &encodedTable{ids: map[string]int32{}}
		var members [][]Row
		for _, r := range build {
			if k, ok := canon(r); ok {
				if b := buckets.id(k); int(b) == len(members) {
					members = append(members, []Row{r})
				} else {
					members[b] = append(members[b], r)
				}
			}
		}
		var joined []Row
		for _, l := range probe {
			k, ok := canon(l)
			if !ok {
				continue
			}
			buckets.buf = appendKey(buckets.buf[:0], k)
			if b, ok := buckets.ids[string(buckets.buf)]; ok {
				for _, r := range members[b] {
					joined = append(joined, append(append(Row{}, l...), r...))
				}
			}
		}
		j := newHashJoinOp(&valuesOp{rows: probe, sch: keyTableSchema(width, "l")},
			&valuesOp{rows: build, sch: keyTableSchema(width, "r")}, cols, cols, nil, qc)
		if err := j.open(); err != nil {
			t.Fatal(err)
		}
		var got []Row
		for {
			r, err := j.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r.Clone())
		}
		if !reflect.DeepEqual(fmtRows(got), fmtRows(joined)) {
			t.Fatalf("width %d: join emitted %d rows, oracle %d, or in another order", width, len(got), len(joined))
		}
		if j.keys.len() != int32(len(members)) {
			t.Fatalf("width %d: %d buckets, oracle %d", width, j.keys.len(), len(members))
		}
		t.Logf("width %d: %d groups, %d buckets, %d joined rows", width, len(want), len(members), len(joined))
	}
}

// fmtRows renders rows with floats as their bits, so -0.0 and NaN compare.
func fmtRows(rows []Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		for _, v := range r {
			s := v.T.String() + ":" + v.String()
			if v.T == TypeFloat {
				s = "FLOAT:" + strconv.FormatUint(math.Float64bits(v.F), 16)
			}
			out[i] = append(out[i], s)
		}
	}
	return out
}
