package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestJoinKeyLargeIntsNoCollision: int keys above 2^53 are not representable
// as distinct float64s; the join must keep them exact instead of widening to
// float and colliding adjacent keys.
func TestJoinKeyLargeIntsNoCollision(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE a (k INT, tag TEXT)",
		"CREATE TABLE b (k INT, tag TEXT)",
		// 2^53 and 2^53+1 round to the same float64.
		"INSERT INTO a VALUES (9007199254740992, 'a-even'), (9007199254740993, 'a-odd')",
		"INSERT INTO b VALUES (9007199254740993, 'b-odd')",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	got := queryStrings(t, db, "SELECT a.tag, b.tag FROM a, b WHERE a.k = b.k ORDER BY a.tag")
	want := [][]string{{"a-odd", "b-odd"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join matched %v, want %v (2^53 collision?)", got, want)
	}
}

// TestJoinKeyIntFloatStillMatch: the collision fix must not break ordinary
// cross-type equality — INT 3 joins FLOAT 3.0.
func TestJoinKeyIntFloatStillMatch(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE ai (k INT)",
		"CREATE TABLE bf (k FLOAT)",
		"INSERT INTO ai VALUES (3), (4)",
		"INSERT INTO bf VALUES (3.0), (4.5)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	got := queryStrings(t, db, "SELECT ai.k FROM ai, bf WHERE ai.k = bf.k")
	want := [][]string{{"3"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("int-float join got %v, want %v", got, want)
	}
}

// TestIndexLookupLargeInts: the hash index shares the canonical key encoding
// and must distinguish neighbouring >2^53 keys too.
func TestIndexLookupLargeInts(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE big (k INT, tag TEXT)",
		"INSERT INTO big VALUES (9007199254740992, 'even'), (9007199254740993, 'odd')",
		"CREATE INDEX big_k ON big (k)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	got := queryStrings(t, db, "SELECT tag FROM big WHERE k = 9007199254740993")
	want := [][]string{{"odd"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index lookup got %v, want %v", got, want)
	}
}

// TestSumOverflowPromotesToFloat: an int64-overflowing SUM degrades to float
// instead of silently wrapping negative.
func TestSumOverflowPromotesToFloat(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE n (v INT)"); err != nil {
		t.Fatal(err)
	}
	big := int64(1) << 62
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO n VALUES (%d), (%d), (%d)", big, big, big)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT sum(v) FROM n")
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0][0]
	if v.T != TypeFloat {
		t.Fatalf("overflowing sum stayed %s (%s) — wrapped?", v.T, v)
	}
	want := 3 * float64(big)
	if v.F != want {
		t.Fatalf("sum = %v, want %v", v.F, want)
	}

	// Non-overflowing int sums must remain exact ints.
	got := queryStrings(t, db, "SELECT sum(v) FROM n WHERE v < 0")
	if got[0][0] != "NULL" {
		t.Fatalf("empty sum = %v, want NULL", got[0][0])
	}
	if _, err := db.Exec("DELETE FROM n"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO n VALUES (9007199254740993), (1)"); err != nil {
		t.Fatal(err)
	}
	got = queryStrings(t, db, "SELECT sum(v) FROM n")
	if got[0][0] != "9007199254740994" {
		t.Fatalf("exact int sum = %v, want 9007199254740994", got[0][0])
	}
}

// TestSumNegativeOverflow: the overflow check must catch the negative
// direction as well.
func TestSumNegativeOverflow(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE n (v INT)"); err != nil {
		t.Fatal(err)
	}
	big := -(int64(1) << 62)
	if _, err := db.Exec(fmt.Sprintf("INSERT INTO n VALUES (%d), (%d), (%d)", big, big, big)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT sum(v) FROM n")
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0][0]
	if v.T != TypeFloat || v.F != 3*float64(big) {
		t.Fatalf("sum = %s %v, want float %v", v.T, v, 3*float64(big))
	}
}

// TestInSubqueryCrossTypeRange: x IN (SELECT …) matches INT and FLOAT keys by
// SQL numeric equality, converting a float to an int only inside the int64
// range, so ±1e19 cannot wrap onto MinInt64. The rows with MinInt64 go in
// through Table.Insert, because the lexer reads -9223372036854775808 as FLOAT.
func TestInSubqueryCrossTypeRange(t *testing.T) {
	db := NewDB()
	tables := []struct {
		name string
		typ  Type
		vals []Value
	}{
		{"a", TypeInt, []Value{NewInt(math.MinInt64), NewInt(5)}},
		{"b", TypeFloat, []Value{NewFloat(1e19), NewFloat(5), NewFloat(-1e19), NewFloat(-exactInt64Bound), Null}},
		{"i3", TypeInt, []Value{NewInt(3), NewInt(4)}},
		{"f3", TypeFloat, []Value{NewFloat(3), NewFloat(4.5)}},
	}
	for _, tb := range tables {
		tbl, err := db.Catalog().Create(tb.name, Schema{{Name: "v", T: tb.typ}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tb.vals {
			if err := tbl.Insert(Row{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	str := func(vs ...Value) [][]string {
		out := [][]string{}
		for _, v := range vs {
			out = append(out, []string{v.String()})
		}
		return out
	}
	for _, c := range []struct {
		sql  string
		want [][]string
	}{
		{"SELECT v FROM b WHERE v IN (SELECT v FROM a) ORDER BY v", str(NewFloat(-exactInt64Bound), NewFloat(5))},
		{"SELECT v FROM b WHERE v NOT IN (SELECT v FROM a) ORDER BY v", str(NewFloat(-1e19), NewFloat(1e19))},
		// In insertion order: 1e19, 5, -1e19, -2^63, and the NULL probe.
		{"SELECT v IN (SELECT v FROM a) FROM b", str(NewBool(false), NewBool(true), NewBool(false), NewBool(true), Null)},
		{"SELECT v FROM a WHERE v IN (SELECT v FROM b) ORDER BY v", str(NewInt(math.MinInt64), NewInt(5))},
		{"SELECT v FROM i3 WHERE v IN (SELECT v FROM f3)", str(NewInt(3))},
		{"SELECT v FROM f3 WHERE v IN (SELECT v FROM i3)", str(NewFloat(3))},
		{"SELECT v FROM f3 WHERE v NOT IN (SELECT v FROM i3)", str(NewFloat(4.5))},
	} {
		if got := queryStrings(t, db, c.sql); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestIntFloatEqualityPlanIndependent: INT = FLOAT is exact whichever plan
// decides it. 2^53+1 does not equal 2^53.0 (the float nearest to it), and
// 2^53 does, under a hash join, a nested loop with a filter, an IN-subquery
// set, a plain filter and a hash index alike.
func TestIntFloatEqualityPlanIndependent(t *testing.T) {
	db := NewDB()
	for _, sql := range []string{
		"CREATE TABLE a (i INT)",
		"CREATE TABLE b (f FLOAT)",
		"CREATE TABLE plain (k INT)",
		"CREATE TABLE indexed (k INT)",
		"INSERT INTO a VALUES (9007199254740993), (9007199254740992)",
		"INSERT INTO b VALUES (9007199254740992.0)",
		"INSERT INTO plain VALUES (9007199254740992), (9007199254740993)",
		"INSERT INTO indexed VALUES (9007199254740992), (9007199254740993)",
		"CREATE INDEX indexed_k ON indexed (k)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []struct{ sql, plan, want string }{
		{"SELECT count(*) FROM a, b WHERE a.i = b.f", "HashJoin", "1"},
		{"SELECT count(*) FROM a, b WHERE a.i = b.f OR a.i < 0", "NestedLoop", "1"},
		{"SELECT count(*) FROM a WHERE i IN (SELECT f FROM b)", "SeqScan on a", "1"},
		{"SELECT count(*) FROM a WHERE i = 9007199254740992.0", "Filter", "1"},
		{"SELECT count(*) FROM a WHERE i IN (9007199254740992.0, -1)", "Filter", "1"},
		{"SELECT count(*) FROM plain WHERE k = 9007199254740992.0", "SeqScan on plain", "1"},
		{"SELECT count(*) FROM indexed WHERE k = 9007199254740992.0", "IndexScan", "1"},
	} {
		plan := strings.Join(planLines(t, db, "EXPLAIN "+c.sql), "\n")
		if !strings.Contains(plan, c.plan) {
			t.Errorf("%s: plan %s has no %s", c.sql, plan, c.plan)
		}
		if got := queryStrings(t, db, c.sql); !reflect.DeepEqual(got, [][]string{{c.want}}) {
			t.Errorf("%s = %v, want %s", c.sql, got, c.want)
		}
	}
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewFloat(1 << 53), NewInt(1<<53 + 1), -1},
		{NewInt(math.MaxInt64), NewFloat(exactInt64Bound), -1},
		{NewInt(math.MinInt64), NewFloat(-exactInt64Bound), 0},
		{NewInt(-3), NewFloat(-3.5), 1},
		{NewInt(3), NewFloat(math.NaN()), 0},
	} {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}
