package tpch

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sgb/internal/core"
	"sgb/internal/engine"
)

func TestGenerateCardinalities(t *testing.T) {
	d := Generate(Config{SF: 1, CustomersPerSF: 300, Seed: 1})
	c := d.Counts()
	if c["customer"] != 300 {
		t.Fatalf("customers = %d", c["customer"])
	}
	if c["orders"] != 3000 {
		t.Fatalf("orders = %d (want 10x customers)", c["orders"])
	}
	if c["nation"] != 25 {
		t.Fatalf("nations = %d", c["nation"])
	}
	// Lineitems average ~4 per order.
	ratio := float64(c["lineitem"]) / float64(c["orders"])
	if ratio < 2.5 || ratio > 5.5 {
		t.Fatalf("lineitem/order ratio = %v", ratio)
	}
	if c["partsupp"] == 0 || c["supplier"] == 0 {
		t.Fatal("supplier-side tables empty")
	}
	// Scale factor scales linearly.
	d2 := Generate(Config{SF: 2, CustomersPerSF: 300, Seed: 1})
	if d2.Counts()["customer"] != 600 || d2.Counts()["orders"] != 6000 {
		t.Fatalf("SF=2 counts: %v", d2.Counts())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.5, CustomersPerSF: 200, Seed: 7})
	b := Generate(Config{SF: 0.5, CustomersPerSF: 200, Seed: 7})
	if !reflect.DeepEqual(a.Customers, b.Customers) || !reflect.DeepEqual(a.Lineitems, b.Lineitems) {
		t.Fatal("same seed produced different data")
	}
	c := Generate(Config{SF: 0.5, CustomersPerSF: 200, Seed: 8})
	if reflect.DeepEqual(a.Customers, c.Customers) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestValueRanges(t *testing.T) {
	d := Generate(Config{SF: 1, CustomersPerSF: 200, Seed: 2})
	for _, r := range d.Customers {
		bal := r[2].F
		if bal < -999.99 || bal > 9999.99 {
			t.Fatalf("c_acctbal out of spec range: %v", bal)
		}
	}
	for _, r := range d.Lineitems {
		if q := r[3].F; q < 1 || q > 50 {
			t.Fatalf("l_quantity out of range: %v", q)
		}
		if disc := r[5].F; disc < 0 || disc > 0.10 {
			t.Fatalf("l_discount out of range: %v", disc)
		}
		ship, receipt := r[6].I, r[7].I
		if receipt <= ship {
			t.Fatalf("receipt %d not after ship %d", receipt, ship)
		}
		if ship < dateLo || receipt > dateHi+200 {
			t.Fatalf("dates out of range: %d..%d", ship, receipt)
		}
	}
}

func TestForeignKeysValid(t *testing.T) {
	d := Generate(Config{SF: 1, CustomersPerSF: 150, Seed: 3})
	nCust := int64(len(d.Customers))
	nSupp := int64(len(d.Suppliers))
	orderKeys := map[int64]bool{}
	for _, r := range d.Orders {
		orderKeys[r[0].I] = true
		if ck := r[1].I; ck < 1 || ck > nCust {
			t.Fatalf("o_custkey %d out of range", ck)
		}
	}
	for _, r := range d.Lineitems {
		if !orderKeys[r[0].I] {
			t.Fatalf("l_orderkey %d has no order", r[0].I)
		}
		if sk := r[2].I; sk < 1 || sk > nSupp {
			t.Fatalf("l_suppkey %d out of range", sk)
		}
	}
	for _, r := range d.PartSupps {
		if sk := r[1].I; sk < 1 || sk > nSupp {
			t.Fatalf("ps_suppkey %d out of range", sk)
		}
	}
}

// TestTable2JoinAllocBudget is the join row of the counter budgets: what the
// paper's Table 2 join statements allocate per execution at the benchmark's
// size (SF 0.3, seed 1), in objects and in bytes, within 5 % of the last
// measurement. GB2 is three hash joins under a hash aggregate (252,455 objects
// before binary keys, arena join rows and join column pruning; 5,542 after;
// 11.68 MB while joins carved a row per match, 0.62 MB since they reuse one);
// GB1 is a join filtered through an IN-subquery (108,906; 36,952; 2.76 MB
// before the reused rows, 2.60 MB after); SGB3 is a join under a grouping
// sub-select under SGB-All (13,759 objects and 6.55 MB before; 13,740 and
// 1.39 MB after). Budgets only ratchet down.
func TestTable2JoinAllocBudget(t *testing.T) {
	db := engine.NewDB()
	if err := Generate(Config{SF: 0.3, CustomersPerSF: 1500, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q              QuerySpec
		allocs, mbytes float64
	}{
		{GB1(), 38800, 2.73},
		{GB2(), 5750, 0.65},
		{SGB3(0.2, core.JoinAny), 14430, 1.46},
	} {
		allocs, bytes := perExec(t, db, c.q.SQL)
		mb := bytes / 1e6
		t.Logf("%s: %.0f allocs, %.2f MB", c.q.ID, allocs, mb)
		if allocs > c.allocs {
			t.Errorf("%s: %.0f allocs, budget %.0f", c.q.ID, allocs, c.allocs)
		}
		if mb > c.mbytes {
			t.Errorf("%s: %.2f MB allocated, budget %.2f MB", c.q.ID, mb, c.mbytes)
		}
	}
}

// perExec runs sql once to warm up, then five times, and returns the mean
// objects and bytes allocated per execution, read from runtime.MemStats at
// GOMAXPROCS 1 as testing.AllocsPerRun does.
func perExec(t *testing.T, db *engine.DB, sql string) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

func table2DB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	if err := Generate(Config{SF: 1, CustomersPerSF: 100, Seed: 1}).Load(db); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQuerySpecsParse runs all nine Table 2 statements under every ON-OVERLAP
// clause.
func TestQuerySpecsParse(t *testing.T) {
	db := table2DB(t)
	for _, ov := range []core.Overlap{core.JoinAny, core.Eliminate, core.FormNewGroup} {
		for _, q := range AllQueries(0.3, ov) {
			if _, err := db.Query(q.SQL); err != nil {
				t.Errorf("%s (%v): %v", q.ID, ov, err)
			}
		}
	}
}

// TestTable2AllQueriesRun checks that AllQueries is Table 2's nine statements
// in order, and that the Group-By statements return rows.
func TestTable2AllQueriesRun(t *testing.T) {
	db := table2DB(t)
	want := []string{"GB1", "SGB1", "SGB2", "GB2", "SGB3", "SGB4", "GB3", "SGB5", "SGB6"}
	qs := AllQueries(0.2, core.JoinAny)
	if len(qs) != len(want) {
		t.Fatalf("AllQueries returned %d statements, want %d", len(qs), len(want))
	}
	for i, q := range qs {
		if q.ID != want[i] {
			t.Errorf("statement %d is %s, want %s", i, q.ID, want[i])
		}
		res, err := db.Query(q.SQL)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			continue
		}
		if strings.HasPrefix(q.ID, "GB") && len(res.Rows) == 0 {
			t.Errorf("%s returned no rows", q.ID)
		}
	}
}

func TestLoadAndQuery(t *testing.T) {
	db := engine.NewDB()
	d := Generate(Config{SF: 1, CustomersPerSF: 120, Seed: 4})
	if err := d.Load(db); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT count(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 120 {
		t.Fatalf("customer count via SQL = %v", res.Rows[0][0])
	}
	// A representative join + aggregate exercises the loaded keys.
	res, err = db.Query(`
		SELECT count(*), sum(o_totalprice)
		FROM customer, orders
		WHERE c_custkey = o_custkey AND c_acctbal > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I == 0 {
		t.Fatal("join produced no rows")
	}
}
