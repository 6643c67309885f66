package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sgb/internal/core"
	"sgb/internal/geom"
)

func mustParseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) returned %T", sql, stmt)
	}
	return sel
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a1,  b.c <> 3.5e2 -- comment\n FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a1", ",", "b", ".", "c", "<>", "3.5e2", "FROM", "t", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[len(kinds)-1] != tokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := lex("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokString || toks[0].text != "it's" {
		t.Fatalf("string token = %+v", toks[0])
	}
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("a ~ b"); err == nil {
		t.Error("unknown character accepted")
	}
}

func TestLexNotEquals(t *testing.T) {
	toks, err := lex("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].text != "<>" {
		t.Fatalf("!= not normalized: %q", toks[1].text)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParseSelect(t, "SELECT a, b AS bee, t.c FROM t WHERE a > 1 AND b = 'x' ORDER BY a DESC LIMIT 5")
	if len(s.Select) != 3 {
		t.Fatalf("select items = %d", len(s.Select))
	}
	if s.Select[1].Alias != "bee" {
		t.Errorf("alias = %q", s.Select[1].Alias)
	}
	cr, ok := s.Select[2].Expr.(*ColumnRef)
	if !ok || cr.Table != "t" || cr.Name != "c" {
		t.Errorf("qualified ref = %+v", s.Select[2].Expr)
	}
	if s.Where == nil || s.Limit != 5 || len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Error("clauses not parsed")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParseSelect(t, "SELECT 1 + 2 * 3")
	be := s.Select[0].Expr.(*BinaryExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %q", be.Op)
	}
	if inner, ok := be.R.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Fatal("* did not bind tighter than +")
	}
	s = mustParseSelect(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	or := s.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top logical op = %q", or.Op)
	}
	if and, ok := or.R.(*BinaryExpr); !ok || and.Op != "AND" {
		t.Fatal("AND did not bind tighter than OR")
	}
}

func TestParseGroupBySGBAllFull(t *testing.T) {
	s := mustParseSelect(t, `
		SELECT count(*) FROM GPSPoints
		GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3
		ON-OVERLAP FORM-NEW-GROUP`)
	gb := s.GroupBy
	if gb == nil || gb.Similarity == nil {
		t.Fatal("similarity clause missing")
	}
	sp := gb.Similarity
	if sp.Mode != SGBAllMode || sp.Metric != geom.LInf || sp.Eps != 3 || sp.Overlap != core.FormNewGroup {
		t.Fatalf("spec = %+v", sp)
	}
	if len(gb.Exprs) != 2 {
		t.Fatalf("group exprs = %d", len(gb.Exprs))
	}
}

func TestParseGroupBySGBTable2Spelling(t *testing.T) {
	// The paper's Table 2 uses DISTANCE-ALL ... USING lone/ltwo and a
	// spaced "on overlap join-any".
	s := mustParseSelect(t, `
		SELECT sum(tp) FROM r
		GROUP BY ab, tp DISTANCE-ALL WITHIN 0.2 USING lone
		on overlap join-any`)
	sp := s.GroupBy.Similarity
	if sp.Mode != SGBAllMode || sp.Metric != geom.LInf || sp.Eps != 0.2 || sp.Overlap != core.JoinAny {
		t.Fatalf("spec = %+v", sp)
	}
	s = mustParseSelect(t, `
		SELECT sum(tp) FROM r
		GROUP BY ab, tp DISTANCE-ANY WITHIN 0.5 USING ltwo`)
	sp = s.GroupBy.Similarity
	if sp.Mode != SGBAnyMode || sp.Metric != geom.L2 || sp.Eps != 0.5 {
		t.Fatalf("spec = %+v", sp)
	}
}

func TestParseGroupBySGBAnyDefaults(t *testing.T) {
	s := mustParseSelect(t, `
		SELECT count(*) FROM GPSPoints
		GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 3`)
	sp := s.GroupBy.Similarity
	if sp.Mode != SGBAnyMode || sp.Metric != geom.L2 || sp.Eps != 3 {
		t.Fatalf("spec = %+v", sp)
	}
}

func TestParseSGBErrors(t *testing.T) {
	bad := []string{
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-ANY L2 WITHIN 3 ON-OVERLAP ELIMINATE",
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-ALL L2 WITHIN 0",
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-ALL L2 WITHIN -1",
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-BOTH L2 WITHIN 1",
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP MERGE",
		"SELECT count(*) FROM t GROUP BY a, b DISTANCE-TO-ALL L2 WITHIN 1 USING chebyshov",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse accepted %q", sql)
		}
	}
}

func TestParseDerivedTableAndInSubquery(t *testing.T) {
	s := mustParseSelect(t, `
		SELECT r.a FROM (SELECT x AS a FROM t WHERE x > 0) AS r
		WHERE r.a IN (SELECT y FROM u)`)
	if s.From[0].Subquery == nil || s.From[0].Alias != "r" {
		t.Fatal("derived table not parsed")
	}
	in, ok := s.Where.(*InSubquery)
	if !ok || in.Not {
		t.Fatalf("IN subquery = %+v", s.Where)
	}
	s = mustParseSelect(t, "SELECT a FROM t WHERE a NOT IN (1, 2, 3)")
	il, ok := s.Where.(*InList)
	if !ok || !il.Not || len(il.Items) != 3 {
		t.Fatalf("NOT IN list = %+v", s.Where)
	}
}

func TestParseJoinSugar(t *testing.T) {
	s := mustParseSelect(t, "SELECT a FROM t JOIN u ON t.id = u.id INNER JOIN v ON u.id = v.id")
	if len(s.From) != 3 {
		t.Fatalf("from items = %d", len(s.From))
	}
	conds := splitConjuncts(s.Where)
	if len(conds) != 2 {
		t.Fatalf("join conditions = %d", len(conds))
	}
}

func TestParseCreateInsertDrop(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTableStmt)
	if ct.Name != "t" || len(ct.Columns) != 3 || ct.Columns[1].T != TypeFloat {
		t.Fatalf("create = %+v", ct)
	}
	stmt, err = Parse("INSERT INTO t VALUES (1, 2.5, 'x'), (2, -1.5, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	stmt, err = Parse("DROP TABLE t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropTableStmt).Name != "t" {
		t.Fatal("drop name wrong")
	}
}

func TestParseCountStarAndFuncs(t *testing.T) {
	s := mustParseSelect(t, "SELECT count(*), sum(a + 1), array_agg(id) FROM t GROUP BY g")
	fc := s.Select[0].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "count" {
		t.Fatalf("count(*) = %+v", fc)
	}
	if s.GroupBy.Similarity != nil {
		t.Fatal("plain GROUP BY acquired similarity spec")
	}
}

func TestParseTrailingGarbage(t *testing.T) {
	if _, err := Parse("SELECT 1 SELECT 2"); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := Parse(""); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

func TestParseNullBoolLiterals(t *testing.T) {
	s := mustParseSelect(t, "SELECT NULL, TRUE, FALSE")
	if s.Select[0].Expr.(*Literal).V != Null {
		t.Error("NULL literal wrong")
	}
	if !s.Select[1].Expr.(*Literal).V.B || s.Select[2].Expr.(*Literal).V.B {
		t.Error("bool literals wrong")
	}
}

// TestParseAllocBudget is the parser's row of the counter budgets: the objects
// and bytes one Parse of a served statement allocates, for serve_read's
// SGB-All SELECT and for an 8-row INSERT shaped like the ingest workload's
// (id, cell and two %v-formatted float coordinates per row, drawn as its
// generator draws them). Both must stay within 5 % of the figures below:
// the objects measured (the same under the race detector) and the bytes the
// race detector measured (6,144 and 12,340 B without it). Budgets only
// ratchet down.
func TestParseAllocBudget(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ins strings.Builder
	ins.WriteString("INSERT INTO pts VALUES ")
	for j := 0; j < 8; j++ {
		cell := r.Intn(20 * 20)
		x := float64(cell%20)*5 + r.NormFloat64()*0.5
		y := float64(cell/20)*5 + r.NormFloat64()*0.5
		if j > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %v, %v)", 4000+j, cell, x, y)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name, sql string
		objects   float64
		bytes     float64
	}{
		{"serve_read", "SELECT count(*), min(lat), max(lat), min(lon), max(lon) FROM checkins " +
			"GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.05 ON-OVERLAP JOIN-ANY", 79, 6600},
		{"insert8", ins.String(), 116, 12904},
	} {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		objects := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %.0f B per Parse", c.name, objects, bytes)
		if objects > 1.05*c.objects {
			t.Errorf("%s: %.0f allocs per Parse, budget %.0f", c.name, objects, 1.05*c.objects)
		}
		if bytes > 1.05*c.bytes {
			t.Errorf("%s: %.0f B per Parse, budget %.0f", c.name, bytes, 1.05*c.bytes)
		}
	}
}
