package engine

import (
	"fmt"
	"strconv"
	"strings"

	"sgb/internal/core"
	"sgb/internal/geom"
)

// reserved words that terminate expressions and cannot be implicit aliases.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "ON": true, "USING": true,
	"WITHIN": true, "DISTANCE": true, "ASC": true, "DESC": true,
	"JOIN": true, "INNER": true, "VALUES": true, "CREATE": true,
	"INSERT": true, "INTO": true, "TABLE": true, "DROP": true, "NULL": true,
	"TRUE": true, "FALSE": true, "EXPLAIN": true, "COPY": true,
	"DISTINCT": true, "BETWEEN": true, "LIKE": true,
	"UPDATE": true, "DELETE": true, "SET": true, "INDEX": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"VIEW": true, "OFFSET": true,
}

// parser is a recursive-descent parser for the engine's SQL dialect,
// including the paper's similarity grouping grammar:
//
//	GROUP BY e1, e2 DISTANCE-TO-ALL [L2|LINF] WITHIN eps
//	         [USING lone|ltwo] [ON[-]OVERLAP JOIN-ANY|ELIMINATE|FORM-NEW-GROUP]
//	GROUP BY e1, e2 DISTANCE-TO-ANY [L2|LINF] WITHIN eps [USING lone|ltwo]
//
// The DISTANCE-ALL / DISTANCE-ANY shorthand from the paper's Table 2 is also
// accepted.
type parser struct {
	toks []token
	pos  int
	src  string // original statement text, for raw-SQL capture (views)
}

// Parse parses a single SQL statement (an optional trailing ';' is allowed).
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("engine: unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.upper() == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("engine: expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) peekPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.peekPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("engine: expected %q, found %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("engine: expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.peekKeyword("SELECT"):
		return p.parseSelect()
	case p.peekKeyword("CREATE"):
		return p.parseCreateTable()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("DROP"):
		return p.parseDropTable()
	case p.peekKeyword("EXPLAIN"):
		p.next()
		// ANALYZE is contextual, not reserved: it only acts as a keyword
		// directly after EXPLAIN, so columns named "analyze" keep working.
		analyze := p.acceptKeyword("ANALYZE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel, Analyze: analyze}, nil
	case p.peekKeyword("ANALYZE"):
		// ANALYZE stays a contextual keyword: it is only recognized at
		// statement start, so columns named "analyze" keep working.
		p.next()
		stmt := &AnalyzeStmt{}
		if p.peek().kind == tokIdent {
			stmt.Table = p.next().text
		}
		return stmt, nil
	case p.peekKeyword("COPY"):
		return p.parseCopy()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("engine: expected statement, found %q", p.peek().text)
	}
}

func (p *parser) parseCopy() (Statement, error) {
	p.next() // COPY
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokString {
		return nil, fmt.Errorf("engine: COPY expects a quoted file path, found %q", t.text)
	}
	p.pos++
	return &CopyStmt{Table: name, Path: t.text}, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, SetClause{Column: col, Value: e})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if materialized := p.acceptKeyword("MATERIALIZED"); materialized || p.peekKeyword("VIEW") {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		// Capture the definition's raw SELECT text by token offsets so the
		// view can be persisted and re-parsed verbatim.
		start := p.peek().pos
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sql := strings.TrimSpace(p.src[start:p.peek().pos])
		return &CreateViewStmt{Name: name, Query: sel, QuerySQL: sql, Materialized: materialized}, nil
	}
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var schema Schema
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, err := ParseType(typName)
		if err != nil {
			return nil, err
		}
		schema = append(schema, Column{Name: col, T: typ})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Columns: schema}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peekKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &InsertStmt{Table: name, Query: sel}, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return stmt, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	p.next() // DROP
	if materialized := p.acceptKeyword("MATERIALIZED"); materialized || p.peekKeyword("VIEW") {
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropViewStmt{Name: name, Materialized: materialized}, nil
	}
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name, Table: table}, nil
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		var joinConds []Expr
		for {
			item, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, item)
			// Explicit JOIN ... ON sugar folds into the WHERE conjunction.
			for {
				if p.acceptKeyword("INNER") {
					if err := p.expectKeyword("JOIN"); err != nil {
						return nil, err
					}
				} else if !p.acceptKeyword("JOIN") {
					break
				}
				ji, err := p.parseFromItem()
				if err != nil {
					return nil, err
				}
				stmt.From = append(stmt.From, ji)
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				joinConds = append(joinConds, cond)
			}
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if len(joinConds) > 0 {
			stmt.Where = conjoin(joinConds)
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if stmt.Where != nil {
			stmt.Where = &BinaryExpr{Op: "AND", L: stmt.Where, R: w}
		} else {
			stmt.Where = w
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		gb, err := p.parseGroupBy()
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = gb
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("engine: LIMIT expects a number, found %q", t.text)
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("engine: bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("engine: OFFSET expects a number, found %q", t.text)
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("engine: bad OFFSET %q", t.text)
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func conjoin(conds []Expr) Expr {
	out := conds[0]
	for _, c := range conds[1:] {
		out = &BinaryExpr{Op: "AND", L: out, R: c}
	}
	return out
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptPunct("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent && !reserved[t.upper()] {
		p.pos++
		item.Alias = t.text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	if p.acceptPunct("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return FromItem{}, err
		}
		item := FromItem{Subquery: sub}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return FromItem{}, fmt.Errorf("engine: derived table requires an alias: %w", err)
		}
		item.Alias = alias
		return item, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Table: name, Alias: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return FromItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent && !reserved[t.upper()] {
		p.pos++
		item.Alias = t.text
	}
	return item, nil
}

// parseGroupBy parses the grouping expressions plus the optional similarity
// clauses.
func (p *parser) parseGroupBy() (*GroupByClause, error) {
	gb := &GroupByClause{}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		gb.Exprs = append(gb.Exprs, e)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if !p.peekKeyword("DISTANCE") {
		return gb, nil
	}
	p.next() // DISTANCE
	spec := &SimilaritySpec{Metric: geom.L2, Overlap: core.JoinAny}
	// "-TO-ALL" / "-ALL" / "-TO-ANY" / "-ANY".
	if err := p.expectPunct("-"); err != nil {
		return nil, err
	}
	word, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if strings.ToUpper(word) == "TO" {
		if err := p.expectPunct("-"); err != nil {
			return nil, err
		}
		word, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	}
	switch strings.ToUpper(word) {
	case "ALL":
		spec.Mode = SGBAllMode
	case "ANY":
		spec.Mode = SGBAnyMode
	default:
		return nil, fmt.Errorf("engine: expected ALL or ANY in DISTANCE clause, found %q", word)
	}
	// Optional inline metric: any word but WITHIN must name one.
	if t := p.peek(); t.kind == tokIdent && t.upper() != "WITHIN" {
		m, err := geom.ParseMetric(t.text)
		if err != nil {
			return nil, err
		}
		spec.Metric = m
		p.pos++
	}
	if err := p.expectKeyword("WITHIN"); err != nil {
		return nil, err
	}
	eps, err := p.parseNumber()
	if err != nil {
		return nil, fmt.Errorf("engine: WITHIN expects a numeric threshold: %w", err)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("engine: WITHIN threshold must be positive, got %v", eps)
	}
	spec.Eps = eps
	// Optional USING metric (Table 2 spelling).
	if p.acceptKeyword("USING") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		m, err := geom.ParseMetric(name)
		if err != nil {
			return nil, err
		}
		spec.Metric = m
	}
	// Optional ON[-]OVERLAP clause.
	if p.peekKeyword("ON") {
		save := p.save()
		p.next()
		p.acceptPunct("-")
		if !p.acceptKeyword("OVERLAP") {
			p.restore(save)
			gb.Similarity = spec
			return gb, nil
		}
		if spec.Mode == SGBAnyMode {
			return nil, fmt.Errorf("engine: DISTANCE-TO-ANY does not take an ON-OVERLAP clause")
		}
		ov, err := p.parseOverlapClause()
		if err != nil {
			return nil, err
		}
		spec.Overlap = ov
	}
	gb.Similarity = spec
	return gb, nil
}

func (p *parser) parseOverlapClause() (core.Overlap, error) {
	word, err := p.expectIdent()
	if err != nil {
		return 0, err
	}
	switch strings.ToUpper(word) {
	case "JOIN":
		if err := p.expectPunct("-"); err != nil {
			return 0, err
		}
		if err := p.expectKeyword("ANY"); err != nil {
			return 0, err
		}
		return core.JoinAny, nil
	case "JOIN_ANY", "JOINANY":
		return core.JoinAny, nil
	case "ELIMINATE":
		return core.Eliminate, nil
	case "FORM":
		if err := p.expectPunct("-"); err != nil {
			return 0, err
		}
		if err := p.expectKeyword("NEW"); err != nil {
			return 0, err
		}
		if p.peekPunct("-") {
			save := p.save()
			p.next()
			if !p.acceptKeyword("GROUP") {
				p.restore(save)
			}
		}
		return core.FormNewGroup, nil
	case "FORM_NEW", "FORM_NEW_GROUP", "FORMNEWGROUP":
		return core.FormNewGroup, nil
	default:
		return 0, fmt.Errorf("engine: unknown ON-OVERLAP action %q", word)
	}
}

// parseNumber parses an optionally signed numeric literal.
func (p *parser) parseNumber() (float64, error) {
	neg := false
	if p.acceptPunct("-") {
		neg = true
	}
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("expected number, found %q", t.text)
	}
	p.pos++
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseCase parses the remainder of a CASE expression (CASE consumed).
func (p *parser) parseCase() (Expr, error) {
	ce := &CaseExpr{}
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, WhenClause{Cond: cond, Result: result})
	}
	if len(ce.Whens) == 0 {
		return nil, fmt.Errorf("engine: CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}

// ---- expression grammar ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IN / NOT IN / BETWEEN / NOT BETWEEN / LIKE / NOT LIKE.
	not := false
	save := p.save()
	if p.acceptKeyword("NOT") {
		if p.peekKeyword("IN") || p.peekKeyword("BETWEEN") || p.peekKeyword("LIKE") {
			not = true
		} else {
			p.restore(save)
		}
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		// Desugar to (l >= lo AND l <= hi), negated for NOT BETWEEN.
		rng := Expr(&BinaryExpr{Op: "AND",
			L: &BinaryExpr{Op: ">=", L: l, R: lo},
			R: &BinaryExpr{Op: "<=", L: l, R: hi}})
		if not {
			rng = &UnaryExpr{Op: "NOT", X: rng}
		}
		return rng, nil
	}
	if p.acceptKeyword("LIKE") {
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var like Expr = &BinaryExpr{Op: "LIKE", L: l, R: pat}
		if not {
			like = &UnaryExpr{Op: "NOT", X: like}
		}
		return like, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.peekKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &InSubquery{X: l, Query: sub, Not: not}, nil
		}
		var items []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, Items: items, Not: not}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.acceptPunct(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptPunct("+"):
			op = "+"
		case p.acceptPunct("-"):
			op = "-"
		case p.acceptPunct("||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.acceptPunct("*"):
			op = "*"
		case p.acceptPunct("/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: bad number %q", t.text)
			}
			return &Literal{V: NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("engine: bad number %q", t.text)
			}
			return &Literal{V: NewFloat(f)}, nil
		}
		return &Literal{V: NewInt(i)}, nil
	case tokString:
		p.pos++
		return &Literal{V: NewString(t.text)}, nil
	case tokPunct:
		if t.text == "(" {
			p.pos++
			if p.peekKeyword("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Query: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch t.upper() {
		case "CASE":
			p.pos++
			return p.parseCase()
		case "NULL":
			p.pos++
			return &Literal{V: Null}, nil
		case "TRUE":
			p.pos++
			return &Literal{V: NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{V: NewBool(false)}, nil
		}
		p.pos++
		// Function call?
		if p.acceptPunct("(") {
			call := &FuncCall{Name: strings.ToLower(t.text)}
			if p.acceptKeyword("DISTINCT") {
				call.Distinct = true
			}
			if p.acceptPunct("*") {
				call.Star = true
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if !p.acceptPunct(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.acceptPunct(",") {
						continue
					}
					break
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		// Qualified column?
		if p.acceptPunct(".") {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: name}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	}
	return nil, fmt.Errorf("engine: unexpected token %q in expression", t.text)
}
