package engine

import (
	"sgb/internal/core"
	"sgb/internal/geom"
)

// Expr is a SQL expression node.
type Expr interface{ expr() }

// ColumnRef references a (possibly qualified) column.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Literal wraps a constant value.
type Literal struct {
	V Value
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string // "+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Expr
}

// UnaryExpr applies a prefix operator ("-" or "NOT").
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall invokes a scalar or aggregate function.
type FuncCall struct {
	Name     string // lower-cased
	Args     []Expr
	Star     bool // count(*)
	Distinct bool // aggregate DISTINCT, e.g. count(DISTINCT x)
}

// InSubquery is `expr IN (SELECT ...)` over an uncorrelated subquery.
type InSubquery struct {
	X     Expr
	Query *SelectStmt
	Not   bool
}

// InList is `expr IN (v1, v2, ...)`.
type InList struct {
	X     Expr
	Items []Expr
	Not   bool
}

func (*ColumnRef) expr()      {}
func (*Literal) expr()        {}
func (*BinaryExpr) expr()     {}
func (*UnaryExpr) expr()      {}
func (*FuncCall) expr()       {}
func (*InSubquery) expr()     {}
func (*InList) expr()         {}
func (*CaseExpr) expr()       {}
func (*ScalarSubquery) expr() {}

// ScalarSubquery is an uncorrelated subquery used as a value: it must
// produce one column and at most one row (zero rows yield NULL).
type ScalarSubquery struct {
	Query *SelectStmt
}

// WhenClause is one WHEN ... THEN ... arm of a CASE expression.
type WhenClause struct {
	Cond   Expr // comparison value (simple CASE) or boolean condition
	Result Expr
}

// CaseExpr is a simple (CASE x WHEN v THEN r ...) or searched
// (CASE WHEN cond THEN r ...) conditional expression.
type CaseExpr struct {
	Operand Expr // nil for the searched form
	Whens   []WhenClause
	Else    Expr // nil means ELSE NULL
}

// SelectItem is one SELECT-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// FromItem is one FROM-list source: a base table or a derived table.
type FromItem struct {
	Table    string
	Subquery *SelectStmt
	Alias    string
}

// SGBMode distinguishes the two similarity grouping semantics.
type SGBMode uint8

const (
	// SGBAllMode is DISTANCE-TO-ALL.
	SGBAllMode SGBMode = iota
	// SGBAnyMode is DISTANCE-TO-ANY.
	SGBAnyMode
)

// SimilaritySpec carries the similarity clauses attached to GROUP BY.
type SimilaritySpec struct {
	Mode    SGBMode
	Metric  geom.Metric
	Eps     float64
	Overlap core.Overlap // DISTANCE-TO-ALL only
}

// GroupByClause is the (possibly similarity-extended) GROUP BY.
type GroupByClause struct {
	Exprs      []Expr
	Similarity *SimilaritySpec // nil for the standard equality Group-By
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []FromItem
	Where    Expr
	GroupBy  *GroupByClause
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Offset   int // 0 when absent
}

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

func (*SelectStmt) stmt() {}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Name    string
	Columns Schema
}

func (*CreateTableStmt) stmt() {}

// InsertStmt is a parsed INSERT INTO ... VALUES or INSERT INTO ... SELECT.
type InsertStmt struct {
	Table string
	Rows  [][]Expr    // VALUES form
	Query *SelectStmt // SELECT form (exclusive with Rows)
}

func (*InsertStmt) stmt() {}

// DropTableStmt is a parsed DROP TABLE.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmt() {}

// SetClause is one assignment of an UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is a parsed UPDATE ... SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is a parsed DELETE FROM ... [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// CreateViewStmt is a parsed CREATE [MATERIALIZED] VIEW name AS SELECT ...
// A materialized view is a similarity-group view whose group state is
// maintained incrementally from committed writes (see internal/stream).
// QuerySQL is the definition's original SELECT text, captured so the view
// can be persisted in snapshots and re-parsed on load.
type CreateViewStmt struct {
	Name         string
	Query        *SelectStmt
	QuerySQL     string
	Materialized bool
}

func (*CreateViewStmt) stmt() {}

// DropViewStmt is a parsed DROP [MATERIALIZED] VIEW.
type DropViewStmt struct {
	Name         string
	Materialized bool
}

func (*DropViewStmt) stmt() {}
