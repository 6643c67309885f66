package engine

import (
	"fmt"
	"sort"
	"strings"
)

// Table is an in-memory heap relation, optionally carrying secondary hash
// indexes over single columns.
type Table struct {
	Name    string
	Schema  Schema
	Rows    []Row
	Indexes []*Index
	// Stats is the table's statistics catalog entry (see stats.go); nil until
	// the first DML or ANALYZE touches the table.
	Stats *TableStats
}

// View is a named SELECT. Both kinds read by re-planning Query; a
// materialized view (Shape != nil) also has its similarity groups maintained
// from the base table's committed rows (see internal/stream). SQL is the
// definition's original SELECT text, which snapshots store and re-parse.
type View struct {
	Name  string
	Query *SelectStmt
	SQL   string
	Shape *MatViewShape
}

// viewKind names a view kind in error messages.
func viewKind(materialized bool) string {
	if materialized {
		return "materialized view"
	}
	return "view"
}

// Catalog maps table and view names (case-insensitive) to their
// definitions. Tables and views share one namespace.
type Catalog struct {
	tables map[string]*Table
	views  map[string]*View
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), views: make(map[string]*View)}
}

// free reports an error when name is already a table or a view.
func (c *Catalog) free(name string) error {
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("engine: a table named %q already exists", name)
	}
	if v, ok := c.views[key]; ok {
		return fmt.Errorf("engine: a %s named %q already exists", viewKind(v.Shape != nil), name)
	}
	return nil
}

// CreateView registers a view definition.
func (c *Catalog) CreateView(v *View) error {
	if err := c.free(v.Name); err != nil {
		return err
	}
	c.views[strings.ToLower(v.Name)] = v
	return nil
}

// View looks a view of either kind up by name.
func (c *Catalog) View(name string) (*View, bool) {
	v, ok := c.views[strings.ToLower(name)]
	return v, ok
}

// DropView removes the named view of the given kind; a missing view, or one
// of the other kind, is an error.
func (c *Catalog) DropView(name string, materialized bool) error {
	key := strings.ToLower(name)
	if v, ok := c.views[key]; !ok || (v.Shape != nil) != materialized {
		return fmt.Errorf("engine: unknown %s %q", viewKind(materialized), name)
	}
	delete(c.views, key)
	return nil
}

// MatViews lists every materialized view, sorted by name, so snapshots and
// debug endpoints render deterministically.
func (c *Catalog) MatViews() []*View {
	return c.sortedViews(true)
}

// sortedViews lists the views of one kind, sorted by name.
func (c *Catalog) sortedViews(materialized bool) []*View {
	var out []*View
	for _, v := range c.views {
		if (v.Shape != nil) == materialized {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Create registers a new empty table. Column qualifiers are forced to the
// table name.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	if err := c.free(name); err != nil {
		return nil, err
	}
	t := &Table{Name: name, Schema: schema.Qualify(name)}
	c.tables[strings.ToLower(name)] = t
	return t, nil
}

// Drop removes a table; it is not an error to drop a missing table.
func (c *Catalog) Drop(name string) {
	delete(c.tables, strings.ToLower(name))
}

// Get looks a table up by name.
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// Names lists the catalog's table names (unordered).
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}

// Insert appends rows after checking arity and coercing ints to declared
// float columns (the one implicit conversion the engine performs). The whole
// batch is validated before any row is appended, so a failed INSERT leaves
// the table untouched rather than half-written.
func (t *Table) Insert(rows ...Row) error {
	for _, r := range rows {
		if len(r) != len(t.Schema) {
			return fmt.Errorf("engine: row arity %d does not match table %s (%d columns)",
				len(r), t.Name, len(t.Schema))
		}
		for i, v := range r {
			switch {
			case v.IsNull():
			case t.Schema[i].T == TypeFloat && v.T == TypeInt:
				r[i] = NewFloat(float64(v.I))
			case v.T != t.Schema[i].T:
				return fmt.Errorf("engine: column %s.%s expects %s, got %s",
					t.Name, t.Schema[i].Name, t.Schema[i].T, v.T)
			}
		}
	}
	start := len(t.Rows)
	t.Rows = append(t.Rows, rows...)
	for pos := start; pos < len(t.Rows); pos++ {
		for _, ix := range t.Indexes {
			ix.addRow(t, pos)
		}
	}
	// Statistics are folded in only once the batch is committed, so a
	// validation failure above leaves the counters untouched too.
	t.statsNoteInsert(rows)
	return nil
}
