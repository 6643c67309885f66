package engine

import (
	"fmt"
	"strings"
)

// Column describes one output column of a relation.
type Column struct {
	// Table is the qualifier (table name or alias); empty for derived
	// columns.
	Table string
	// Name is the column name.
	Name string
	// T is the column's declared type.
	T Type
}

// Schema is an ordered column list.
type Schema []Column

// Resolve finds the index of a (possibly qualified) column reference. An
// unqualified name must be unambiguous across the schema.
func (s Schema) Resolve(table, name string) (int, error) {
	name = strings.ToLower(name)
	table = strings.ToLower(table)
	found := -1
	for i, c := range s {
		if strings.ToLower(c.Name) != name {
			continue
		}
		if table != "" && strings.ToLower(c.Table) != table {
			continue
		}
		if found != -1 {
			return 0, fmt.Errorf("engine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found == -1 {
		if table != "" {
			return 0, fmt.Errorf("engine: unknown column %s.%s", table, name)
		}
		return 0, fmt.Errorf("engine: unknown column %q", name)
	}
	return found, nil
}

// Qualify returns a copy of the schema with every column re-qualified by the
// given alias (used for derived tables and table aliases).
func (s Schema) Qualify(alias string) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		out[i] = Column{Table: alias, Name: c.Name, T: c.T}
	}
	return out
}

// Names returns the bare column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}
