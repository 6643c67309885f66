package core

import (
	"fmt"
	"strings"

	"sgb/internal/geom"
)

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// ParseOverlap maps SQL spellings ("JOIN-ANY", "join_any", "form-new-group",
// "FORM-NEW", ...) onto an Overlap clause.
func ParseOverlap(s string) (Overlap, error) {
	switch strings.ToUpper(strings.NewReplacer("-", "", "_", "", " ", "").Replace(s)) {
	case "JOINANY":
		return JoinAny, nil
	case "ELIMINATE":
		return Eliminate, nil
	case "FORMNEWGROUP", "FORMNEW":
		return FormNewGroup, nil
	default:
		return 0, fmt.Errorf("core: unknown ON-OVERLAP clause %q", s)
	}
}

// SGBAllCols is SGBAll over a columnar point set.
func SGBAllCols(c geom.Cols, opt Options) (*Result, error) {
	g, err := NewAllGrouper(opt)
	if err != nil {
		return nil, err
	}
	if err := g.AddCols(c); err != nil {
		return nil, err
	}
	return g.Finish()
}

// SGBAnyCols is SGBAny over a columnar point set.
func SGBAnyCols(c geom.Cols, opt Options) (*Result, error) {
	g, err := NewAnyGrouper(opt)
	if err != nil {
		return nil, err
	}
	if err := g.AddCols(c); err != nil {
		return nil, err
	}
	return g.Finish()
}
