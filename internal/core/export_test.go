package core

import (
	"fmt"
	"strings"
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
