package grid

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// Fallbacks reports how many Block probes enumerated the point's ε′-block
// because it reached past the cells within reach of the home cell.
func (ix *Index) Fallbacks() int { return ix.fallbacks }
