package hull

import "sgb/internal/geom"

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// Vertices returns the current hull polygon (counter-clockwise). The slice
// must not be mutated.
func (h *Incremental) Vertices() []geom.Point { return h.verts }
