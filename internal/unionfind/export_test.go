package unionfind

// Test hooks: exported only to this package's tests, because no non-test
// code calls them.

// Sets reports the current number of disjoint sets.
func (f *Forest) Sets() int { return f.sets }

// Same reports whether x and y currently belong to the same set.
func (f *Forest) Same(x, y int) bool { return f.Find(x) == f.Find(y) }
