// Package unionfind implements a disjoint-set forest with path compression
// (Tarjan & van Leeuwen) whose root is always its set's smallest element. The
// SGB-Any operator uses it to track group identity while ε-connected groups
// merge (§7 of the paper): since SGB-Any is order-independent, a group's
// smallest member is a stable id, so Find answers the group id directly.
package unionfind

// Forest is a disjoint-set forest over dense integer element ids. Elements
// are created with MakeSet and identified by the returned id; ids are
// allocated sequentially starting at 0.
//
// The zero value is an empty forest ready to use.
type Forest struct {
	parent []int32
	sets   int
}

// New returns a forest pre-sized for n elements (each its own set).
func New(n int) *Forest {
	f := &Forest{}
	f.Grow(n)
	return f
}

// Grow appends n fresh singleton sets and returns the id of the first one.
func (f *Forest) Grow(n int) int {
	first := len(f.parent)
	for i := 0; i < n; i++ {
		f.parent = append(f.parent, int32(len(f.parent)))
	}
	f.sets += n
	return first
}

// Reserve makes room for n elements in all, so that MakeSet does not
// reallocate before the forest holds n. It changes no set, and the forest
// still grows past n.
func (f *Forest) Reserve(n int) {
	if n > cap(f.parent) {
		f.parent = append(make([]int32, 0, n), f.parent...)
	}
}

// MakeSet creates a new singleton set and returns its element id.
func (f *Forest) MakeSet() int { return f.Grow(1) }

// Len reports the number of elements in the forest.
func (f *Forest) Len() int { return len(f.parent) }

// Find returns the smallest element of x's set, its root, compressing the
// path along the way.
func (f *Forest) Find(x int) int {
	root := x
	for int(f.parent[root]) != root {
		root = int(f.parent[root])
	}
	for int(f.parent[x]) != root {
		x, f.parent[x] = int(f.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing x and y, linking the larger root under
// the smaller, and returns the merged set's root: the smaller of the two.
// Merging an element with itself is a no-op.
func (f *Forest) Union(x, y int) int {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return rx
	}
	if ry < rx {
		rx, ry = ry, rx
	}
	f.parent[ry] = int32(rx)
	f.sets--
	return rx
}

// Groups materializes the current partition: one slice per set, ordered by
// smallest member, members ascending, all carved from one backing array. A
// root precedes the rest of its set, so one ascending pass places every
// element after a counting pass sized the sets.
func (f *Forest) Groups() [][]int {
	if len(f.parent) == 0 {
		return nil
	}
	// slot[r] is root r's set size, then, once r is reached, its index in out.
	slot := make([]int, len(f.parent))
	for i := range f.parent {
		slot[f.Find(i)]++
	}
	all := make([]int, len(f.parent))
	out := make([][]int, 0, f.sets)
	for i := range f.parent {
		r := f.Find(i)
		if r == i {
			n := slot[i]
			out = append(out, all[:0:n])
			all = all[n:]
			slot[i] = len(out) - 1
		}
		out[slot[r]] = append(out[slot[r]], i)
	}
	return out
}
