// Package unionfind implements a disjoint-set forest with union by rank and
// path compression (Tarjan & van Leeuwen). The SGB-Any operator uses it to
// track group identity while ε-connected groups merge (§7 of the paper).
package unionfind

// Forest is a disjoint-set forest over dense integer element ids. Elements
// are created with MakeSet and identified by the returned id; ids are
// allocated sequentially starting at 0.
//
// The zero value is an empty forest ready to use.
type Forest struct {
	parent []int32
	rank   []int8
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
		f.rank = append(f.rank, 0)
	}
	f.sets += n
	return first
}

// MakeSet creates a new singleton set and returns its element id.
func (f *Forest) MakeSet() int { return f.Grow(1) }

// Len reports the number of elements in the forest.
func (f *Forest) Len() int { return len(f.parent) }

// Find returns the canonical representative of x's set, compressing the path
// along the way.
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

// Union merges the sets containing x and y and returns the representative of
// the merged set. Merging an element with itself is a no-op.
func (f *Forest) Union(x, y int) int {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return rx
	}
	if f.rank[rx] < f.rank[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = int32(rx)
	if f.rank[rx] == f.rank[ry] {
		f.rank[rx]++
	}
	f.sets--
	return rx
}

// Groups materializes the current partition as a map from representative id
// to member ids. Member order within a group follows element id order.
func (f *Forest) Groups() map[int][]int {
	out := make(map[int][]int, f.sets)
	for i := range f.parent {
		r := f.Find(i)
		out[r] = append(out[r], i)
	}
	return out
}
