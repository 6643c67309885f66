package rtree

import (
	"math"
	"sort"

	"sgb/internal/geom"
)

// BulkEntry is one (rectangle, reference) pair for bulk loading.
type BulkEntry struct {
	Rect geom.Rect
	Ref  int64
}

// BulkLoad builds a tree from all entries at once using Sort-Tile-Recursive
// packing (Leutenegger et al.): entries are sorted by the first axis, tiled
// into vertical runs, each run sorted by the second axis and packed into
// balanced nodes. Packed trees have near-full node occupancy, which makes
// window queries on static point sets (the DBSCAN baseline, read-only
// workloads) noticeably cheaper than trees grown by repeated insertion. The
// packed tree supports subsequent Insert like any other.
//
// The entries slice is reordered in place.
func BulkLoad(dim int, entries []BulkEntry) *Tree {
	t := New(dim)
	if len(entries) == 0 {
		return t
	}
	leaves := packLeaves(t, entries)
	level := leaves
	for len(level) > 1 {
		level = packNodes(t, level)
	}
	t.root = level[0]
	t.size = len(entries)
	return t
}

// center returns a rectangle's midpoint along the given axis.
func center(r geom.Rect, axis int) float64 {
	return (r.Min[axis] + r.Max[axis]) / 2
}

// chunks splits n items into balanced consecutive chunks of at most cap
// items each and returns the chunk boundaries. Balancing keeps every chunk
// at least ⌈n/k⌉ ≥ cap/2 ≥ minEntries items (for n > cap), so packed nodes
// never underflow.
func chunks(n, cap int) []int {
	k := (n + cap - 1) / cap
	bounds := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		bounds = append(bounds, i*n/k)
	}
	return bounds
}

// runBounds tiles n sorted items into ~sqrt(k) runs of whole chunks.
func runBounds(n, cap int) []int {
	k := (n + cap - 1) / cap
	sliceCount := int(math.Ceil(math.Sqrt(float64(k))))
	sliceSize := sliceCount * cap
	bounds := []int{0}
	for start := sliceSize; start < n; start += sliceSize {
		bounds = append(bounds, start)
	}
	bounds = append(bounds, n)
	// Fold a tiny trailing run into its predecessor so every run stays at
	// least one full node wide (keeps chunk balancing above minEntries).
	if len(bounds) >= 3 && n-bounds[len(bounds)-2] < cap {
		bounds = append(bounds[:len(bounds)-2], n)
	}
	return bounds
}

// packLeaves tiles the entries into balanced leaf nodes.
func packLeaves(t *Tree, entries []BulkEntry) []*node {
	sort.Slice(entries, func(i, j int) bool {
		return center(entries[i].Rect, 0) < center(entries[j].Rect, 0)
	})
	var leaves []*node
	rb := runBounds(len(entries), t.maxEntries)
	for ri := 0; ri+1 < len(rb); ri++ {
		run := entries[rb[ri]:rb[ri+1]]
		if t.dim > 1 {
			sort.Slice(run, func(i, j int) bool {
				return center(run[i].Rect, 1) < center(run[j].Rect, 1)
			})
		}
		cb := chunks(len(run), t.maxEntries)
		for ci := 0; ci+1 < len(cb); ci++ {
			chunk := run[cb[ci]:cb[ci+1]]
			leaf := &node{leaf: true, entries: make([]entry, 0, len(chunk))}
			for _, be := range chunk {
				leaf.entries = append(leaf.entries, entry{rect: be.Rect.Clone(), ref: be.Ref})
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

// packNodes groups a level of nodes into balanced parents, preserving the
// packed spatial order.
func packNodes(t *Tree, level []*node) []*node {
	type holder struct {
		n *node
		r geom.Rect
	}
	hs := make([]holder, len(level))
	for i, n := range level {
		hs[i] = holder{n: n, r: mbrOf(n.entries)}
	}
	sort.Slice(hs, func(i, j int) bool {
		return center(hs[i].r, 0) < center(hs[j].r, 0)
	})
	var parents []*node
	rb := runBounds(len(hs), t.maxEntries)
	for ri := 0; ri+1 < len(rb); ri++ {
		run := hs[rb[ri]:rb[ri+1]]
		if t.dim > 1 {
			sort.Slice(run, func(i, j int) bool {
				return center(run[i].r, 1) < center(run[j].r, 1)
			})
		}
		cb := chunks(len(run), t.maxEntries)
		for ci := 0; ci+1 < len(cb); ci++ {
			chunk := run[cb[ci]:cb[ci+1]]
			parent := &node{entries: make([]entry, 0, len(chunk))}
			for _, h := range chunk {
				h.n.parent = parent
				parent.entries = append(parent.entries, entry{rect: h.r, child: h.n})
			}
			parents = append(parents, parent)
		}
	}
	return parents
}
