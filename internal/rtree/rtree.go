// Package rtree implements an in-memory R-tree (Guttman 1984) with quadratic
// node splitting. SGB-Any uses it as the paper's on-the-fly index of
// processed points (Points_IX, Procedure 8) in the dimensionalities where the
// ε-grid's probe block is too large, and the DBSCAN baseline as its region
// query index. (SGB-All's Groups_IX is the ε-grid of internal/grid.)
//
// The tree stores (rectangle, int64 reference) entries and supports window
// queries, insertion and STR bulk loading.
package rtree

import (
	"sgb/internal/geom"
)

// Default node fan-out bounds. Guttman suggests m ≤ M/2; these values keep
// nodes cache-friendly for the 2-D/3-D rectangles the operators index.
const (
	defaultMax = 16
	defaultMin = 6
)

type entry struct {
	rect  geom.Rect
	child *node // nil at the leaf level
	ref   int64 // payload at the leaf level
}

type node struct {
	leaf    bool
	entries []entry
	parent  *node
}

// Tree is an R-tree over d-dimensional rectangles. The zero value is not
// usable; construct trees with New.
type Tree struct {
	dim        int
	root       *node
	size       int
	minEntries int
	maxEntries int
}

// New returns an empty R-tree for rectangles of the given dimensionality.
func New(dim int) *Tree { return newWithFanout(dim, defaultMin, defaultMax) }

// newWithFanout returns an empty tree with explicit node fan-out bounds;
// tests use small ones to force deep trees. It panics unless
// 2 ≤ min ≤ max/2.
func newWithFanout(dim, min, max int) *Tree {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	if min < 2 || min > max/2 {
		panic("rtree: fan-out bounds must satisfy 2 <= min <= max/2")
	}
	return &Tree{
		dim:        dim,
		root:       &node{leaf: true},
		minEntries: min,
		maxEntries: max,
	}
}

// Len reports the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Dim reports the dimensionality of the tree.
func (t *Tree) Dim() int { return t.dim }

// Insert adds an entry with the given bounding rectangle and reference.
func (t *Tree) Insert(r geom.Rect, ref int64) {
	if r.Dim() != t.dim {
		panic("rtree: rectangle dimension mismatch")
	}
	e := entry{rect: r.Clone(), ref: ref}
	t.size++
	n := t.chooseLeaf(e.rect)
	n.entries = append(n.entries, e)
	if len(n.entries) > t.maxEntries {
		t.splitAndAdjust(n)
		return
	}
	// No split: the covering rectangles along the path only need to grow
	// to include e, which can be done in place without recomputing MBRs.
	for c, p := n, n.parent; p != nil; c, p = p, p.parent {
		for i := range p.entries {
			if p.entries[i].child == c {
				p.entries[i].rect.ExpandRectInPlace(e.rect)
				break
			}
		}
	}
}

// chooseLeaf descends from the root picking the child whose rectangle needs
// the least enlargement, breaking ties by smaller area (Guttman's
// ChooseLeaf).
func (t *Tree) chooseLeaf(r geom.Rect) *node {
	n := t.root
	for {
		if n.leaf {
			return n
		}
		best := -1
		var bestEnl, bestArea float64
		for i := range n.entries {
			enl := n.entries[i].rect.Enlargement(r)
			area := n.entries[i].rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
	}
}

// adjustUp recomputes covering rectangles from n to the root.
func (t *Tree) adjustUp(n *node) {
	for p := n.parent; p != nil; n, p = p, p.parent {
		for i := range p.entries {
			if p.entries[i].child == n {
				p.entries[i].rect = mbrOf(n.entries)
				break
			}
		}
	}
}

// splitAndAdjust splits an overflowing node and propagates splits upward,
// growing the tree at the root if necessary.
func (t *Tree) splitAndAdjust(n *node) {
	for {
		sib := t.quadraticSplit(n)
		if n.parent == nil {
			// Grow a new root above n and its new sibling.
			root := &node{leaf: false}
			root.entries = []entry{
				{rect: mbrOf(n.entries), child: n},
				{rect: mbrOf(sib.entries), child: sib},
			}
			n.parent, sib.parent = root, root
			t.root = root
			return
		}
		p := n.parent
		for i := range p.entries {
			if p.entries[i].child == n {
				p.entries[i].rect = mbrOf(n.entries)
				break
			}
		}
		sib.parent = p
		p.entries = append(p.entries, entry{rect: mbrOf(sib.entries), child: sib})
		if len(p.entries) <= t.maxEntries {
			t.adjustUp(p)
			return
		}
		n = p
	}
}

// quadraticSplit redistributes n's entries between n and a new sibling and
// returns the sibling. Seeds are chosen with Guttman's *linear* PickSeeds
// (the pair with the greatest normalized separation along some axis), which
// costs O(M·d) instead of O(M²) — the split rate on the operators'
// point-heavy workloads makes the quadratic seed search a measurable
// fraction of total insert time. The distribution step follows Guttman's
// least-enlargement rule with the min-entries backstop.
func (t *Tree) quadraticSplit(n *node) *node {
	entries := n.entries
	dim := t.dim
	si, sj := 0, 1
	bestSep := -1.0
	for d := 0; d < dim; d++ {
		// Extreme entries: highest low side and lowest high side.
		hiLow, loHigh := 0, 0
		lo, hi := entries[0].rect.Min[d], entries[0].rect.Max[d]
		for i, e := range entries {
			if e.rect.Min[d] > entries[hiLow].rect.Min[d] {
				hiLow = i
			}
			if e.rect.Max[d] < entries[loHigh].rect.Max[d] {
				loHigh = i
			}
			if e.rect.Min[d] < lo {
				lo = e.rect.Min[d]
			}
			if e.rect.Max[d] > hi {
				hi = e.rect.Max[d]
			}
		}
		width := hi - lo
		if width <= 0 {
			width = 1
		}
		sep := (entries[hiLow].rect.Min[d] - entries[loHigh].rect.Max[d]) / width
		if sep > bestSep && hiLow != loHigh {
			bestSep, si, sj = sep, hiLow, loHigh
		}
	}
	if si == sj {
		// All entries coincide; any two distinct indexes work.
		si, sj = 0, 1
	}
	sib := &node{leaf: n.leaf}
	groupA := []entry{entries[si]}
	groupB := []entry{entries[sj]}
	rectA := entries[si].rect.Clone()
	rectB := entries[sj].rect.Clone()
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != si && i != sj {
			rest = append(rest, e)
		}
	}
	for k, e := range rest {
		// If one group must take everything left to reach minEntries, do so.
		if len(groupA)+len(rest)-k == t.minEntries {
			for _, r := range rest[k:] {
				groupA = append(groupA, r)
				rectA.ExpandRectInPlace(r.rect)
			}
			break
		}
		if len(groupB)+len(rest)-k == t.minEntries {
			for _, r := range rest[k:] {
				groupB = append(groupB, r)
				rectB.ExpandRectInPlace(r.rect)
			}
			break
		}
		dA := rectA.Enlargement(e.rect)
		dB := rectB.Enlargement(e.rect)
		toA := dA < dB
		if dA == dB {
			if a, b := rectA.Area(), rectB.Area(); a != b {
				toA = a < b
			} else {
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, e)
			rectA.ExpandRectInPlace(e.rect)
		} else {
			groupB = append(groupB, e)
			rectB.ExpandRectInPlace(e.rect)
		}
	}
	n.entries = groupA
	sib.entries = groupB
	if !n.leaf {
		for i := range n.entries {
			n.entries[i].child.parent = n
		}
		for i := range sib.entries {
			sib.entries[i].child.parent = sib
		}
	}
	return sib
}

func mbrOf(entries []entry) geom.Rect {
	r := entries[0].rect.Clone()
	for _, e := range entries[1:] {
		r.ExpandRectInPlace(e.rect)
	}
	return r
}

// Search invokes fn for every entry whose rectangle intersects window,
// stopping early if fn returns false.
func (t *Tree) Search(window geom.Rect, fn func(ref int64) bool) {
	if t.size == 0 {
		return
	}
	t.search(t.root, window, fn)
}

func (t *Tree) search(n *node, window geom.Rect, fn func(ref int64) bool) bool {
	for i := range n.entries {
		if !n.entries[i].rect.Intersects(window) {
			continue
		}
		if n.leaf {
			if !fn(n.entries[i].ref) {
				return false
			}
		} else if !t.search(n.entries[i].child, window, fn) {
			return false
		}
	}
	return true
}

// checkInvariants validates structural invariants; it is exported to the
// package tests via export_test.go.
func (t *Tree) checkInvariants() error {
	return t.check(t.root, nil, true)
}
