package rtree

import (
	"fmt"

	"sgb/internal/geom"
)

// check recursively validates node invariants: parent links, fan-out bounds,
// covering rectangles, and uniform leaf depth.
func (t *Tree) check(n *node, parent *node, isRoot bool) error {
	if n.parent != parent {
		return fmt.Errorf("rtree: broken parent link")
	}
	if !isRoot && len(n.entries) < t.minEntries {
		return fmt.Errorf("rtree: node underflow (%d < %d)", len(n.entries), t.minEntries)
	}
	if len(n.entries) > t.maxEntries {
		return fmt.Errorf("rtree: node overflow (%d > %d)", len(n.entries), t.maxEntries)
	}
	if isRoot && !n.leaf && len(n.entries) < 2 {
		return fmt.Errorf("rtree: non-leaf root with %d entries", len(n.entries))
	}
	if n.leaf {
		return nil
	}
	depth := -1
	for i := range n.entries {
		e := n.entries[i]
		if e.child == nil {
			return fmt.Errorf("rtree: internal entry without child")
		}
		if got := mbrOf(e.child.entries); !containsRect(e.rect, got) {
			return fmt.Errorf("rtree: covering rect %v does not contain child mbr %v", e.rect, got)
		}
		d := t.height(e.child)
		if depth == -1 {
			depth = d
		} else if d != depth {
			return fmt.Errorf("rtree: unbalanced children (%d vs %d)", d, depth)
		}
		if err := t.check(e.child, n, false); err != nil {
			return err
		}
	}
	return nil
}

// height returns the height of the subtree rooted at n (0 for leaves).
func (t *Tree) height(n *node) int {
	h := 0
	for !n.leaf {
		n = n.entries[0].child
		h++
	}
	return h
}

func containsRect(outer, inner geom.Rect) bool {
	return outer.ContainsRect(inner)
}
