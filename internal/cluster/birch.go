package cluster

import (
	"fmt"
	"math"

	"sgb/internal/geom"
)

// cf is a clustering feature: the (N, LS, SS) summary of a sub-cluster
// (Zhang, Ramakrishnan & Livny 1996).
type cf struct {
	n  int
	ls geom.Point // linear sum
	ss float64    // sum of squared norms
}

func newCF(dim int) *cf { return &cf{ls: make(geom.Point, dim)} }

func (c *cf) add(p geom.Point) {
	c.n++
	for i, v := range p {
		c.ls[i] += v
	}
	c.ss += sqNorm(p)
}

func (c *cf) merge(o *cf) {
	c.n += o.n
	for i, v := range o.ls {
		c.ls[i] += v
	}
	c.ss += o.ss
}

// centroid returns the CF centroid LS/N.
func (c *cf) centroid() geom.Point {
	out := make(geom.Point, len(c.ls))
	for i, v := range c.ls {
		out[i] = v / float64(c.n)
	}
	return out
}

// radiusWith returns the cluster radius after hypothetically absorbing p:
// sqrt(SS/N − ‖LS/N‖²) over the merged feature.
func (c *cf) radiusWith(p geom.Point) float64 {
	n := float64(c.n + 1)
	var lsSq float64
	for i, v := range c.ls {
		s := v + p[i]
		lsSq += s * s
	}
	ss := c.ss + sqNorm(p)
	v := ss/n - lsSq/(n*n)
	if v < 0 {
		v = 0 // numerical noise on tight clusters
	}
	return math.Sqrt(v)
}

func sqNorm(p geom.Point) float64 {
	var s float64
	for _, v := range p {
		s += v * v
	}
	return s
}

// cfNode is a CF-tree node.
type cfNode struct {
	leaf     bool
	features []*cf     // per-entry summaries
	children []*cfNode // internal nodes only, parallel to features
}

// BIRCHResult is the outcome of a BIRCH run.
type BIRCHResult struct {
	// Assignments maps each input point to a final cluster in [0, k).
	Assignments []int
	// Centroids holds the final cluster centres.
	Centroids []geom.Point
	// LeafEntries is the number of CF entries after phase 1 — the size of
	// the summary the global clustering phase operates on.
	LeafEntries int
	// DistanceComps counts centroid distance evaluations across every
	// phase: CF-tree descent and splits, the global k-means and the final
	// point assignment.
	DistanceComps int64
}

// BIRCH clusters points with a two-phase BIRCH: phase 1 builds a CF-tree
// with the given radius threshold and branching factor, phase 3 runs a
// weighted k-means over the leaf CF centroids, and points inherit the
// cluster of their nearest leaf entry. Like the original, it scans the data
// once to build the tree and once more to assign points — plus the k-means
// passes over the (much smaller) summary.
func BIRCH(points []geom.Point, threshold float64, branching, k int, seed int64) (*BIRCHResult, error) {
	if !(threshold > 0) {
		return nil, fmt.Errorf("cluster: threshold must be positive, got %v", threshold)
	}
	if branching < 2 {
		return nil, fmt.Errorf("cluster: branching factor must be >= 2, got %d", branching)
	}
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	res := &BIRCHResult{}
	if len(points) == 0 {
		return res, nil
	}
	dim := len(points[0])
	t := &cfTree{threshold: threshold, branching: branching, dim: dim,
		root: &cfNode{leaf: true}}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
		t.insert(p)
	}

	// Collect leaf entries.
	var leaves []*cf
	var walk func(n *cfNode)
	walk = func(n *cfNode) {
		if n.leaf {
			leaves = append(leaves, n.features...)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	res.LeafEntries = len(leaves)

	// Phase 3: weighted k-means over leaf centroids. Weights are applied by
	// replicating the centroid contribution in the update step.
	centroids := make([]geom.Point, len(leaves))
	weights := make([]float64, len(leaves))
	for i, c := range leaves {
		centroids[i] = c.centroid()
		weights[i] = float64(c.n)
	}
	labels, centres := weightedKMeans(centroids, weights, k, 50, seed, &t.comps)

	// Map original points to their nearest leaf entry's cluster.
	res.Assignments = make([]int, len(points))
	for i, p := range points {
		best, bestD := 0, math.Inf(1)
		for j := range centroids {
			if d := t.comps.sqDist(p, centroids[j]); d < bestD {
				best, bestD = j, d
			}
		}
		res.Assignments[i] = labels[best]
	}
	res.Centroids = centres
	res.DistanceComps = int64(t.comps)
	return res, nil
}

type cfTree struct {
	threshold float64
	branching int
	dim       int
	root      *cfNode
	comps     distCount
}

// insert descends to the closest leaf entry, absorbing p if the merged
// radius stays under the threshold and adding a new entry otherwise;
// overflowing nodes split on the farthest-pair seeds.
func (t *cfTree) insert(p geom.Point) {
	if split := t.insertAt(t.root, p); split != nil {
		old := t.root
		t.root = &cfNode{
			leaf:     false,
			features: []*cf{sumNode(old, t.dim), sumNode(split, t.dim)},
			children: []*cfNode{old, split},
		}
	}
}

// insertAt inserts p under n and returns a new sibling if n split.
func (t *cfTree) insertAt(n *cfNode, p geom.Point) *cfNode {
	if n.leaf {
		if len(n.features) > 0 {
			best, bestD := 0, math.Inf(1)
			for i, f := range n.features {
				if d := t.comps.sqDist(f.centroid(), p); d < bestD {
					best, bestD = i, d
				}
			}
			if n.features[best].radiusWith(p) <= t.threshold {
				n.features[best].add(p)
				return nil
			}
		}
		f := newCF(t.dim)
		f.add(p)
		n.features = append(n.features, f)
		if len(n.features) > t.branching {
			return t.split(n)
		}
		return nil
	}
	best, bestD := 0, math.Inf(1)
	for i, f := range n.features {
		if d := t.comps.sqDist(f.centroid(), p); d < bestD {
			best, bestD = i, d
		}
	}
	child := n.children[best]
	split := t.insertAt(child, p)
	n.features[best] = sumNode(child, t.dim)
	if split == nil {
		return nil
	}
	n.features = append(n.features, sumNode(split, t.dim))
	n.children = append(n.children, split)
	if len(n.children) > t.branching {
		return t.split(n)
	}
	return nil
}

// split divides n's entries between n and a new sibling using the two
// farthest centroids as seeds.
func (t *cfTree) split(n *cfNode) *cfNode {
	si, sj, worst := 0, 1, -1.0
	for i := range n.features {
		for j := i + 1; j < len(n.features); j++ {
			if d := t.comps.sqDist(n.features[i].centroid(), n.features[j].centroid()); d > worst {
				si, sj, worst = i, j, d
			}
		}
	}
	sib := &cfNode{leaf: n.leaf}
	keepF := n.features[:0:0]
	var keepC []*cfNode
	for i, f := range n.features {
		toSib := t.comps.sqDist(f.centroid(), n.features[sj].centroid()) <
			t.comps.sqDist(f.centroid(), n.features[si].centroid())
		if i == sj {
			toSib = true
		}
		if i == si {
			toSib = false
		}
		if toSib {
			sib.features = append(sib.features, f)
			if !n.leaf {
				sib.children = append(sib.children, n.children[i])
			}
		} else {
			keepF = append(keepF, f)
			if !n.leaf {
				keepC = append(keepC, n.children[i])
			}
		}
	}
	n.features = keepF
	n.children = keepC
	return sib
}

// sumNode summarizes a node as a single CF for its parent entry.
func sumNode(n *cfNode, dim int) *cf {
	out := newCF(dim)
	for _, f := range n.features {
		out.merge(f)
	}
	return out
}

// weightedKMeans is Lloyd's algorithm over weighted points.
func weightedKMeans(points []geom.Point, weights []float64, k, maxIter int, seed int64, comps *distCount) ([]int, []geom.Point) {
	if k > len(points) {
		k = len(points)
	}
	if k == 0 {
		return nil, nil
	}
	dim := len(points[0])
	// Deterministic spread seeding over the weighted points.
	r := newLCG(seed)
	centroids := make([]geom.Point, k)
	for i := range centroids {
		centroids[i] = points[int(r.next()%uint64(len(points)))].Clone()
	}
	labels := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := comps.sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([]geom.Point, k)
		totals := make([]float64, k)
		for c := range sums {
			sums[c] = make(geom.Point, dim)
		}
		for i, p := range points {
			c := labels[i]
			totals[c] += weights[i]
			for d := range p {
				sums[c][d] += p[d] * weights[i]
			}
		}
		for c := range centroids {
			if totals[c] == 0 {
				centroids[c] = points[int(r.next()%uint64(len(points)))].Clone()
				continue
			}
			for d := range sums[c] {
				sums[c][d] /= totals[c]
			}
			centroids[c] = sums[c]
		}
	}
	return labels, centroids
}

// lcg is a tiny deterministic generator so BIRCH does not share rand state
// with callers.
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 1
}
