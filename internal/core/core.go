// Package core implements the paper's primary contribution: the SGB-All and
// SGB-Any similarity group-by operators over multi-dimensional data.
//
// SGB-All (DISTANCE-TO-ALL) forms maximal groups in which every pair of
// members satisfies the similarity predicate ξ(δ,ε) — each group is a clique
// in the ε-neighbourhood graph. Tuples qualifying for several groups are
// arbitrated by the ON-OVERLAP clause (JOIN-ANY, ELIMINATE, FORM-NEW-GROUP).
//
// SGB-Any (DISTANCE-TO-ANY) forms groups in which every member is within ε of
// at least one other member — the connected components of the ε-neighbourhood
// graph. Overlaps merge groups, so no arbitration clause exists.
//
// Both operators are streaming: tuples are consumed in input order and groups
// are built on the fly, exactly like the executor extension in the paper
// (grouping is therefore insertion-order sensitive, cf. Figure 2). Three
// algorithm variants are provided for SGB-All — All-Pairs (Procedure 2),
// Bounds-Checking with the ε-All rectangle (Procedure 4), and on-the-fly
// Index Bounds-Checking (Procedure 5), whose index of group regions is an
// ε-grid (internal/grid) — and two for SGB-Any — All-Pairs and the
// point-index + Union-Find method (Procedures 7–9), whose on-the-fly index of
// points is an ε-grid too. Both grids serve while a point's ε-block of cells
// stays small; above that (high dimensionality) SGB-All's index scans the
// group list as Bounds-Checking does, and SGB-Any's is the paper's R-tree.
package core

import (
	"errors"
	"fmt"
	"math"

	"sgb/internal/geom"
)

// Overlap is the ON-OVERLAP arbitration clause of SGB-All: the action taken
// when a data point satisfies the membership criterion of multiple groups.
type Overlap uint8

const (
	// JoinAny inserts the overlapping point into one candidate group: the
	// lowest-numbered, so runs are deterministic.
	JoinAny Overlap = iota
	// Eliminate discards overlapping points (the Oset of Definition 4).
	Eliminate
	// FormNewGroup diverts overlapping points into a fresh set S′ that is
	// re-grouped recursively once the input is exhausted.
	FormNewGroup
)

// String returns the SQL spelling of the clause.
func (o Overlap) String() string {
	switch o {
	case JoinAny:
		return "JOIN-ANY"
	case Eliminate:
		return "ELIMINATE"
	case FormNewGroup:
		return "FORM-NEW-GROUP"
	default:
		return fmt.Sprintf("Overlap(%d)", uint8(o))
	}
}

// Algorithm selects the physical implementation of an operator.
type Algorithm uint8

const (
	// AllPairs is the naive baseline: every incoming point is compared
	// against every previously processed point (Procedure 2).
	AllPairs Algorithm = iota
	// BoundsChecking maintains an ε-All bounding rectangle per group and
	// scans the group list linearly (Procedure 4). SGB-Any has no
	// rectangle formulation (§7.1), so BoundsChecking is SGB-All only.
	BoundsChecking
	// IndexBounds additionally keeps an on-the-fly index up to the block
	// cap: an ε-grid of the group regions for SGB-All (Procedure 5, see
	// AllGrouper), and for SGB-Any an index of the processed points
	// (Procedure 8) — an ε-grid up to the cap, an R-tree above it (see
	// AnyGrouper).
	IndexBounds
)

// String names the algorithm the way the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case AllPairs:
		return "All-Pairs"
	case BoundsChecking:
		return "Bounds-Checking"
	case IndexBounds:
		return "on-the-fly Index"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Options configures an SGB operator instance.
type Options struct {
	// Metric is the Minkowski distance function δ (geom.L2 or geom.LInf).
	Metric geom.Metric
	// Eps is the similarity threshold ε of the predicate ξ(δ,ε). It must be
	// positive and finite.
	Eps float64
	// Overlap is the ON-OVERLAP clause; it only applies to SGB-All.
	Overlap Overlap
	// Algorithm selects the implementation variant. SGB-Any accepts
	// AllPairs and IndexBounds.
	Algorithm Algorithm
	// disableHullRefine turns off the convex-hull refinement of the L2
	// bounds-checking filter (Procedure 6) and falls back to exact member
	// scans, the reference the package's tests check the hull against.
	disableHullRefine bool
}

// Validate reports whether the options are internally consistent.
func (o Options) Validate() error {
	if !(o.Eps > 0) {
		return fmt.Errorf("core: similarity threshold must be positive, got %v", o.Eps)
	}
	switch o.Metric {
	case geom.L2, geom.LInf:
	default:
		return fmt.Errorf("core: unknown metric %v", o.Metric)
	}
	switch o.Algorithm {
	case AllPairs, BoundsChecking, IndexBounds:
	default:
		return fmt.Errorf("core: unknown algorithm %v", o.Algorithm)
	}
	switch o.Overlap {
	case JoinAny, Eliminate, FormNewGroup:
	default:
		return fmt.Errorf("core: unknown overlap clause %v", o.Overlap)
	}
	return nil
}

// ErrDimensionMismatch is returned when points of different dimensionality
// are fed to one operator instance.
var ErrDimensionMismatch = errors.New("core: point dimension mismatch")

// ErrNonFiniteCoordinate is returned when a point contains NaN or ±Inf. Such
// coordinates would silently corrupt ε-rectangles and distance predicates
// (NaN compares false against everything), so the operators reject them at
// the door instead of producing wrong groups.
var ErrNonFiniteCoordinate = errors.New("core: non-finite coordinate")

// checkFinite rejects NaN/±Inf coordinates with ErrNonFiniteCoordinate.
func checkFinite(p geom.Point) error {
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("coordinate %d is %v: %w", i+1, v, ErrNonFiniteCoordinate)
		}
	}
	return nil
}

// hint is the storage a grouper's Reserve announced: points and groups in
// all.
type hint struct{ points, groups int }

// reserve returns s with room for n elements in all. It allocates exactly
// that, unlike slices.Grow, which under the race detector also allocates
// the zeroed tail it appends.
func reserve[T any](s []T, n int) []T {
	if n > cap(s) {
		return append(make([]T, 0, n), s...)
	}
	return s
}

// Group is one output group, identified by the indexes of its member points
// in input order.
type Group struct {
	// IDs lists the member point indexes, ascending.
	IDs []int
}

// Len reports the group size.
func (g Group) Len() int { return len(g.IDs) }

// Result is the outcome of a grouping run.
type Result struct {
	// Groups holds the output groups, ordered by their smallest member id.
	Groups []Group
	// Dropped lists the point indexes discarded by ON-OVERLAP ELIMINATE,
	// ascending. It is empty for other clauses and for SGB-Any.
	Dropped []int
	// Stats aggregates instrumentation counters for the run.
	Stats Stats
}

// Sizes returns the group cardinalities in output order — the answer shape
// used by the paper's COUNT(*) examples.
func (r *Result) Sizes() []int {
	out := make([]int, len(r.Groups))
	for i, g := range r.Groups {
		out[i] = len(g.IDs)
	}
	return out
}

// Stats collects the cost counters the paper's analysis section reasons
// about. They are measured, not sampled, and are deterministic for a given
// input and option set.
type Stats struct {
	// Points is the number of input points processed.
	Points int
	// DistanceComps counts similarity-predicate evaluations δ(p,q) ≤ ε: one
	// per geom.Within call, and one per convex-hull farthest-vertex bound.
	// Pairs joined without evaluating it — two points of one certified
	// ε-grid cell — count nothing.
	DistanceComps int64
	// RectTests counts ε-All rectangle containment/overlap tests.
	RectTests int64
	// HullTests counts convex-hull refinement probes (L2 only).
	HullTests int64
	// WindowQueries counts window queries issued to the on-the-fly index:
	// one per probed point, whether the index is an ε-grid or SGB-Any's
	// R-tree.
	WindowQueries int64
	// IndexUpdates counts insertions into the on-the-fly index: one per
	// point of SGB-Any, one per SGB-All group founded or rebuilt.
	IndexUpdates int64
	// Rounds is 1 plus the FORM-NEW-GROUP recursion depth (the number of
	// grouping passes over ever-smaller S′ sets).
	Rounds int
	// GroupsMerged counts SGB-Any group merges performed by Union-Find.
	GroupsMerged int64
}
