// Package sgb is the public API of the similarity group-by library, a
// from-scratch Go reproduction of "Similarity Group-by Operators for
// Multi-dimensional Relational Data" (Tang et al.).
//
// Two entry points are provided:
//
//   - The operator API: GroupAll and GroupAny group multi-dimensional points
//     directly, with the paper's DISTANCE-TO-ALL and DISTANCE-TO-ANY
//     semantics, the Minkowski metrics (L2, LInf, plus L1 as an extension),
//     the three ON-OVERLAP arbitration clauses, and a choice of physical
//     algorithm (All-Pairs, Bounds-Checking, on-the-fly Index).
//
//   - The SQL API: NewDB opens an in-memory relational engine whose dialect
//     extends GROUP BY with the paper's similarity grammar, e.g.
//
//     SELECT count(*) FROM gpspoints
//     GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 3
//     ON-OVERLAP FORM-NEW-GROUP
//
// Streaming callers that cannot materialize their input ahead of time can
// use NewAllGrouper / NewAnyGrouper and feed points one at a time.
package sgb

import (
	"context"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
)

// Point is a point in d-dimensional space.
type Point = geom.Point

// Metric selects the Minkowski distance function of the similarity
// predicate.
type Metric = geom.Metric

// Supported metrics.
const (
	// L2 is the Euclidean distance.
	L2 = geom.L2
	// LInf is the maximum (Chebyshev) distance.
	LInf = geom.LInf
	// L1 is the Manhattan distance (an extension beyond the paper's
	// L2/L∞ pair).
	L1 = geom.L1
)

// Overlap is the SGB-All ON-OVERLAP arbitration clause.
type Overlap = core.Overlap

// Overlap clauses.
const (
	// JoinAny places an overlapping tuple into one arbitrary candidate
	// group.
	JoinAny = core.JoinAny
	// Eliminate discards overlapping tuples.
	Eliminate = core.Eliminate
	// FormNewGroup re-groups overlapping tuples into dedicated groups.
	FormNewGroup = core.FormNewGroup
)

// Algorithm selects the physical operator implementation.
type Algorithm = core.Algorithm

// Algorithm variants, in increasing order of sophistication.
const (
	// AllPairs is the quadratic baseline.
	AllPairs = core.AllPairs
	// BoundsChecking filters with per-group ε-All bounding rectangles.
	BoundsChecking = core.BoundsChecking
	// IndexBounds adds an on-the-fly index: an ε-grid of the group regions
	// (SGB-All) or of the processed points (SGB-Any) in low dimensionality;
	// above it SGB-All scans its groups and SGB-Any uses an R-tree.
	IndexBounds = core.IndexBounds
)

// Options configures a grouping operation.
type Options = core.Options

// Group is one output group (member indexes into the input).
type Group = core.Group

// Result is a grouping outcome: groups, eliminated tuples, and cost
// counters.
type Result = core.Result

// Stats holds the operator cost counters (distance computations, rectangle
// tests, window queries, ...).
type Stats = core.Stats

// AllGrouper is the streaming SGB-All operator.
type AllGrouper = core.AllGrouper

// AnyGrouper is the streaming SGB-Any operator.
type AnyGrouper = core.AnyGrouper

// GroupAll groups points with the DISTANCE-TO-ALL (clique) semantics: every
// pair of points in an output group is within Options.Eps under
// Options.Metric. Points are consumed in slice order; tuples matching
// several groups are arbitrated by Options.Overlap.
func GroupAll(points []Point, opt Options) (*Result, error) {
	return core.SGBAll(points, opt)
}

// GroupAny groups points with the DISTANCE-TO-ANY (connectivity) semantics:
// the output groups are the connected components of the ε-neighbourhood
// graph. Options.Overlap is ignored — overlapping groups merge.
func GroupAny(points []Point, opt Options) (*Result, error) {
	return core.SGBAny(points, opt)
}

// NewAllGrouper returns a streaming SGB-All operator.
func NewAllGrouper(opt Options) (*AllGrouper, error) { return core.NewAllGrouper(opt) }

// NewAnyGrouper returns a streaming SGB-Any operator.
func NewAnyGrouper(opt Options) (*AnyGrouper, error) { return core.NewAnyGrouper(opt) }

// DB is an in-memory relational database with similarity group-by support.
type DB = engine.DB

// QueryResult is a materialized SQL statement result.
type QueryResult = engine.Result

// Value is one SQL value.
type Value = engine.Value

// Row is one SQL tuple.
type Row = engine.Row

// NewDB opens an empty in-memory database. Create tables and load data with
// DB.Exec (CREATE TABLE / INSERT) or programmatically through DB.Catalog,
// then query with the similarity-extended SQL dialect.
func NewDB() *DB { return engine.NewDB() }

// GroupAnyParallel is GroupAnyParallelCtx without a context.
//
// Deprecated: use GroupAny with Options.Algorithm set to IndexBounds.
func GroupAnyParallel(points []Point, opt Options, workers int) (*Result, error) {
	return GroupAnyParallelCtx(context.Background(), points, opt, workers)
}

// GroupAnyParallelCtx returns GroupAny's result under IndexBounds, whatever
// workers and Options.Algorithm say (there is no parallel grouper). A done
// ctx yields ctx.Err() instead of a partial result; it is checked before the
// first point and after the last, whatever the poll stride in between.
//
// Deprecated: use NewAnyGrouper(opt).WithContext(ctx).
func GroupAnyParallelCtx(ctx context.Context, points []Point, opt Options, _ int) (*Result, error) {
	opt.Algorithm = IndexBounds
	g, err := NewAnyGrouper(opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.WithContext(ctx)
	for _, p := range points {
		if _, err := g.Add(p); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return g.Finish()
}

// Limits bounds the resources a single SQL statement may consume; install
// with SetLimits on a DB (its default session) or on a Session. A query that
// exceeds a limit fails with a typed *ResourceLimitError.
type Limits = engine.Limits

// ResourceLimitError is the typed error a statement fails with when it
// exceeds a configured per-query limit.
type ResourceLimitError = engine.ResourceLimitError

// GroupSummary describes one output group geometrically (size, centroid,
// bounding rectangle, 2-D hull, diameter).
type GroupSummary = core.GroupSummary

// Summarize computes per-group geometric summaries for a grouping result.
func Summarize(points []Point, res *Result, m Metric) ([]GroupSummary, error) {
	return core.Summarize(points, res, m)
}
