package core

import (
	"context"

	"sgb/internal/geom"
)

// The SGBAnyParallel family is kept for its callers (the public
// sgb.GroupAnyParallel*, the engine's parallel SGB plans, the benchmark) but
// no longer runs a second algorithm: each entry point is the serial ε-grid
// grouper under a context. The former grid-partition worker pool measured
// 0.7–0.8× of the serial R-tree path on one or two cores, which the serial
// grid beats by another order of magnitude; a cell-range parallel grouping
// waits for a multi-core workload that can show a win (ROADMAP 7c). workers
// and Options.Algorithm are ignored, and the result — groups and Stats — is
// exactly SGBAny's under IndexBounds.

// SGBAnyParallel computes the DISTANCE-TO-ANY grouping of points.
func SGBAnyParallel(points []geom.Point, opt Options, workers int) (*Result, error) {
	return SGBAnyParallelCtx(context.Background(), points, opt, workers)
}

// SGBAnyParallelCtx is SGBAnyParallel with a cancellation context: once ctx
// is done the call returns ctx.Err() instead of a partial result.
func SGBAnyParallelCtx(ctx context.Context, points []geom.Point, opt Options, _ int) (*Result, error) {
	return sgbAnyCtx(ctx, opt, func(g *AnyGrouper) error {
		for _, p := range points {
			if _, err := g.Add(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// SGBAnyParallelCols is SGBAnyParallel over a columnar point set.
func SGBAnyParallelCols(pts geom.Cols, opt Options, workers int) (*Result, error) {
	return SGBAnyParallelColsCtx(context.Background(), pts, opt, workers)
}

// SGBAnyParallelColsCtx is SGBAnyParallelCols with a cancellation context.
func SGBAnyParallelColsCtx(ctx context.Context, pts geom.Cols, opt Options, _ int) (*Result, error) {
	return sgbAnyCtx(ctx, opt, func(g *AnyGrouper) error { return g.AddCols(pts) })
}

// sgbAnyCtx runs feed on a fresh IndexBounds grouper armed with ctx. An
// already-canceled context is honoured before the first point and after the
// last, whatever the poll stride inside Add.
func sgbAnyCtx(ctx context.Context, opt Options, feed func(*AnyGrouper) error) (*Result, error) {
	opt.Algorithm = IndexBounds
	g, err := NewAnyGrouper(opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := feed(g.WithContext(ctx)); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return g.Finish()
}
