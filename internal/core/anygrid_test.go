package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sgb/internal/geom"
	"sgb/internal/grid"
)

// hotspotPoints is internal/checkin's mixture in dim dimensions: 40 Gaussian
// hotspots with Zipf (1/k) weights and σ = 0.05 over a box of side 50, plus
// 5 % uniform background. (core cannot import checkin: checkin → engine →
// core.)
func hotspotPoints(r *rand.Rand, n, dim int) []geom.Point {
	const hotspots, spread, background, box = 40, 0.05, 0.05, 50.0
	centres := randomPoints(r, hotspots, dim, box)
	cum := make([]float64, hotspots)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		if r.Float64() < background {
			for d := range p {
				p[d] = r.Float64() * box
			}
		} else {
			target := r.Float64() * total
			k := 0
			for cum[k] < target {
				k++
			}
			for d := range p {
				p[d] = centres[k][d] + r.NormFloat64()*spread
			}
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkAnyIndexSweep is the measurement behind gridBlockCap: the same
// stream through the ε-grid and through the R-tree of points, for every metric
// and dimensionality 1–6, on check-in-style hotspots (few, dense cells — the
// grid's best case) and on sparse uniform data with about three points per
// ε-cube (as many cells as points — its worst).
//
//	go test -run '^$' -bench AnyIndexSweep -benchtime 2x ./internal/core/
func BenchmarkAnyIndexSweep(b *testing.B) {
	const eps, uniformN = 0.25, 20000
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		for dim := 1; dim <= 6; dim++ {
			box := 2 * eps * math.Pow(uniformN/3, 1/float64(dim))
			for _, data := range []struct {
				name string
				pts  []geom.Point
			}{
				{"hotspot", hotspotPoints(rand.New(rand.NewSource(1)), 5000, dim)},
				{"uniform", randomPoints(rand.New(rand.NewSource(1)), uniformN, dim, box)},
			} {
				for _, ix := range []struct {
					name string
					cap  float64
				}{{"grid", math.Inf(1)}, {"rtree", 0}} {
					name := fmt.Sprintf("%v/d%d/block%.0f/%s/%s", m, dim, grid.BlockCells(m, dim), data.name, ix.name)
					b.Run(name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							g, err := newAnyGrouper(Options{Metric: m, Eps: eps, Algorithm: IndexBounds}, ix.cap)
							if err != nil {
								b.Fatal(err)
							}
							for _, p := range data.pts {
								if _, err := g.Add(p); err != nil {
									b.Fatal(err)
								}
							}
						}
					})
				}
			}
		}
	}
}
