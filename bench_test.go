package sgb

// This file holds the Table 1 benchmarks: every SGB-All algorithm × ON-OVERLAP
// clause over one sweepPoints input. Run them with:
//
//	go test -bench=Table1 -benchmem -run '^$' .
//
// The paper's orderings themselves are asserted in counted work, not time, by
// TestPaperShapes.

import (
	"math"
	"math/rand"
	"testing"

	"sgb/internal/core"
	"sgb/internal/geom"
)

const (
	benchEps    = 0.2
	benchSeed   = 1
	benchPoints = 5000 // per-iteration input size for operator benchmarks
)

var benchPts = sweepPoints(benchPoints, benchSeed)

// sweepPoints generates the 2-D workload for the ε sweeps and the
// complexity ladder. Grouping attributes in the paper's workload (account
// balances, aggregated totals) repeat heavily, so points concentrate on
// tight sites of ~50 near-duplicates each, scattered over a domain that
// grows with sqrt(n) (constant site density). At ε=0.1 each site is its own
// clique; larger ε progressively merges nearby sites, so the group count —
// and with it the All-Pairs and Bounds-Checking runtimes — falls as ε grows,
// the regime of the paper's Figure 9.
func sweepPoints(n int, seed int64) []geom.Point {
	span := math.Sqrt(float64(n)) / 6
	if span < 1 {
		span = 1
	}
	sites := n / 50
	if sites < 1 {
		sites = 1
	}
	r := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, sites)
	for i := range centers {
		centers[i] = geom.Point{r.Float64() * span, r.Float64() * span}
	}
	// Site radius 0.03 keeps every site an L2 clique at the smallest swept
	// ε (0.1): the in-site diameter is at most ~0.085.
	const jitter = 0.03
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[r.Intn(sites)]
		pts[i] = geom.Point{
			c[0] + (r.Float64()*2-1)*jitter,
			c[1] + (r.Float64()*2-1)*jitter,
		}
	}
	return pts
}

func benchSGBAll(b *testing.B, alg core.Algorithm, ov core.Overlap) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.SGBAll(benchPts, core.Options{
			Metric: geom.L2, Eps: benchEps, Overlap: ov, Algorithm: alg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_AllPairs_JoinAny(b *testing.B)   { benchSGBAll(b, core.AllPairs, core.JoinAny) }
func BenchmarkTable1_AllPairs_Eliminate(b *testing.B) { benchSGBAll(b, core.AllPairs, core.Eliminate) }
func BenchmarkTable1_AllPairs_FormNew(b *testing.B)   { benchSGBAll(b, core.AllPairs, core.FormNewGroup) }
func BenchmarkTable1_Bounds_JoinAny(b *testing.B)     { benchSGBAll(b, core.BoundsChecking, core.JoinAny) }
func BenchmarkTable1_Bounds_Eliminate(b *testing.B) {
	benchSGBAll(b, core.BoundsChecking, core.Eliminate)
}
func BenchmarkTable1_Bounds_FormNew(b *testing.B) {
	benchSGBAll(b, core.BoundsChecking, core.FormNewGroup)
}
func BenchmarkTable1_Index_JoinAny(b *testing.B)   { benchSGBAll(b, core.IndexBounds, core.JoinAny) }
func BenchmarkTable1_Index_Eliminate(b *testing.B) { benchSGBAll(b, core.IndexBounds, core.Eliminate) }
func BenchmarkTable1_Index_FormNew(b *testing.B)   { benchSGBAll(b, core.IndexBounds, core.FormNewGroup) }
