package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sgb/internal/geom"
)

// pointCloud is a quick.Generator input: a compact encoding of a random
// point set plus operator parameters, so testing/quick can drive the
// operators with structured inputs.
type pointCloud struct {
	Coords []float64
	Dim    uint8
	Eps    float64
	Metric uint8
	Seed   int64
}

// materialize turns the raw generated values into a valid operator input.
func (c pointCloud) materialize() ([]geom.Point, geom.Metric, float64) {
	dim := int(c.Dim)%3 + 1
	eps := 0.2 + mod1(c.Eps)*1.5
	metric := []geom.Metric{geom.L2, geom.LInf}[int(c.Metric)%2]
	// Clamp the cloud size and spread.
	coords := c.Coords
	if len(coords) > 600 {
		coords = coords[:600]
	}
	var pts []geom.Point
	for i := 0; i+dim <= len(coords); i += dim {
		p := make(geom.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = mod1(coords[i+d]) * 8
		}
		pts = append(pts, p)
	}
	return pts, metric, eps
}

// mod1 maps any float (including NaN/Inf) into [0,1).
func mod1(f float64) float64 {
	if f != f || f > 1e18 || f < -1e18 { // NaN or huge
		return 0.5
	}
	if f < 0 {
		f = -f
	}
	for f >= 1 {
		f /= 2
	}
	return f
}

// TestQuickAllInvariants drives SGB-All with quick-generated clouds and
// checks, for every algorithm and overlap clause, that the output is a
// partition of the input into ε-cliques and that all three algorithms agree.
func TestQuickAllInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(80))}
	property := func(c pointCloud) bool {
		pts, metric, eps := c.materialize()
		for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
			var base *Result
			for _, alg := range []Algorithm{AllPairs, BoundsChecking, IndexBounds} {
				res, err := SGBAll(pts, Options{Metric: metric, Eps: eps, Overlap: ov, Algorithm: alg})
				if err != nil {
					t.Logf("SGBAll error: %v", err)
					return false
				}
				// Clique invariant.
				for _, g := range res.Groups {
					for i := 0; i < len(g.IDs); i++ {
						for j := i + 1; j < len(g.IDs); j++ {
							if !geom.Within(metric, pts[g.IDs[i]], pts[g.IDs[j]], eps) {
								t.Logf("%v/%v: non-clique group", ov, alg)
								return false
							}
						}
					}
				}
				// Partition invariant.
				seen := make([]bool, len(pts))
				count := 0
				for _, g := range res.Groups {
					for _, id := range g.IDs {
						if seen[id] {
							t.Logf("%v/%v: duplicate id", ov, alg)
							return false
						}
						seen[id] = true
						count++
					}
				}
				for _, id := range res.Dropped {
					if seen[id] {
						t.Logf("%v/%v: dropped id also grouped", ov, alg)
						return false
					}
					seen[id] = true
					count++
				}
				if count != len(pts) {
					t.Logf("%v/%v: result covers %d of %d points", ov, alg, count, len(pts))
					return false
				}
				if ov != Eliminate && len(res.Dropped) != 0 {
					t.Logf("%v/%v: non-ELIMINATE run dropped points", ov, alg)
					return false
				}
				if base == nil {
					base = res
				} else if !reflect.DeepEqual(base.Groups, res.Groups) || !reflect.DeepEqual(base.Dropped, res.Dropped) {
					t.Logf("%v: %v disagrees with All-Pairs", ov, alg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAnyMatchesComponents drives SGB-Any with quick-generated clouds
// and checks the connected-components semantics for both algorithms.
func TestQuickAnyMatchesComponents(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(81))}
	property := func(c pointCloud) bool {
		pts, metric, eps := c.materialize()
		want := referenceComponents(pts, metric, eps)
		for _, alg := range []Algorithm{AllPairs, IndexBounds} {
			res, err := SGBAny(pts, Options{Metric: metric, Eps: eps, Algorithm: alg})
			if err != nil {
				t.Logf("SGBAny error: %v", err)
				return false
			}
			if !reflect.DeepEqual(res.Groups, want) {
				t.Logf("%v: component mismatch", alg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAnyCoarserThanAll: every SGB-All JOIN-ANY group is contained in
// exactly one SGB-Any group (cliques are sub-structures of connected
// components; clique membership requires ε-adjacency to all members, so all
// members are in one component).
func TestQuickAnyCoarserThanAll(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(82))}
	property := func(c pointCloud) bool {
		pts, metric, eps := c.materialize()
		if len(pts) == 0 {
			return true
		}
		all, err := SGBAll(pts, Options{Metric: metric, Eps: eps, Overlap: JoinAny, Algorithm: IndexBounds})
		if err != nil {
			return false
		}
		anyRes, err := SGBAny(pts, Options{Metric: metric, Eps: eps, Algorithm: IndexBounds})
		if err != nil {
			return false
		}
		comp := make([]int, len(pts))
		for ci, g := range anyRes.Groups {
			for _, id := range g.IDs {
				comp[id] = ci
			}
		}
		for _, g := range all.Groups {
			if len(g.IDs) < 2 {
				continue
			}
			c0 := comp[g.IDs[0]]
			for _, id := range g.IDs[1:] {
				if comp[id] != c0 {
					t.Logf("clique split across SGB-Any components")
					return false
				}
			}
		}
		// Group counts: SGB-Any can never have more groups than SGB-All.
		if len(anyRes.Groups) > len(all.Groups) {
			t.Logf("SGB-Any produced more groups (%d) than SGB-All (%d)",
				len(anyRes.Groups), len(all.Groups))
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickStatsConsistency: instrumentation counters are internally
// consistent — points processed equals the input size, rounds is at least 1,
// and the index variant issues one window query per processed point and
// round.
func TestQuickStatsConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(83))}
	property := func(c pointCloud) bool {
		pts, metric, eps := c.materialize()
		res, err := SGBAll(pts, Options{Metric: metric, Eps: eps, Overlap: FormNewGroup, Algorithm: IndexBounds})
		if err != nil {
			return false
		}
		if res.Stats.Points != len(pts) {
			return false
		}
		if res.Stats.Rounds < 1 {
			return false
		}
		// Each processed point issues exactly one window query, and
		// deferred points are re-processed in later rounds.
		if res.Stats.WindowQueries < int64(len(pts)) && len(pts) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickEliminateSubset: under ELIMINATE the surviving groups are exactly
// the JOIN-ANY groups one would get after removing the dropped points and
// re-running? That stronger claim is false in general (removal changes the
// stream), but a weaker invariant must hold: re-running ELIMINATE on the
// surviving points drops nothing new when fed in the original relative
// order... which is also not guaranteed by the streaming semantics. What is
// guaranteed — and checked here — is determinism: the same input always
// yields the same result.
func TestQuickDeterminism(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(84))}
	property := func(c pointCloud) bool {
		pts, metric, eps := c.materialize()
		for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
			a, err := SGBAll(pts, Options{Metric: metric, Eps: eps, Overlap: ov, Algorithm: IndexBounds})
			if err != nil {
				return false
			}
			b, err := SGBAll(pts, Options{Metric: metric, Eps: eps, Overlap: ov, Algorithm: IndexBounds})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
