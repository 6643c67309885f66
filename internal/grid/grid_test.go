package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sgb/internal/geom"
)

var metrics = []geom.Metric{geom.L2, geom.LInf}

func TestBlockCells(t *testing.T) {
	want := map[geom.Metric][]float64{ // dims 1..4
		geom.L2:   {3, 16, 125, 625},
		geom.LInf: {3, 9, 27, 81},
	}
	for m, ws := range want {
		for i, w := range ws {
			if got := BlockCells(m, i+1); got != w {
				t.Errorf("BlockCells(%v, %d) = %v, want %v", m, i+1, got, w)
			}
		}
	}
}

// wallPoints draws coordinates on and a few ulps around cell walls of every
// metric's grid, in cells straddling the origin, mixed with far-away and
// out-of-range ones.
func wallPoints(r *rand.Rand, n, dim int, eps float64) []geom.Point {
	sides := []float64{eps, eps / math.Sqrt(float64(dim))}
	far := []float64{0, 0, 0, 0, 1e15, -1e18, 1e300, -math.MaxFloat64}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			v := float64(r.Intn(9)-4) * sides[r.Intn(len(sides))]
			switch r.Intn(4) {
			case 0:
				v = math.Nextafter(v, math.Inf(1))
			case 1:
				v = math.Nextafter(v, math.Inf(-1))
			case 2:
				v += (r.Float64() - 0.5) * eps
			}
			p[d] = v + far[r.Intn(len(far))]
		}
		pts[i] = p
	}
	return pts
}

// TestBlockHoldsEveryNeighbour is the grid's completeness contract: each
// point is inserted, then probed, and whenever the predicate accepts (p, q)
// for an earlier q, q's cell is in Block(p). Block must return exactly the
// cells of p's ε′-block that the full window enumeration finds, in its order,
// through the home cell's list or through the fallback, which the
// wall-hugging points reach; both paths must run. A cell counts as a clique
// only if every pair of its members passes the predicate.
func TestBlockHoldsEveryNeighbour(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fallbacks, listed := 0, 0
	for _, m := range metrics {
		for dim := 1; dim <= 4; dim++ {
			for _, eps := range []float64{0.25, 1, 3.7} {
				pts := wallPoints(r, 250, dim, eps)
				ix := New(m, eps, dim)
				cellOf := make([]int, len(pts))
				for i, p := range pts {
					cellOf[i] = ix.Insert(p, i)
					block := slices.Clone(ix.Block(p, cellOf[i]))
					ix.setWindow(p)
					if want := ix.existing(nil, 1); !slices.Equal(block, want) {
						t.Fatalf("%v/dim%d/eps%g: Block(%v) = %v, the window enumeration finds %v", m, dim, eps, p, block, want)
					}
					for j := 0; j < i; j++ {
						if geom.Within(m, p, pts[j], eps) && !slices.Contains(block, cellOf[j]) {
							t.Fatalf("%v/dim%d/eps%g: %v is within ε of %v, whose cell %d is not in its block %v",
								m, dim, eps, pts[j], p, cellOf[j], block)
						}
					}
				}
				fallbacks += ix.Fallbacks()
				for _, l := range ix.nbrs {
					listed += min(len(l), 1)
				}
				for c := 0; c < ix.Len(); c++ {
					cell := ix.Cell(c)
					if !cell.Clique() {
						continue
					}
					for a := cell.First(); a >= 0; a = ix.Next(a) {
						for b := cell.First(); b >= 0; b = ix.Next(b) {
							if !geom.Within(m, pts[a], pts[b], eps) {
								t.Fatalf("%v/dim%d/eps%g: certified cell holds %v and %v, which are not within ε", m, dim, eps, pts[a], pts[b])
							}
						}
					}
				}
			}
		}
	}
	if fallbacks == 0 || listed == 0 {
		t.Fatalf("%d probes fell back, %d cells got a list: both paths must be tested", fallbacks, listed)
	}
}

// TestCellsFloorAcrossTheOrigin: −0.5 and +0.5 lie in cells −1 and 0. A
// coord that truncated toward zero would put both in cell 0, twice as wide as
// the side the clique certificate assumes.
func TestCellsFloorAcrossTheOrigin(t *testing.T) {
	ix := New(geom.LInf, 1, 1)
	ix.Insert(geom.Point{-0.5}, 0)
	ix.Insert(geom.Point{0.5}, 1)
	if ix.Len() != 2 {
		t.Fatalf("-0.5 and 0.5 share a cell: Len() = %d, want 2", ix.Len())
	}
}

// TestOutOfRangeCoordinatesShareACell: coordinates past ±maxCoord cells clamp
// into the outermost cell, which loses its certificate instead of being
// trusted, and probing there stays bounded by the number of cells. A side
// that underflows to zero clamps every cell index, and 0/0 lands in the
// maxCoord cell while 0±ε′ reach both extremes: that probe cannot use its
// home cell's list and enumerates the cells instead.
func TestOutOfRangeCoordinatesShareACell(t *testing.T) {
	ix := New(geom.L2, 1e-3, 2)
	a := ix.Insert(geom.Point{1e300, -1e300}, 0)
	okA := ix.Cell(a).Clique()
	b := ix.Insert(geom.Point{math.MaxFloat64, -math.MaxFloat64}, 1)
	if a != b || !okA || ix.Cell(b).Clique() {
		t.Fatalf("cells %d (clique %v) and %d (clique %v); want one shared cell that fails its certificate on the second point", a, okA, b, ix.Cell(b).Clique())
	}
	if c := ix.Insert(geom.Point{0, 0}, 2); c == a {
		t.Fatal("the origin landed in the outermost cell")
	}
	if got := ix.Block(geom.Point{math.MaxFloat64, -math.MaxFloat64}, b); !slices.Equal(got, []int{a}) {
		t.Fatalf("Block at the clamp = %v, want [%d]", got, a)
	}

	ix = New(geom.L2, 5e-324, 4) // side ε/2 rounds to 0 (ties to even)
	far := ix.Insert(geom.Point{-1, -1, -1, -1}, 0)
	origin := ix.Insert(geom.Point{0, 0, 0, 0}, 1)
	if got := ix.Block(geom.Point{0, 0, 0, 0}, origin); !slices.Equal(got, []int{far, origin}) {
		t.Fatalf("Block at the origin of a zero-side grid = %v, want [%d %d]", got, far, origin)
	}
	if ix.Fallbacks() != 1 {
		t.Fatalf("Fallbacks() = %d, want 1: the origin's block spans every cell", ix.Fallbacks())
	}
}

// TestRegionsListEveryGroup is the region grid's completeness contract, on
// the same wall-hugging coordinates: greedy ε-cliques are registered under
// their MBRs (again after every join, as a shrunken region), then for every
// probe Own lists, ascending, each group whose rectangle test admits the
// probe, and Block lists, once each, every group with a member within ε.
func TestRegionsListEveryGroup(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range metrics {
		for dim := 1; dim <= 3; dim++ {
			for _, eps := range []float64{0.25, 1, 3.7} {
				pts := wallPoints(r, 200, dim, eps)
				var groups [][]geom.Point
				var rects []geom.EpsRect
				reg := NewRegions(eps, dim)
				for _, p := range pts {
					g := 0
					for ; g < len(groups); g++ {
						all := true
						for _, q := range groups[g] {
							all = all && geom.Within(m, p, q, eps)
						}
						if all {
							break
						}
					}
					if g == len(groups) {
						groups = append(groups, nil)
						rects = append(rects, geom.MakeEpsRect(make([]float64, 2*dim), eps))
					}
					rects[g].Add(p)
					groups[g] = append(groups[g], p)
					reg.Register(rects[g].MBR(), g)
				}
				var block []int
				for _, p := range wallPoints(r, 200, dim, eps) {
					own := reg.Own(p)
					if !slices.IsSorted(own) || len(slices.Compact(slices.Clone(own))) != len(own) {
						t.Fatalf("%v/dim%d/eps%g: Own(%v) = %v is not strictly ascending", m, dim, eps, p, own)
					}
					block = reg.Block(p, block[:0])
					seen := map[int]bool{}
					for _, g := range block {
						if seen[g] {
							t.Fatalf("%v/dim%d/eps%g: Block(%v) lists group %d twice", m, dim, eps, p, g)
						}
						seen[g] = true
					}
					for g, members := range groups {
						if rects[g].ContainsPoint(p) && !slices.Contains(own, g) {
							t.Fatalf("%v/dim%d/eps%g: group %d (MBR %v) admits %v but is not in its cell's list %v", m, dim, eps, g, rects[g].MBR(), p, own)
						}
						for _, q := range members {
							if geom.Within(m, p, q, eps) && !seen[g] {
								t.Fatalf("%v/dim%d/eps%g: %v is within ε of group %d's member %v, missing from Block %v", m, dim, eps, p, g, q, block)
							}
						}
					}
				}
			}
		}
	}
}

// TestRegionsRegisterKeepsListsAscending: a region registered again after it
// grew (ELIMINATE and FORM-NEW-GROUP rebuild groups) enters the cells it grew
// into at its sorted position, and cells it already lists stay unchanged.
func TestRegionsRegisterKeepsListsAscending(t *testing.T) {
	reg := NewRegions(1, 2)
	near := geom.PointRect(geom.Point{0.5, 0.5})
	reg.Register(geom.PointRect(geom.Point{0.5, 2.5}), 0)
	reg.Register(near, 1)
	reg.Register(geom.PointRect(geom.Point{0.5, 2.5}), 2)
	reg.Register(near, 1)
	if got := reg.Own(geom.Point{0.5, 1.5}); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("Own = %v, want [0 1 2]", got)
	}
	if got := reg.Own(geom.Point{0.5, 0.5}); !slices.Equal(got, []int{1}) {
		t.Fatalf("Own = %v, want [1]", got)
	}
	reg.Register(geom.Rect{Min: geom.Point{0.5, 0.5}, Max: geom.Point{0.5, 0.9}}, 0) // 0's region moved down
	if got := reg.Own(geom.Point{0.5, 0.5}); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("Own after re-registering group 0 = %v, want [0 1]", got)
	}
	if got := reg.Own(geom.Point{9, 9}); got != nil {
		t.Fatalf("Own of an empty cell = %v, want nil", got)
	}
}
