package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sgb/internal/geom"
)

// reserveGrouper is what both groupers offer a caller that sizes them.
type reserveGrouper interface {
	Reserve(points, groups int)
	Add(geom.Point) (int, error)
	Finish() (*Result, error)
}

// hintRun is one way of feeding a grouper: Reserve(points, groups) before the
// at-th Add (never for at < 0), and a Snapshot after every every-th Add (none
// for every = 0).
type hintRun struct {
	name                      string
	at, points, groups, every int
}

// runHinted feeds pts to a fresh grouper as h says and returns its final
// result and its snapshots, each as a Result (SGB-Any's carry only Groups).
func runHinted(t *testing.T, all bool, opt Options, blockCap float64, pts []geom.Point, h hintRun) (*Result, []*Result) {
	t.Helper()
	var g reserveGrouper
	var snap func() (*Result, error)
	if all {
		ag, err := NewAllGrouper(opt)
		if err != nil {
			t.Fatal(err)
		}
		g, snap = ag, ag.Snapshot
	} else {
		ag, err := newAnyGrouper(opt, blockCap)
		if err != nil {
			t.Fatal(err)
		}
		g = ag
		snap = func() (*Result, error) {
			groups, err := ag.Snapshot()
			return &Result{Groups: groups}, err
		}
	}
	var snaps []*Result
	for i, p := range pts {
		if i == h.at {
			g.Reserve(h.points, h.groups)
		}
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
		if h.every > 0 && (i+1)%h.every == 0 {
			s, err := snap()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, s)
		}
	}
	res, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res, snaps
}

// TestReserveIsInvisible checks that a storage hint sizes storage and nothing
// else. Both groupers, every algorithm and index, L2 and L∞, the three
// ON-OVERLAP clauses and dimensionalities 1–4 are fed one input with no hint,
// the exact counts, too small a hint (1, 1), an oversized one (10n, 10n), the
// exact counts announced after the first Add, and the exact counts with a
// Snapshot every 7 points. Every run must return the unhinted run's Groups,
// Dropped and Stats, FORM-NEW-GROUP recursion included, and every snapshot
// the unhinted grouper's snapshot at the same prefix.
func TestReserveIsInvisible(t *testing.T) {
	const n, eps, every = 180, 0.3, 7
	type variant struct {
		all      bool
		alg      Algorithm
		blockCap float64
	}
	variants := []variant{
		{true, AllPairs, gridBlockCap}, {true, BoundsChecking, gridBlockCap}, {true, IndexBounds, gridBlockCap},
		{false, AllPairs, gridBlockCap}, {false, IndexBounds, gridBlockCap}, {false, IndexBounds, 0},
	}
	recursed := false
	for dim := 1; dim <= 4; dim++ {
		r := rand.New(rand.NewSource(int64(dim)))
		// Half ε-grid-adversarial points, which overlap heavily and drive
		// FORM-NEW-GROUP into recursion, half spread over many cells.
		pts := append(gridPoints(r, n/2, dim, eps), randomPoints(r, n/2, dim, 12*eps)...)
		r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		for _, v := range variants {
			for _, m := range []geom.Metric{geom.L2, geom.LInf} {
				for _, ov := range []Overlap{JoinAny, Eliminate, FormNewGroup} {
					opt := Options{Metric: m, Eps: eps, Overlap: ov, Algorithm: v.alg}
					label := fmt.Sprintf("all=%v %v cap=%v %v %v dim=%d", v.all, v.alg, v.blockCap, m, ov, dim)
					want, _ := runHinted(t, v.all, opt, v.blockCap, pts, hintRun{at: -1})
					_, wantSnaps := runHinted(t, v.all, opt, v.blockCap, pts, hintRun{at: -1, every: every})
					recursed = recursed || want.Stats.Rounds > 1
					groups := len(want.Groups)
					for _, h := range []hintRun{
						{"exact", 0, n, groups, 0},
						{"too small", 0, 1, 1, 0},
						{"oversized", 0, 10 * n, 10 * n, 0},
						{"after the first Add", 1, n, groups, 0},
						{"streaming", 0, n, groups, every},
					} {
						got, snaps := runHinted(t, v.all, opt, v.blockCap, pts, h)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, %s hint: result differs from the unhinted one\n got %+v\nwant %+v", label, h.name, got, want)
						}
						if h.every > 0 && !reflect.DeepEqual(snaps, wantSnaps) {
							t.Fatalf("%s, %s hint: snapshots differ from the unhinted ones", label, h.name)
						}
					}
				}
			}
		}
	}
	if !recursed {
		t.Fatal("no FORM-NEW-GROUP run recursed: the input no longer covers the scratch grouper")
	}
}
