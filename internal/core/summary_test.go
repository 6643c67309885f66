package core

import (
	"math"
	"math/rand"
	"testing"

	"sgb/internal/geom"
)

func TestSummarizeBasics(t *testing.T) {
	pts := []geom.Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}, {10, 10}}
	res, err := SGBAll(pts, Options{Metric: geom.LInf, Eps: 2.5, Overlap: JoinAny, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := Summarize(pts, res, geom.LInf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(res.Groups) {
		t.Fatalf("%d summaries for %d groups", len(sums), len(res.Groups))
	}
	// The square group.
	var sq *GroupSummary
	for i := range sums {
		if sums[i].Size == 4 {
			sq = &sums[i]
		}
	}
	if sq == nil {
		t.Fatalf("square group missing: %+v", sums)
	}
	if sq.Centroid[0] != 1 || sq.Centroid[1] != 1 {
		t.Errorf("centroid = %v", sq.Centroid)
	}
	if !sq.MBR.Equal(geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{2, 2}}) {
		t.Errorf("MBR = %v", sq.MBR)
	}
	if len(sq.Hull) != 4 {
		t.Errorf("hull has %d vertices", len(sq.Hull))
	}
	if sq.Diameter != 2 { // LInf diameter of the square
		t.Errorf("diameter = %v", sq.Diameter)
	}
}

// TestSummarizeDiameterBound: SGB-All group diameters never exceed ε under
// the grouping metric.
func TestSummarizeDiameterBound(t *testing.T) {
	r := rand.New(rand.NewSource(120))
	for _, m := range []geom.Metric{geom.L2, geom.LInf, geom.L1} {
		pts := randomPoints(r, 300, 2, 8)
		eps := 1.2
		res, err := SGBAll(pts, Options{Metric: m, Eps: eps, Overlap: JoinAny, Algorithm: IndexBounds})
		if err != nil {
			t.Fatal(err)
		}
		sums, err := Summarize(pts, res, m)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sums {
			if s.Diameter > eps+1e-9 {
				t.Fatalf("%v: group %d diameter %v exceeds eps %v", m, i, s.Diameter, eps)
			}
			if !s.MBR.Contains(s.Centroid) {
				t.Fatalf("%v: centroid outside MBR", m)
			}
		}
	}
}

func TestSummarizeThreeD(t *testing.T) {
	pts := []geom.Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 1}}
	res, err := SGBAny(pts, Options{Metric: geom.L2, Eps: 2, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	sums, err := Summarize(pts, res, geom.L2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Hull != nil {
		t.Fatalf("3-D summary should not carry a hull: %+v", sums)
	}
	want := math.Sqrt(3)
	if math.Abs(sums[0].Diameter-want) > 1e-12 {
		t.Fatalf("diameter = %v, want %v", sums[0].Diameter, want)
	}
}

func TestSummarizeErrors(t *testing.T) {
	pts := []geom.Point{{0, 0}}
	if _, err := Summarize(pts, &Result{Groups: []Group{{IDs: []int{5}}}}, geom.L2); err == nil {
		t.Error("out-of-range member accepted")
	}
	if _, err := Summarize(pts, &Result{Groups: []Group{{}}}, geom.L2); err == nil {
		t.Error("empty group accepted")
	}
}
