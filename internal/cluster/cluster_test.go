package cluster

import (
	"math"
	"math/rand"
	"testing"

	"sgb/internal/geom"
)

// blobs generates g well-separated Gaussian blobs of n points each and
// returns the points with their ground-truth labels.
func blobs(r *rand.Rand, g, n int, spread, sep float64) ([]geom.Point, []int) {
	var pts []geom.Point
	var labels []int
	for c := 0; c < g; c++ {
		cx := float64(c) * sep
		cy := float64(c%2) * sep
		for i := 0; i < n; i++ {
			pts = append(pts, geom.Point{cx + r.NormFloat64()*spread, cy + r.NormFloat64()*spread})
			labels = append(labels, c)
		}
	}
	return pts, labels
}

// purity measures how well an assignment recovers ground-truth blobs:
// the fraction of points whose cluster's majority label matches their own.
func purity(assign, truth []int) float64 {
	type key struct{ c, t int }
	counts := map[key]int{}
	clusterSize := map[int]int{}
	for i := range assign {
		counts[key{assign[i], truth[i]}]++
		clusterSize[assign[i]]++
	}
	majority := map[int]int{}
	for k, n := range counts {
		if n > majority[k.c] {
			majority[k.c] = n
		}
	}
	var correct int
	for _, n := range majority {
		correct += n
	}
	return float64(correct) / float64(len(assign))
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	pts, truth := blobs(r, 4, 100, 0.3, 10)
	res, err := KMeans(pts, 4, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != len(pts) || len(res.Centroids) != 4 {
		t.Fatalf("shape wrong: %d assignments, %d centroids", len(res.Assignments), len(res.Centroids))
	}
	if p := purity(res.Assignments, truth); p < 0.95 {
		t.Fatalf("k-means purity %.3f on well-separated blobs", p)
	}
	if !res.Converged {
		t.Error("k-means did not converge on easy blobs")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, err := KMeans(nil, 0, 10, 1); err == nil {
		t.Error("accepted k=0")
	}
	res, err := KMeans(nil, 3, 10, 1)
	if err != nil || len(res.Assignments) != 0 {
		t.Errorf("empty input: %v %v", res, err)
	}
	// k larger than the input collapses to one point per cluster.
	pts := []geom.Point{{0, 0}, {5, 5}}
	res, err = KMeans(pts, 10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Errorf("k was not clamped: %d centroids", len(res.Centroids))
	}
	// Identical points: must terminate and put everything together.
	same := []geom.Point{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err = KMeans(same, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 4 {
		t.Error("identical-point input mishandled")
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	pts, _ := blobs(r, 3, 50, 0.5, 8)
	a, err := KMeans(pts, 3, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(pts, 3, 50, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestDBSCANRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	pts, truth := blobs(r, 3, 150, 0.3, 10)
	res, err := DBSCAN(pts, geom.L2, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 3 {
		t.Fatalf("DBSCAN found %d clusters, want 3 (noise=%d)", res.Clusters, res.NoisePoints)
	}
	// Exclude noise from the purity computation.
	var a, tr []int
	for i, l := range res.Labels {
		if l != Noise {
			a = append(a, l)
			tr = append(tr, truth[i])
		}
	}
	if p := purity(a, tr); p < 0.99 {
		t.Fatalf("DBSCAN purity %.3f", p)
	}
	if res.RegionQueries == 0 {
		t.Error("region query counter not populated")
	}
}

func TestDBSCANNoise(t *testing.T) {
	// A tight blob plus far-away isolated points: isolates become noise.
	r := rand.New(rand.NewSource(73))
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{r.NormFloat64() * 0.2, r.NormFloat64() * 0.2})
	}
	pts = append(pts, geom.Point{100, 100}, geom.Point{-100, 50}, geom.Point{60, -70})
	res, err := DBSCAN(pts, geom.L2, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 || res.NoisePoints != 3 {
		t.Fatalf("clusters=%d noise=%d, want 1 and 3", res.Clusters, res.NoisePoints)
	}
}

func TestDBSCANMinPtsOne(t *testing.T) {
	// With minPts=1 every point is a core point: clusters are exactly the
	// ε-connected components and there is no noise — the same semantics as
	// SGB-Any, a useful cross-check.
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}, {10, 0}, {11, 0}}
	res, err := DBSCAN(pts, geom.L2, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 || res.NoisePoints != 0 {
		t.Fatalf("clusters=%d noise=%d, want 2 and 0", res.Clusters, res.NoisePoints)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[0] != res.Labels[2] {
		t.Error("chain not connected")
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[3] == res.Labels[0] {
		t.Error("distinct components labelled together")
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(nil, geom.L2, 0, 4); err == nil {
		t.Error("accepted eps=0")
	}
	if _, err := DBSCAN(nil, geom.L2, 1, 0); err == nil {
		t.Error("accepted minPts=0")
	}
	if _, err := DBSCAN([]geom.Point{{1, 2}, {1}}, geom.L2, 1, 1); err == nil {
		t.Error("accepted mixed dimensions")
	}
	res, err := DBSCAN(nil, geom.L2, 1, 1)
	if err != nil || len(res.Labels) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestBIRCHRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	pts, truth := blobs(r, 4, 200, 0.3, 12)
	res, err := BIRCH(pts, 1.0, 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != len(pts) {
		t.Fatalf("assignment length %d", len(res.Assignments))
	}
	if res.LeafEntries == 0 || res.LeafEntries >= len(pts) {
		t.Fatalf("CF-tree did not summarize: %d leaf entries for %d points", res.LeafEntries, len(pts))
	}
	if p := purity(res.Assignments, truth); p < 0.9 {
		t.Fatalf("BIRCH purity %.3f", p)
	}
}

func TestBIRCHCompression(t *testing.T) {
	// Points repeated in a tiny area must collapse into very few CF
	// entries.
	r := rand.New(rand.NewSource(75))
	var pts []geom.Point
	for i := 0; i < 1000; i++ {
		pts = append(pts, geom.Point{r.Float64() * 0.01, r.Float64() * 0.01})
	}
	res, err := BIRCH(pts, 0.5, 8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeafEntries > 3 {
		t.Fatalf("tight data produced %d CF entries", res.LeafEntries)
	}
	c := res.Centroids[0]
	if math.Abs(c[0]-0.005) > 0.01 || math.Abs(c[1]-0.005) > 0.01 {
		t.Fatalf("centroid off: %v", c)
	}
}

func TestBIRCHValidation(t *testing.T) {
	if _, err := BIRCH(nil, 0, 8, 2, 1); err == nil {
		t.Error("accepted threshold=0")
	}
	if _, err := BIRCH(nil, 1, 1, 2, 1); err == nil {
		t.Error("accepted branching=1")
	}
	if _, err := BIRCH(nil, 1, 8, 0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := BIRCH([]geom.Point{{1, 2}, {1}}, 1, 8, 1, 1); err == nil {
		t.Error("accepted mixed dimensions")
	}
	res, err := BIRCH(nil, 1, 8, 2, 1)
	if err != nil || len(res.Assignments) != 0 {
		t.Error("empty input mishandled")
	}
}

func TestCFRadius(t *testing.T) {
	f := newCF(2)
	f.add(geom.Point{0, 0})
	// Radius after absorbing (2,0): points {(0,0),(2,0)}, centroid (1,0),
	// radius sqrt(mean squared deviation) = 1.
	if r := f.radiusWith(geom.Point{2, 0}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("radiusWith = %v, want 1", r)
	}
	f.add(geom.Point{2, 0})
	c := f.centroid()
	if c[0] != 1 || c[1] != 0 {
		t.Fatalf("centroid = %v", c)
	}
	g := newCF(2)
	g.add(geom.Point{4, 4})
	f.merge(g)
	if f.n != 3 || f.ls[0] != 6 || f.ls[1] != 4 {
		t.Fatalf("merge wrong: %+v", f)
	}
}
