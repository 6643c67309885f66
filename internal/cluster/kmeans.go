// Package cluster provides the standalone clustering baselines the paper
// compares against in §8.6 (Figure 11): K-means, DBSCAN and BIRCH. They are
// deliberately faithful to the classic formulations — in particular they are
// multi-pass, which is the structural reason the single-pass SGB operators
// outperform them.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"sgb/internal/geom"
)

// KMeansResult is the outcome of Lloyd's algorithm.
type KMeansResult struct {
	// Assignments maps each input point to its cluster index in [0, k).
	Assignments []int
	// Centroids holds the final cluster centres.
	Centroids []geom.Point
	// Iterations is the number of assignment/update passes performed.
	Iterations int
	// Converged reports whether the assignment reached a fixed point
	// before the iteration cap.
	Converged bool
	// DistanceComps counts point-to-centre distance evaluations, seeding
	// included.
	DistanceComps int64
}

// KMeans runs Lloyd's algorithm with k-means++ seeding (Kanungo et al. style
// refinement loop) until convergence or maxIter passes. The seed makes runs
// reproducible.
func KMeans(points []geom.Point, k, maxIter int, seed int64) (*KMeansResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if len(points) == 0 {
		return &KMeansResult{Converged: true}, nil
	}
	if k > len(points) {
		k = len(points)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	r := rand.New(rand.NewSource(seed))
	dim := len(points[0])
	var comps distCount
	centroids := seedPlusPlus(points, k, r, &comps)
	assign := make([]int, len(points))
	res := &KMeansResult{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centroids {
				if d := comps.sqDist(p, ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			res.Converged = true
			break
		}
		// Update step.
		counts := make([]int, k)
		sums := make([]geom.Point, k)
		for c := range sums {
			sums[c] = make(geom.Point, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := range p {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centroids[c] = points[r.Intn(len(points))].Clone()
				continue
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
	}
	res.Assignments = assign
	res.Centroids = centroids
	res.DistanceComps = int64(comps)
	return res, nil
}

// seedPlusPlus picks initial centres with the k-means++ D² weighting.
func seedPlusPlus(points []geom.Point, k int, r *rand.Rand, comps *distCount) []geom.Point {
	centroids := make([]geom.Point, 0, k)
	centroids = append(centroids, points[r.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		last := centroids[len(centroids)-1]
		for i, p := range points {
			d := comps.sqDist(p, last)
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		if total == 0 {
			// All remaining points coincide with a centre.
			centroids = append(centroids, points[r.Intn(len(points))].Clone())
			continue
		}
		target := r.Float64() * total
		idx := len(points) - 1
		var acc float64
		for i := range points {
			acc += d2[i]
			if acc >= target {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx].Clone())
	}
	return centroids
}

// distCount counts squared-distance evaluations: the distance work the
// paper's Figure 11 comparison charges each baseline.
type distCount int64

func (c *distCount) sqDist(p, q geom.Point) float64 {
	*c++
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}
