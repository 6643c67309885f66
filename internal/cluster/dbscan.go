package cluster

import (
	"fmt"

	"sgb/internal/geom"
	"sgb/internal/rtree"
)

// Noise is the DBSCAN label assigned to points in no cluster.
const Noise = -1

// DBSCANResult is the outcome of a DBSCAN run.
type DBSCANResult struct {
	// Labels maps each input point to a cluster id in [0, Clusters), or
	// Noise.
	Labels []int
	// Clusters is the number of clusters discovered.
	Clusters int
	// NoisePoints is the number of points labelled Noise.
	NoisePoints int
	// RegionQueries counts ε-neighbourhood queries issued (each is one
	// R-tree window query plus exact distance verification).
	RegionQueries int64
	// DistanceComps counts the exact distance verifications of window-query
	// hits.
	DistanceComps int64
}

// DBSCAN runs density-based clustering (Ester et al. 1996) with ε-region
// queries served by a pre-built R-tree over all points — the
// "state-of-the-art implementation of DBSCAN with an R-tree" configuration
// the paper benchmarks against.
func DBSCAN(points []geom.Point, m geom.Metric, eps float64, minPts int) (*DBSCANResult, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("cluster: eps must be positive, got %v", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("cluster: minPts must be >= 1, got %d", minPts)
	}
	res := &DBSCANResult{Labels: make([]int, len(points))}
	if len(points) == 0 {
		return res, nil
	}
	dim := len(points[0])
	entries := make([]rtree.BulkEntry, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), dim)
		}
		entries[i] = rtree.BulkEntry{Rect: geom.PointRect(p), Ref: int64(i)}
	}
	// The point set is static, so an STR-packed tree serves the region
	// queries with near-full node occupancy.
	tree := rtree.BulkLoad(dim, entries)

	const unvisited = -2
	for i := range res.Labels {
		res.Labels[i] = unvisited
	}
	region := func(i int) []int {
		res.RegionQueries++
		var out []int
		tree.Search(geom.BoxAround(points[i], eps), func(ref int64) bool {
			j := int(ref)
			res.DistanceComps++
			if geom.Within(m, points[i], points[j], eps) {
				out = append(out, j)
			}
			return true
		})
		return out
	}

	cluster := 0
	for i := range points {
		if res.Labels[i] != unvisited {
			continue
		}
		neigh := region(i)
		if len(neigh) < minPts {
			res.Labels[i] = Noise
			continue
		}
		// Expand a new cluster from this core point. Only unvisited points
		// enter the frontier (visited and noise points are labelled
		// immediately), which bounds the queue by n even on dense data.
		res.Labels[i] = cluster
		var queue []int
		for _, j := range neigh {
			if res.Labels[j] == unvisited {
				res.Labels[j] = cluster
				queue = append(queue, j)
			} else if res.Labels[j] == Noise {
				res.Labels[j] = cluster // border point
			}
		}
		for len(queue) > 0 {
			j := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			jn := region(j)
			if len(jn) < minPts {
				continue // border point: keeps its label, expands nothing
			}
			for _, k := range jn {
				if res.Labels[k] == unvisited {
					res.Labels[k] = cluster
					queue = append(queue, k)
				} else if res.Labels[k] == Noise {
					res.Labels[k] = cluster
				}
			}
		}
		cluster++
	}
	res.Clusters = cluster
	for _, l := range res.Labels {
		if l == Noise {
			res.NoisePoints++
		}
	}
	return res, nil
}
