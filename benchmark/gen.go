package main

import (
	"fmt"
	"math/rand"
	"strings"

	"sgb"
)

// layoutSeed fixes where the check-in hotspots sit. internal/checkin draws
// the 40 hotspot centres from the data seed, and on this engine the cost of a
// DISTANCE-TO-ANY statement swings ±20 % with where the heaviest hotspots
// land (how many ε-neighbours a point has, how evenly the parallel grid
// splits). A benchmark whose seeds differ by that much cannot resolve a 10 %
// regression, so the layout is a constant and the seed draws only the points.
const layoutSeed = 20090329

// checkinBox is internal/checkin's default bounding box (continental US).
var checkinBox = [4]float64{25, 49, -125, -67}

// genCheckins draws n (lat, lon) points from the mixture internal/checkin
// uses — 40 Gaussian hotspots with Zipf (1/k) weights and σ = 0.05°, plus 5 %
// uniform background — over a fixed hotspot layout (see layoutSeed).
func genCheckins(n int, seed int64) []sgb.Point {
	const hotspots, spread, background = 40, 0.05, 0.05
	box := checkinBox
	lr := rand.New(rand.NewSource(layoutSeed))
	type spot struct{ lat, lon, cum float64 }
	spots := make([]spot, hotspots)
	var total float64
	for i := range spots {
		total += 1 / float64(i+1)
		spots[i] = spot{
			lat: box[0] + lr.Float64()*(box[1]-box[0]),
			lon: box[2] + lr.Float64()*(box[3]-box[2]),
			cum: total,
		}
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([]sgb.Point, n)
	for i := range pts {
		var lat, lon float64
		if r.Float64() < background {
			lat = box[0] + r.Float64()*(box[1]-box[0])
			lon = box[2] + r.Float64()*(box[3]-box[2])
		} else {
			target := r.Float64() * total
			s := spots[len(spots)-1]
			for _, c := range spots {
				if c.cum >= target {
					s = c
					break
				}
			}
			lat = clamp(s.lat+r.NormFloat64()*spread, box[0], box[1])
			lon = clamp(s.lon+r.NormFloat64()*spread, box[2], box[3])
		}
		pts[i] = sgb.Point{lat, lon}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// checkinLoadSQL renders the statements that create and fill the checkins
// table: the same text loads the embedded database and goes over the wire.
// %v prints a float64 with the digits that round-trip, so both sides hold
// bit-identical coordinates.
func checkinLoadSQL(pts []sgb.Point) []string {
	const perInsert = 500
	out := []string{"CREATE TABLE checkins (user_id INT, lat FLOAT, lon FLOAT)"}
	var b strings.Builder
	for i, p := range pts {
		if i%perInsert == 0 {
			b.Reset()
			b.WriteString("INSERT INTO checkins VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %v, %v)", 1+i%997, p[0], p[1])
		if i%perInsert == perInsert-1 || i == len(pts)-1 {
			out = append(out, b.String())
		}
	}
	return out
}

// ingestStream is serve_ingest's pre-generated statement stream.
type ingestStream struct {
	// cycles[i] is three 8-row INSERTs followed by one indexed SELECT.
	cycles [][4]string
	// points[k] and cells[k] are the (x, y) and the cell of the row with id
	// k, in insertion order; readCells[i] is the cell cycle i's SELECT asks for.
	points    []sgb.Point
	cells     []int
	readCells []int
	// warm INSERTs run before timing starts; their rows come first in points.
	warm []string
	// sentinel is the last INSERT: one far-away row whose delta tells the
	// subscriber that everything before it has been delivered.
	sentinel string
}

const (
	ingestRowsPerInsert = 8
	ingestGrid          = 20  // cells per side: 400 cell centres
	ingestPitch         = 5.0 // distance between neighbouring centres
	ingestSigma         = 0.5
	ingestEps           = 0.1
)

// genIngest builds the write stream: each row picks one of 400 cell centres
// on a 20×20 grid (pitch 5) and scatters around it with σ = 0.5, so at ε = 0.1
// a new point links to a handful of neighbours even at the end of the run and
// cells never merge with each other.
func genIngest(cycles, warm int, seed int64) *ingestStream {
	r := rand.New(rand.NewSource(seed))
	s := &ingestStream{}
	insert := func() string {
		var b strings.Builder
		b.WriteString("INSERT INTO pts VALUES ")
		for j := 0; j < ingestRowsPerInsert; j++ {
			cell := r.Intn(ingestGrid * ingestGrid)
			x := float64(cell%ingestGrid)*ingestPitch + r.NormFloat64()*ingestSigma
			y := float64(cell/ingestGrid)*ingestPitch + r.NormFloat64()*ingestSigma
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %v, %v)", len(s.points), cell, x, y)
			s.points = append(s.points, sgb.Point{x, y})
			s.cells = append(s.cells, cell)
		}
		return b.String()
	}
	for i := 0; i < warm; i++ {
		s.warm = append(s.warm, insert())
	}
	s.cycles = make([][4]string, cycles)
	for i := range s.cycles {
		for j := 0; j < 3; j++ {
			s.cycles[i][j] = insert()
		}
		s.readCells = append(s.readCells, r.Intn(ingestGrid*ingestGrid))
		s.cycles[i][3] = fmt.Sprintf("SELECT count(*), avg(x), avg(y) FROM pts WHERE cell = %d", s.readCells[i])
	}
	far := sgb.Point{-1000, -1000}
	s.sentinel = fmt.Sprintf("INSERT INTO pts VALUES (%d, -1, %v, %v)", len(s.points), far[0], far[1])
	s.points = append(s.points, far)
	return s
}

// ingestSetupSQL creates serve_ingest's table, index and — when withView —
// the materialized SGB-Any view the subscriber follows.
func ingestSetupSQL(withView bool) []string {
	out := []string{
		"CREATE TABLE pts (id INT, cell INT, x FLOAT, y FLOAT)",
		"CREATE INDEX pts_cell ON pts (cell)",
	}
	if withView {
		out = append(out, fmt.Sprintf("CREATE MATERIALIZED VIEW hot AS SELECT x, y FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN %v", ingestEps))
	}
	return out
}
