package sgb

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"sgb/internal/core"
)

// TestFacadeGroupAll exercises the public operator API end to end on the
// paper's Figure 2 example.
func TestFacadeGroupAll(t *testing.T) {
	points := []Point{{1, 1}, {2, 2}, {6, 1}, {7, 2}, {4, 1.5}}
	res, err := GroupAll(points, Options{Metric: LInf, Eps: 3, Overlap: JoinAny, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Sizes()
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 3}) {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestFacadeGroupAny(t *testing.T) {
	points := []Point{{1, 1}, {2, 2}, {6, 1}, {7, 2}, {4, 1.5}}
	res, err := GroupAny(points, Options{Metric: LInf, Eps: 3, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Len() != 5 {
		t.Fatalf("groups = %v", res.Groups)
	}
}

func TestFacadeStreaming(t *testing.T) {
	g, err := NewAllGrouper(Options{Metric: L2, Eps: 1.5, Overlap: Eliminate, Algorithm: BoundsChecking})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {1, 0}, {5, 5}} {
		if _, err := g.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %v", res.Groups)
	}

	a, err := NewAnyGrouper(Options{Metric: L2, Eps: 1.5, Algorithm: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {1, 0}, {2, 0}} {
		if _, err := a.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ares, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Groups) != 1 {
		t.Fatalf("any groups = %v", ares.Groups)
	}
}

// TestFacadeSQL exercises the SQL entry point, including the similarity
// grammar and an aggregate.
func TestFacadeSQL(t *testing.T) {
	db := NewDB()
	steps := []string{
		"CREATE TABLE pts (id INT, x FLOAT, y FLOAT)",
		"INSERT INTO pts VALUES (1, 1, 1), (2, 2, 2), (3, 6, 1), (4, 7, 2), (5, 4, 1.5)",
	}
	for _, s := range steps {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	res, err := db.Query(`
		SELECT count(*), list_id(id) FROM pts
		GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 3 ON-OVERLAP ELIMINATE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].I != 2 {
			t.Fatalf("expected groups of 2, got %v", r[0])
		}
	}
}

func TestFacadeEnumsRoundTrip(t *testing.T) {
	if L2.String() != "L2" || LInf.String() != "LINF" {
		t.Error("metric constants mis-wired")
	}
	if JoinAny.String() != "JOIN-ANY" || FormNewGroup.String() != "FORM-NEW-GROUP" {
		t.Error("overlap constants mis-wired")
	}
	if AllPairs.String() != "All-Pairs" || IndexBounds.String() != "on-the-fly Index" {
		t.Error("algorithm constants mis-wired")
	}
}

// TestFacadeParallelMatchesSequential pins the deprecated GroupAnyParallel
// pair to GroupAny under IndexBounds — groups and Stats, whatever workers and
// Options.Algorithm say — and to their cancelled-context contract.
func TestFacadeParallelMatchesSequential(t *testing.T) {
	points := []Point{{0, 0}, {1, 0}, {2, 0}, {9, 9}, {9.5, 9.5}}
	opt := Options{Metric: L2, Eps: 1.5, Algorithm: AllPairs}
	seq, err := GroupAny(points, Options{Metric: L2, Eps: 1.5, Algorithm: IndexBounds})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3} {
		par, err := GroupAnyParallel(points, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Groups, par.Groups) || seq.Stats != par.Stats {
			t.Fatalf("workers=%d: %v %+v, GroupAny %v %+v", workers, par.Groups, par.Stats, seq.Groups, seq.Stats)
		}
	}
	if _, err := GroupAnyParallel([]Point{{1, 1}, {math.NaN(), 0}}, opt, 2); !errors.Is(err, core.ErrNonFiniteCoordinate) {
		t.Fatalf("NaN coordinate: err = %v, want ErrNonFiniteCoordinate", err)
	}
	// Far fewer points than one poll stride of the grouper: only the checks
	// before the first and after the last point can see the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{ctx, &cancelledOnSecondLook{Context: context.Background()}} {
		if res, err := GroupAnyParallelCtx(ctx, points, opt, 3); res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%T: %v, %v, want context.Canceled and no result", ctx, res, err)
		}
	}
}

// cancelledOnSecondLook is live the first time Err is called and cancelled
// from then on: a context that dies while the points are being grouped.
type cancelledOnSecondLook struct {
	context.Context
	looks int
}

func (c *cancelledOnSecondLook) Err() error {
	if c.looks++; c.looks > 1 {
		return context.Canceled
	}
	return nil
}
