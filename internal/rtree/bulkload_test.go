package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"sgb/internal/geom"
)

func bulkEntries(r *rand.Rand, n, dim int) []BulkEntry {
	out := make([]BulkEntry, n)
	for i := range out {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = r.Float64() * 100
		}
		out[i] = BulkEntry{Rect: geom.PointRect(p), Ref: int64(i)}
	}
	return out
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000, 5000} {
		entries := bulkEntries(r, n, 2)
		// Keep a copy: BulkLoad reorders in place.
		inc := New(2)
		for _, e := range entries {
			inc.Insert(e.Rect, e.Ref)
		}
		packed := BulkLoad(2, entries)
		if packed.Len() != n {
			t.Fatalf("n=%d: packed Len=%d", n, packed.Len())
		}
		if err := packed.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 30; q++ {
			w := randRect(r, 2)
			a := inc.SearchSlice(w)
			b := packed.SearchSlice(w)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if !equalIDs(a, b) {
				t.Fatalf("n=%d: packed search differs from incremental", n)
			}
		}
	}
}

func TestBulkLoadThenMutate(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	tr := BulkLoad(2, bulkEntries(r, 500, 2))
	// Insert after packing, enough to split packed nodes.
	extra := geom.PointRect(geom.Point{200, 200})
	tr.Insert(extra, 9999)
	if got := tr.SearchSlice(extra); len(got) != 1 || got[0] != 9999 {
		t.Fatalf("post-pack insert not found: %v", got)
	}
	for _, e := range bulkEntries(r, 250, 2) {
		tr.Insert(e.Rect, 1000+e.Ref)
	}
	if tr.Len() != 751 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.SearchSlice(geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{100, 100}}); len(got) != 750 {
		t.Fatalf("full window found %d, want 750", len(got))
	}
}

func TestBulkLoadHigherDim(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	entries := bulkEntries(r, 700, 3)
	tr := BulkLoad(3, entries)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all := tr.SearchSlice(geom.Rect{Min: geom.Point{0, 0, 0}, Max: geom.Point{100, 100, 100}})
	if len(all) != 700 {
		t.Fatalf("full window found %d", len(all))
	}
}

// TestBulkLoadSearchMatchesBruteForce checks window queries on a packed tree
// against a linear scan of the entries: STR packing must not lose an entry
// or mis-bound a node.
func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	entries := bulkEntries(r, 800, 2)
	pts := make([]geom.Point, len(entries))
	for _, e := range entries {
		pts[e.Ref] = e.Rect.Min.Clone()
	}
	tr := BulkLoad(2, entries)
	for q := 0; q < 50; q++ {
		w := randRect(r, 2)
		var want []int64
		for i, p := range pts {
			if w.Contains(p) {
				want = append(want, int64(i))
			}
		}
		got := tr.SearchSlice(w)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !equalIDs(got, want) {
			t.Fatalf("window %v: packed search %v, brute force %v", w, got, want)
		}
	}
}

func BenchmarkBulkLoadVsIncremental(b *testing.B) {
	r := rand.New(rand.NewSource(114))
	base := bulkEntries(r, 50000, 2)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New(2)
			for _, e := range base {
				tr.Insert(e.Rect, e.Ref)
			}
		}
	})
	b.Run("str-pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries := make([]BulkEntry, len(base))
			copy(entries, base)
			BulkLoad(2, entries)
		}
	})
}
