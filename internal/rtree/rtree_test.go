package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"sgb/internal/geom"
)

func randRect(r *rand.Rand, dim int) geom.Rect {
	min := make(geom.Point, dim)
	max := make(geom.Point, dim)
	for i := 0; i < dim; i++ {
		a := r.Float64() * 100
		w := r.Float64() * 10
		min[i], max[i] = a, a+w
	}
	return geom.Rect{Min: min, Max: max}
}

func TestEmptyTree(t *testing.T) {
	tr := New(2)
	if tr.Len() != 0 || tr.Dim() != 2 {
		t.Fatal("fresh tree not empty")
	}
	if got := tr.SearchSlice(randRect(rand.New(rand.NewSource(1)), 2)); len(got) != 0 {
		t.Fatalf("search on empty tree returned %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { newWithFanout(2, 1, 8) },
		func() { newWithFanout(2, 5, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid constructor args")
				}
			}()
			f()
		}()
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(2)
	tr.Insert(geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{1, 1}}, 1)
	tr.Insert(geom.Rect{Min: geom.Point{5, 5}, Max: geom.Point{6, 6}}, 2)
	tr.Insert(geom.Rect{Min: geom.Point{0.5, 0.5}, Max: geom.Point{5.5, 5.5}}, 3)
	got := tr.SearchSlice(geom.Rect{Min: geom.Point{0.9, 0.9}, Max: geom.Point{1.1, 1.1}})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("search = %v, want [1 3]", got)
	}
	// Touching boundary counts as intersecting (closed rectangles).
	got = tr.SearchSlice(geom.Rect{Min: geom.Point{6, 6}, Max: geom.Point{7, 7}})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("boundary search = %v, want [2]", got)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New(2)
	for i := 0; i < 100; i++ {
		tr.Insert(geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{1, 1}}, int64(i))
	}
	calls := 0
	tr.Search(geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{1, 1}}, func(ref int64) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop visited %d entries, want 5", calls)
	}
}

func TestInsertDimensionMismatchPanics(t *testing.T) {
	tr := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert accepted wrong-dimension rect")
		}
	}()
	tr.Insert(geom.Rect{Min: geom.Point{0}, Max: geom.Point{1}}, 1)
}

// model is a brute-force reference the tree is validated against.
type model struct {
	rects map[int64]geom.Rect
}

func (m *model) search(w geom.Rect) []int64 {
	var out []int64
	for id, r := range m.rects {
		if r.Intersects(w) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestAgainstModelInsertOnly(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for _, dim := range []int{1, 2, 3} {
		tr := New(dim)
		m := &model{rects: map[int64]geom.Rect{}}
		for i := int64(0); i < 400; i++ {
			rect := randRect(r, dim)
			tr.Insert(rect, i)
			m.rects[i] = rect
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("dim %d after insert %d: %v", dim, i, err)
			}
		}
		if tr.Len() != 400 {
			t.Fatalf("Len = %d", tr.Len())
		}
		for q := 0; q < 100; q++ {
			w := randRect(r, dim)
			got := tr.SearchSlice(w)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := m.search(w)
			if !equalIDs(got, want) {
				t.Fatalf("dim %d query %v: got %v want %v", dim, w, got, want)
			}
		}
	}
}

func TestDuplicateRefsAllowed(t *testing.T) {
	// Equal rectangles (duplicate points, for SGB-Any and DBSCAN) must split
	// into valid nodes and all stay reachable.
	tr := New(2)
	rect := geom.Rect{Min: geom.Point{0, 0}, Max: geom.Point{1, 1}}
	for i := 0; i < 20; i++ {
		tr.Insert(rect, int64(i))
	}
	if got := len(tr.SearchSlice(rect)); got != 20 {
		t.Fatalf("found %d entries, want 20", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallFanout(t *testing.T) {
	// A tiny fan-out exercises splits aggressively and grows a deep tree.
	r := rand.New(rand.NewSource(32))
	tr := newWithFanout(2, 2, 4)
	m := &model{rects: map[int64]geom.Rect{}}
	for i := int64(0); i < 300; i++ {
		rect := randRect(r, 2)
		tr.Insert(rect, i)
		m.rects[i] = rect
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		w := randRect(r, 2)
		got := tr.SearchSlice(w)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if want := m.search(w); !equalIDs(got, want) {
			t.Fatalf("query %v: got %v want %v", w, got, want)
		}
	}
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	rects := make([]geom.Rect, 10000)
	for i := range rects {
		rects[i] = randRect(r, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(2)
		for j, rect := range rects {
			tr.Insert(rect, int64(j))
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	r := rand.New(rand.NewSource(34))
	tr := New(2)
	for i := int64(0); i < 10000; i++ {
		tr.Insert(randRect(r, 2), i)
	}
	windows := make([]geom.Rect, 64)
	for i := range windows {
		windows[i] = randRect(r, 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(windows[i%len(windows)], func(int64) bool { return true })
	}
}
