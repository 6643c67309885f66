package unionfind

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestZeroValueUsable(t *testing.T) {
	var f Forest
	if f.Len() != 0 || f.Sets() != 0 {
		t.Fatal("zero forest not empty")
	}
	a := f.MakeSet()
	b := f.MakeSet()
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d; want 0, 1", a, b)
	}
	if f.Same(a, b) {
		t.Fatal("fresh singletons reported same")
	}
	f.Union(a, b)
	if !f.Same(a, b) || f.Sets() != 1 {
		t.Fatal("union did not merge")
	}
}

func TestNewAndGrow(t *testing.T) {
	f := New(5)
	if f.Len() != 5 || f.Sets() != 5 {
		t.Fatalf("Len=%d Sets=%d", f.Len(), f.Sets())
	}
	first := f.Grow(3)
	if first != 5 || f.Len() != 8 {
		t.Fatalf("Grow returned %d, Len=%d", first, f.Len())
	}
}

func TestUnionIdempotent(t *testing.T) {
	f := New(3)
	f.Union(0, 1)
	sets := f.Sets()
	f.Union(0, 1)
	f.Union(1, 0)
	f.Union(0, 0)
	if f.Sets() != sets {
		t.Fatal("repeated unions changed the set count")
	}
}

func TestGroups(t *testing.T) {
	f := New(6)
	f.Union(4, 3)
	f.Union(0, 1)
	f.Union(3, 2)
	groups := f.Groups()
	want := [][]int{{0, 1}, {2, 3, 4}, {5}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("Groups() = %v, want %v: sets ordered by smallest member, members ascending", groups, want)
	}
	if New(0).Groups() != nil {
		t.Fatal("an empty forest must have nil groups")
	}
}

// TestAgainstNaiveModel drives the forest with random unions and checks every
// Find/Same answer against a brute-force partition model: Find(x) must be the
// smallest element of x's model set.
func TestAgainstNaiveModel(t *testing.T) {
	const n = 200
	r := rand.New(rand.NewSource(42))
	f := New(n)
	model := make([]int, n) // model[i] = label of i's set
	for i := range model {
		model[i] = i
	}
	relabel := func(from, to int) {
		for i := range model {
			if model[i] == from {
				model[i] = to
			}
		}
	}
	for op := 0; op < 2000; op++ {
		a, b := r.Intn(n), r.Intn(n)
		if r.Intn(2) == 0 {
			f.Union(a, b)
			relabel(model[a], model[b])
		}
		x, y := r.Intn(n), r.Intn(n)
		if got, want := f.Same(x, y), model[x] == model[y]; got != want {
			t.Fatalf("op %d: Same(%d,%d)=%v, model says %v", op, x, y, got, want)
		}
		smallest := x
		for i := range model {
			if model[i] == model[x] && i < smallest {
				smallest = i
			}
		}
		if got := f.Find(x); got != smallest {
			t.Fatalf("op %d: Find(%d)=%d, want the set's smallest element %d", op, x, got, smallest)
		}
	}
	// Set count must match the model.
	labels := map[int]bool{}
	for _, l := range model {
		labels[l] = true
	}
	if f.Sets() != len(labels) {
		t.Fatalf("Sets=%d, model has %d", f.Sets(), len(labels))
	}
}

func TestFindPathCompression(t *testing.T) {
	// Build a long chain via unions and ensure Find flattens it: afterwards
	// every element's parent should be the root.
	const n = 64
	f := New(n)
	for i := 1; i < n; i++ {
		f.Union(i-1, i)
	}
	root := f.Find(0)
	for i := 0; i < n; i++ {
		f.Find(i)
	}
	for i := 0; i < n; i++ {
		if int(f.parent[i]) != root {
			t.Fatalf("element %d not compressed to root", i)
		}
	}
}

func BenchmarkUnionFind(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const n = 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := New(n)
		for j := 0; j < n; j++ {
			f.Union(r.Intn(n), r.Intn(n))
		}
	}
}
