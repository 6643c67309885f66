package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("queries_total")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("queries_total") != c {
		t.Fatal("Counter did not return the existing instance")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("tables")
	g.Set(3)
	g.Add(2)
	g.Add(-1)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["latency_seconds"]
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Sum != 5.555 {
		t.Fatalf("sum = %v, want 5.555", s.Sum)
	}
	// Cumulative bucket semantics: <=0.01 sees 1, <=0.1 sees 2, <=1 sees 3.
	want := []int64{1, 2, 3}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	s := r.Snapshot()
	r.Counter("a").Inc()
	if s.Counters["a"] != 1 {
		t.Fatalf("snapshot mutated after the fact: %d", s.Counters["a"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_queries_total").Add(7)
	r.Gauge("engine_catalog_tables").Set(2)
	r.Histogram("engine_query_seconds", []float64{0.1, 1}).Observe(0.05)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE engine_queries_total counter",
		"engine_queries_total 7",
		"# TYPE engine_catalog_tables gauge",
		"engine_catalog_tables 2",
		"# TYPE engine_query_seconds histogram",
		`engine_query_seconds_bucket{le="0.1"} 1`,
		`engine_query_seconds_bucket{le="+Inf"} 1`,
		"engine_query_seconds_sum 0.05",
		"engine_query_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", DefBuckets).Observe(0.001)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	s := tr.StartSpan("parse")
	time.Sleep(time.Millisecond)
	s.End()
	first := s.Duration()
	if first <= 0 {
		t.Fatal("span duration not recorded")
	}
	s.End() // second End keeps the first duration
	if s.Duration() != first {
		t.Fatal("double End overwrote the duration")
	}
	tr.StartSpan("execute").End()
	tr.Annotate("distance_comps=%d", 42)
	out := tr.String()
	for _, want := range []string{"parse=", "execute=", "distance_comps=42"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace %q missing %q", out, want)
		}
	}
	if len(tr.Spans()) != 2 || len(tr.Notes()) != 1 {
		t.Fatalf("spans=%d notes=%d", len(tr.Spans()), len(tr.Notes()))
	}
}

func TestTraceID(t *testing.T) {
	id := NewTraceID()
	if !ValidTraceID(id) {
		t.Fatalf("NewTraceID produced invalid id %q", id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatalf("two trace IDs collided: %q", id)
	}
	for _, bad := range []string{"", "short", "0123456789abcdeF", "0123456789abcdefg", "0123456789ABCDEF", "xyzw456789abcdef", "0123456789abcde "} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
	tr := NewTraceWithID(id)
	if tr.ID() != id {
		t.Fatalf("trace ID = %q, want %q", tr.ID(), id)
	}
	if NewTrace().ID() != "" {
		t.Fatal("untraced trace has non-empty ID")
	}
}

func TestTraceStateAndPlan(t *testing.T) {
	tr := NewTrace()
	if tr.State() != "" {
		t.Fatalf("initial state = %q", tr.State())
	}
	tr.SetState("executing")
	if tr.State() != "executing" {
		t.Fatalf("state = %q, want executing", tr.State())
	}
	tr.SetPlan([]string{"HashSGB", "  Scan t"})
	plan := tr.Plan()
	if len(plan) != 2 || plan[0] != "HashSGB" {
		t.Fatalf("plan = %v", plan)
	}
	tr.AddSpan("wire_decode", time.Now(), 3*time.Millisecond)
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "wire_decode" || snap.Spans[0].DurMS != 3 {
		t.Fatalf("snapshot spans = %+v", snap.Spans)
	}
	if len(snap.Plan) != 2 {
		t.Fatalf("snapshot plan = %v", snap.Plan)
	}
}

// TestTraceConcurrency pins the goroutine-safety of Trace/Span: the WAL
// flush path and the server's process-list reader both touch a live trace.
// Run under -race in CI.
func TestTraceConcurrency(t *testing.T) {
	tr := NewTraceWithID(NewTraceID())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := tr.StartSpan("work")
				tr.Annotate("worker=%d iter=%d", n, j)
				tr.SetState("executing")
				s.End()
				tr.AddSpan("ext", time.Now(), time.Microsecond)
				tr.SetPlan([]string{"op"})
				_ = tr.State()
				_ = tr.Spans()
				_ = tr.Notes()
				_ = tr.Plan()
				_ = tr.String()
				_ = tr.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8*200*2 {
		t.Fatalf("spans = %d, want %d", got, 8*200*2)
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	if l.Len() != 0 {
		t.Fatalf("empty len = %d", l.Len())
	}
	for i := 1; i <= 5; i++ {
		l.Add(SlowQuery{SQL: string(rune('a' + i - 1)), TraceID: NewTraceID()})
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	got := l.Entries()
	// Newest first: e, d, c survive; a and b were evicted.
	want := []string{"e", "d", "c"}
	for i, w := range want {
		if got[i].SQL != w {
			t.Fatalf("entries[%d].SQL = %q, want %q (all: %+v)", i, got[i].SQL, w, got)
		}
	}
	if got[0].FinishedAt == "" {
		t.Fatal("Add did not stamp FinishedAt")
	}
	q, ok := l.Find(got[1].TraceID)
	if !ok || q.SQL != "d" {
		t.Fatalf("Find = %+v, %v", q, ok)
	}
	if _, ok := l.Find("0000000000000000"); ok {
		t.Fatal("Find matched a missing trace ID")
	}
	if _, ok := l.Find(""); ok {
		t.Fatal("Find matched the empty trace ID")
	}
}

func TestSlowLogConcurrency(t *testing.T) {
	l := NewSlowLog(16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Add(SlowQuery{SQL: "select 1"})
				_ = l.Entries()
				_ = l.Len()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 16 {
		t.Fatalf("len = %d, want 16", l.Len())
	}
}

func TestWritePrometheusLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Gauge(`sgbd_build_info{version="v6",go="go1.24",fsync="always"}`).Set(1)
	r.Gauge(`sgbd_build_info{version="v7",go="go1.24",fsync="never"}`).Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE sgbd_build_info gauge"); got != 1 {
		t.Fatalf("want exactly one TYPE line for the labeled family, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, `sgbd_build_info{version="v6",go="go1.24",fsync="always"} 1`) {
		t.Fatalf("labeled sample missing:\n%s", out)
	}
	if strings.Contains(out, `# TYPE sgbd_build_info{`) {
		t.Fatalf("TYPE line leaked labels:\n%s", out)
	}
}
