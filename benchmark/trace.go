package main

import (
	"sync"
	"time"
)

// span is one interval recorded by the traced pass, around a call (or a batch
// of Calls identical calls) into one layer's public functions. Spans are kept
// in memory and written to -out when the pass ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = a root
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the recorder started
	EndNS    int64  `json:"end_ns"`
	Calls    int    `json:"calls"`
}

// recorder collects spans; safe for use from several goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// scope names the workload and parent span that new spans belong to.
type scope struct {
	rec      *recorder
	workload string
	parent   int
}

// section runs fn as the root span of one workload's part of the traced pass;
// the spans fn records through its scope are that root's children.
func (r *recorder) section(workload string, fn func(scope) error) error {
	var err error
	scope{rec: r, workload: workload}.span("section", 1, func(child scope) { err = fn(child) })
	return err
}

// do records fn as one span covering calls identical calls and returns how
// long it took.
func (s scope) do(name string, calls int, fn func()) time.Duration {
	return s.span(name, calls, func(scope) { fn() })
}

func (s scope) span(name string, calls int, fn func(child scope)) time.Duration {
	r := s.rec
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: s.parent, Workload: s.workload, Name: name, Calls: calls})
	r.mu.Unlock()
	begin := time.Now()
	fn(scope{rec: r, workload: s.workload, parent: id})
	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].StartNS = begin.Sub(r.t0).Nanoseconds()
	r.spans[id-1].EndNS = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
	return end.Sub(begin)
}

// note records a span of one call that ended now and lasted d: a duration a
// layer reported itself rather than one measured around a call.
func (s scope) note(name string, d time.Duration) {
	r := s.rec
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: s.parent, Workload: s.workload, Name: name, StartNS: end - d.Nanoseconds(), EndNS: end, Calls: 1})
	r.mu.Unlock()
}

// perCall returns, for every span of this workload called name, its duration
// divided by its call count, in nanoseconds.
func (s scope) perCall(name string) []float64 {
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.Workload == s.workload && sp.Name == name && sp.Calls > 0 {
			out = append(out, float64(sp.EndNS-sp.StartNS)/float64(sp.Calls))
		}
	}
	return out
}

// p50 is the median per-call time of the spans called name, in the unit whose
// size in nanoseconds is div (1 for ns, 1e3 for µs, 1e6 for ms).
func (s scope) p50(name string, div float64) float64 {
	return percentile(s.perCall(name), 0.5) / div
}
