package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Req    int    `json:"req"`    // request id, -1 for work outside requests
}

// tracer keeps a run's spans in memory; dump writes them out when the run
// ends. Spans are taken only here, in the benchmark, around calls into the
// program's public functions.
//
// Where a layer's inner calls happen inside the program, the benchmark
// cannot time them in place. It then calls each inner layer again directly,
// on the same request and state, right after the outer call, and records
// those calls as the outer span's children. A span's self time is its
// duration minus the summed durations of its children, which for children
// nested inside it is exactly the time they cover.
type tracer struct {
	t0       time.Time
	spans    []span
	children map[int][]int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), children: map[int][]int{}} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	id := len(t.spans) - 1
	if parent >= 0 {
		t.children[parent] = append(t.children[parent], id)
	}
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return t.dur(id)
}

// record adds a finished span measured by the caller.
func (t *tracer) record(name string, parent, req int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Req: req})
	id := len(t.spans) - 1
	if parent >= 0 {
		t.children[parent] = append(t.children[parent], id)
	}
	return id
}

func (t *tracer) dur(id int) time.Duration { return time.Duration(t.spans[id].End - t.spans[id].Start) }

// self is a span's duration minus what its children took.
func (t *tracer) self(id int) time.Duration {
	d := t.dur(id)
	for _, c := range t.children[id] {
		d -= t.dur(c)
	}
	return d
}

func (t *tracer) dump(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
