package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced pass. Spans are recorded only
// from this package, around the calls into each layer; Parent is the ID of
// the enclosing span, -1 at a workload's root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(workload, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: workload,
		StartNS: time.Since(t.origin).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNS = time.Since(t.origin).Nanoseconds() }

// add records an interval measured elsewhere (the set-up phases and the
// kernel run, which an operation times itself) as a closed span, and
// returns its ID.
func (t *tracer) add(workload, name string, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Workload: workload,
		StartNS: s, EndNS: s + d.Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
