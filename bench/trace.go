package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is the index of the span
// that caused this one (-1 for a root); Op numbers the logical operation
// (replication, pass, request, pair) every span of it shares.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. It is not safe for
// concurrent use: each closed-loop caller records into its own fork and
// the forks are merged once the callers have stopped. Every method is a
// no-op on a nil tracer, so the untraced run executes the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// fork returns an empty tracer sharing t's epoch, with room for capacity
// spans so the timed loop does not grow the buffer (nil for nil).
func (t *tracer) fork(capacity int) *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch, spans: make([]span, 0, capacity)}
}

// merge appends the forks' spans, re-basing their parent indices.
func (t *tracer) merge(forks ...*tracer) {
	if t == nil {
		return
	}
	for _, f := range forks {
		base := len(t.spans)
		for _, s := range f.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.spans = append(t.spans, s)
		}
	}
}

// begin opens a span now and returns its index for end and for use as a
// parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// add records a span whose times were taken by someone else (the
// registry reports each spec's own wall time through a callback).
func (t *tracer) add(name string, start time.Time, d time.Duration, parent, op int) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Op: op})
}

// durationsMS returns the duration in milliseconds of every span called
// name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// spanSummary is the per-name digest printed after a traced run.
type spanSummary struct {
	name           string
	n              int
	p50MS, selfP50 float64
}

// summarize digests the spans by name: count, median duration, and
// median self time (duration minus the part child spans cover).
func (t *tracer) summarize() []spanSummary {
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	var names []string
	for i, s := range t.spans {
		if _, seen := dur[s.Name]; !seen {
			names = append(names, s.Name)
		}
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e6)
		self[s.Name] = append(self[s.Name], float64(selfTime(interval{s.Start, s.End}, children[i]))/1e6)
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = spanSummary{name: n, n: len(dur[n]), p50MS: median(dur[n]), selfP50: median(self[n])}
	}
	return out
}

// traceFileSpans caps the span file: the deep TCP workload records over
// half a million spans, and the per-layer numbers are computed from the
// in-memory list, not from the file.
const traceFileSpans = 100000

// write stores the first traceFileSpans spans (and how many were left
// out) as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	keep := t.spans
	if len(keep) > traceFileSpans {
		keep = keep[:traceFileSpans]
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, seed, len(t.spans) - len(keep), keep})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
