// Package obs is the observability layer of the simulator and the real
// daemon paths: monotonic counters, gauges with high-water marks,
// latency histograms, and virtual-time series samplers, collected under
// a per-run Trace. A histogram's quantiles come from stats.Sketch, the
// mergeable 1 %-accurate sketch the metrics use, so a merged trace's
// percentiles do not depend on the order its runs were folded in.
//
// Every type is safe for concurrent use, and every method is a no-op on
// a nil receiver, so instrumented code pays only a nil check when
// tracing is disabled:
//
//	var tr *obs.Trace            // nil: tracing off
//	c := tr.Counter("des.fired") // c == nil
//	c.Inc()                      // no-op
//
// Hot paths should resolve instruments once (at setup) and hold the
// returned pointers rather than calling Trace.Counter per event.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks an instantaneous level and its high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current level and raises the high-water mark if
// needed. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Add shifts the level by delta and returns the new value (0 on a nil
// receiver).
func (g *Gauge) Add(delta int64) int64 {
	if g == nil {
		return 0
	}
	v := g.v.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return v
		}
	}
}

// Value returns the current level; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark; 0 on a nil receiver.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Trace is a named registry of instruments for one run. Instruments are
// created on first use and live for the trace's lifetime. A nil *Trace
// is the disabled state: lookups return nil instruments whose methods
// no-op.
type Trace struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// New returns an empty enabled trace.
func New() *Trace {
	return &Trace{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// Counter returns the named counter, creating it if needed; nil on a
// nil receiver.
func (t *Trace) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters[name]
	if c == nil {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed; nil on a nil
// receiver.
func (t *Trace) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.gauges[name]
	if g == nil {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed; nil on
// a nil receiver.
func (t *Trace) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = NewHistogram()
		t.hists[name] = h
	}
	return h
}

// Series returns the named series, creating it if needed; nil on a nil
// receiver.
func (t *Trace) Series(name string) *Series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.series[name]
	if s == nil {
		s = newSeries()
		t.series[name] = s
	}
	return s
}

// Merge folds src into t: counters add, gauge high-water marks take the
// maximum, histograms pool their observations, and series pool their points
// (time-sorted). It is safe to merge concurrently from several
// goroutines, the aggregation pattern of parallel replications. Merging
// from or into nil is a no-op.
func (t *Trace) Merge(src *Trace) {
	if t == nil || src == nil {
		return
	}
	for name, c := range src.snapshotCounters() {
		t.Counter(name).Add(c)
	}
	for name, g := range src.snapshotGauges() {
		dst := t.Gauge(name)
		dst.Set(g.max) // raises the mark; level is meaningless post-run
	}
	src.mu.Lock()
	hists := make(map[string]*Histogram, len(src.hists))
	for name, h := range src.hists {
		hists[name] = h
	}
	series := make(map[string]*Series, len(src.series))
	for name, s := range src.series {
		series[name] = s
	}
	src.mu.Unlock()
	for name, h := range hists {
		t.Histogram(name).merge(h)
	}
	for name, s := range series {
		t.Series(name).merge(s)
	}
}

func (t *Trace) snapshotCounters() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for name, c := range t.counters {
		out[name] = c.Value()
	}
	return out
}

type gaugeSnap struct{ value, max int64 }

func (t *Trace) snapshotGauges() map[string]gaugeSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]gaugeSnap, len(t.gauges))
	for name, g := range t.gauges {
		out[name] = gaugeSnap{g.Value(), g.Max()}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
