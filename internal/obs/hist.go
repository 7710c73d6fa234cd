// Latency histogram: a stats.Sketch for quantiles and stats.Moments for
// the exact count, sum and extrema, under one mutex.

package obs

import (
	"math"
	"sync"

	"redreq/internal/stats"
)

// histAlpha is every histogram's relative accuracy: a quantile lies
// within 1 % of an exact order statistic of the observations.
const histAlpha = 0.01

// Histogram records float64 observations (seconds). Quantiles come from
// a mergeable sketch, so pooled histograms answer the same whatever the
// merge order; count, sum, min and max are exact.
type Histogram struct {
	mu sync.Mutex
	sk *stats.Sketch
	m  stats.Moments
}

// NewHistogram returns an empty histogram, for callers that record
// latencies outside a Trace.
func NewHistogram() *Histogram {
	return &Histogram{sk: stats.NewSketch(histAlpha)}
}

// Observe records one value. No-op on a nil receiver; NaN is dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	h.sk.Add(v)
	h.m.Add(v)
	h.mu.Unlock()
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(h.m.N)
}

// Sum returns the sum of observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m.Sum
}

// Mean returns the mean observation, or NaN when empty or nil.
func (h *Histogram) Mean() float64 {
	return h.read(func() float64 { return h.m.Mean() })
}

// Min returns the smallest observation, or NaN when empty or nil.
func (h *Histogram) Min() float64 {
	return h.read(func() float64 { return h.m.MinVal })
}

// Max returns the largest observation, or NaN when empty or nil.
func (h *Histogram) Max() float64 {
	return h.read(func() float64 { return h.m.MaxVal })
}

// Quantile estimates the q-quantile (q in [0,1]): the sketch's value,
// within 1 % of the order statistic at rank round(q*(n-1)), clamped to
// the exact min and max. NaN when empty, nil or q is NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) {
		return math.NaN()
	}
	return h.read(func() float64 { return h.quantile(q) })
}

// read returns f() under the lock, or NaN when h is nil or empty.
func (h *Histogram) read(f func() float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m.N == 0 {
		return math.NaN()
	}
	return f()
}

// quantile is Quantile on a non-empty histogram whose lock is held.
func (h *Histogram) quantile(q float64) float64 {
	return min(max(h.sk.Quantile(q*100), h.m.MinVal), h.m.MaxVal)
}

// snap exports the histogram under one lock, so its summary and buckets
// describe the same observations.
func (h *Histogram) snap(name string) HistSnap {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := HistSnap{Name: name, Count: int64(h.m.N), Sum: h.m.Sum}
	// JSON cannot carry NaN; an empty histogram's summary stays zero.
	if h.m.N > 0 {
		hs.Min, hs.Max, hs.Mean = h.m.MinVal, h.m.MaxVal, h.m.Mean()
		hs.P50, hs.P95, hs.P99 = h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
	}
	h.sk.EachBucket(func(le float64, n uint64) {
		hs.Buckets = append(hs.Buckets, BucketSnap{Le: le, Count: int64(n)})
	})
	return hs
}

// merge pools src's observations into h. It copies src under src's
// lock and folds the copy in under h's, never holding both.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	sk := stats.NewSketch(histAlpha)
	src.mu.Lock()
	sk.Merge(src.sk)
	m := src.m
	src.mu.Unlock()
	h.mu.Lock()
	h.sk.Merge(sk)
	h.m.Merge(&m)
	h.mu.Unlock()
}
