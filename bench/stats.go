package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method:
// the i-th cut sits at position i*(n+1)/4 of the sorted sample, linearly
// interpolated and clamped to the data). The driver that judges this
// benchmark computes its inter-quartile spread that way, so -selfcheck
// must too. Fewer than two values have no quartiles: all three are NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// rank is the nearest-rank position (1-based) of the pm-th per-mille
// point in n sorted samples, in integer arithmetic so that 99.9% of
// 10000 is exactly 9990.
func rank(n, pm int) int {
	return min(max((n*pm+999)/1000, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100, to
// a tenth of a percent).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), int(math.Round(p*10)))-1]
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail picks the highest percentile of the ladder that still has at
// least ten samples beyond it (a p99 over 60 samples is one outlier,
// not a percentile) and returns it with its value. With fewer than 40
// samples even p75 fails the rule; p is then 0 and v the maximum.
func tail(xs []float64) (p, v float64) {
	for _, p := range tailLadder {
		if len(xs)-rank(len(xs), int(math.Round(p*10))) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 0, percentile(xs, 100)
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its child
// spans cover. Children may overlap one another (two callers under one
// parent) and may stick out of the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTime(parent interval, children []interval) int64 {
	total := parent.end - parent.start
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, edge int64 = 0, parent.start
	for _, c := range cs {
		if c.end <= edge {
			continue
		}
		if c.start > edge {
			edge = c.start
		}
		covered += c.end - edge
		edge = c.end
	}
	return total - covered
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
