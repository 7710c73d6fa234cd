// Package stats provides the descriptive statistics used throughout the
// evaluation: mean, standard deviation, coefficient of variation,
// extremes and percentiles over replicated experiments.
//
// NaN handling is deterministic across all aggregates: a sample that
// contains any NaN yields NaN from Mean, StdDev, CV, Min, Max, and
// Percentile, with the same bits wherever the NaN sits. Mean and
// StdDev propagate NaN through arithmetic naturally; Min, Max, and
// Percentile check explicitly, because comparison- and sort-based
// reductions would otherwise give NaNs no total order and make the
// result depend on the input permutation — the same sample could
// report different percentiles across runs, breaking byte-determinism
// downstream.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation of xs as a percentage
// (stddev/mean * 100), the fairness metric of the paper (Section 3.2).
// It returns 0 when the mean is zero.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m * 100
}

// Max returns the maximum of xs, 0 for an empty slice, or NaN when the
// sample contains a NaN (position-independent, unlike a bare
// comparison loop).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, 0 for an empty slice, or NaN when the
// sample contains a NaN.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x < m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and NaN when the sample contains a NaN: sort.Float64s gives
// NaNs no total order, so sorting a NaN-laced sample would otherwise
// yield permutation-dependent — nondeterministic — percentiles.
// Production code summarizes on Sketch, which keeps no sample;
// Percentile is the exact reference its tests compare against.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	for _, x := range sorted {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
