package stats

import (
	"math"
	"sort"
	"testing"

	"redreq/internal/rng"
)

// checkSketchAccuracy inserts the sample and asserts every queried
// percentile lands within the sketch's relative-error guarantee of the
// exact order statistics bracketing that rank.
func checkSketchAccuracy(t *testing.T, name string, xs []float64, alpha float64) {
	t.Helper()
	s := NewSketch(alpha)
	for _, x := range xs {
		s.Add(x)
	}
	if s.Count() != uint64(len(xs)) {
		t.Fatalf("%s: count %d, want %d", name, s.Count(), len(xs))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		got := s.Quantile(p)
		idx := p / 100 * float64(len(xs)-1)
		lo := sorted[int(math.Floor(idx))]
		hi := sorted[int(math.Ceil(idx))]
		// The sketch answers for the order statistic at round(idx),
		// which is lo or hi; either way the bound below must hold.
		lower, upper := (1-alpha)*lo, (1+alpha)*hi
		if lo < sketchMin {
			lower = 0
		}
		if got < lower-1e-12 || got > upper+1e-12 {
			t.Fatalf("%s: p%.1f = %v outside [%v, %v] (exact %v..%v, alpha %v)",
				name, p, got, lower, upper, lo, hi, alpha)
		}
		// Cross-check against the package's exact Percentile oracle:
		// the interpolated value also lies in [lo, hi], so sketch and
		// oracle agree within the same relative band.
		if ex := Percentile(xs, p); ex < lo-1e-12 || ex > hi+1e-12 {
			t.Fatalf("%s: oracle p%.1f = %v outside exact bracket [%v, %v]", name, p, ex, lo, hi)
		}
	}
}

func TestSketchAccuracyAcrossDistributions(t *testing.T) {
	src := rng.New(7)
	const n = 20000
	uniform := make([]float64, n)
	expo := make([]float64, n)
	heavy := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = src.Uniform(0.5, 1000)
		expo[i] = src.Exponential(120)
		// Pareto-style heavy tail spanning many decades, the stretch
		// distribution's shape.
		heavy[i] = math.Pow(1-src.Float64(), -1.5)
	}
	for _, alpha := range []float64{0.01, 0.05} {
		checkSketchAccuracy(t, "uniform", uniform, alpha)
		checkSketchAccuracy(t, "exponential", expo, alpha)
		checkSketchAccuracy(t, "heavy", heavy, alpha)
	}
}

func TestSketchZeroAndSmallValues(t *testing.T) {
	s := NewSketch(0.01)
	for i := 0; i < 10; i++ {
		s.Add(0)
	}
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	if got := s.Quantile(25); got != 0 {
		t.Fatalf("p25 = %v, want 0 (zero bucket)", got)
	}
	if got := s.Quantile(90); math.Abs(got-100) > 1.01 {
		t.Fatalf("p90 = %v, want ~100", got)
	}
}

func TestSketchNaNPoisons(t *testing.T) {
	s := NewSketch(0.05)
	s.Add(1)
	s.Add(math.NaN())
	if !math.IsNaN(s.Quantile(50)) {
		t.Fatal("NaN did not poison the sketch")
	}
	o := NewSketch(0.05)
	o.Add(2)
	o.Merge(s)
	if !math.IsNaN(o.Quantile(50)) {
		t.Fatal("NaN did not survive a merge")
	}
}

// TestSketchQuantileOutOfRange clamps p into [0, 100] and answers NaN
// for a NaN p; an unchecked float-to-uint64 rank once sent p = -50 and
// NaN to the maximum.
func TestSketchQuantileOutOfRange(t *testing.T) {
	s := NewSketch(0.01)
	for _, x := range []float64{1, 2, 3, 4, 1000} {
		s.Add(x)
	}
	for _, c := range []struct{ p, near float64 }{
		{-50, 1}, {math.Inf(-1), 1}, {-1e300, 1}, {0, 1},
		{100, 1000}, {150, 1000}, {math.Inf(1), 1000}, {1e300, 1000},
		{math.NaN(), math.NaN()},
	} {
		got := s.Quantile(c.p)
		if math.IsNaN(c.near) {
			if !math.IsNaN(got) {
				t.Errorf("Quantile(%v) = %v, want NaN", c.p, got)
			}
			continue
		}
		if math.Abs(got-c.near) > 0.01*c.near {
			t.Errorf("Quantile(%v) = %v, want %v ± 1 %%", c.p, got, c.near)
		}
	}
	if got := NewSketch(0.01).Quantile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("empty sketch: Quantile(NaN) = %v, want NaN", got)
	}
}

// TestSketchEachBucket requires the buckets in ascending order, each
// bounding its values from above, with counts summing to Count.
func TestSketchEachBucket(t *testing.T) {
	s := NewSketch(0.02)
	xs := []float64{0, 0, 1e-3, 1e-3, 0.5, 1, 1, 7, 7, 7, 1e6}
	for _, x := range xs {
		s.Add(x)
	}
	var les []float64
	var n uint64
	s.EachBucket(func(le float64, c uint64) {
		les = append(les, le)
		n += c
	})
	if n != s.Count() {
		t.Fatalf("buckets hold %d values, Count %d", n, s.Count())
	}
	if !sort.Float64sAreSorted(les) || len(les) != 6 {
		t.Fatalf("bucket bounds %v, want 6 ascending", les)
	}
	if les[0] != sketchMin {
		t.Fatalf("zero bucket bounded by %v, want %v", les[0], sketchMin)
	}
	// Each value lies at most its bucket's bound and above the bound
	// one bucket down.
	for i, x := range []float64{1e-3, 0.5, 1, 7, 1e6} {
		if le := les[i+1]; x > le*(1+1e-12) || x <= le/s.gamma*(1-1e-12) {
			t.Fatalf("value %v in the bucket (%v, %v]", x, le/s.gamma, le)
		}
	}
}

func TestSketchMergeOrderInvariance(t *testing.T) {
	src := rng.New(99)
	parts := make([]*Sketch, 8)
	for i := range parts {
		parts[i] = NewSketch(0.02)
		for j := 0; j < 2500; j++ {
			parts[i].Add(src.Exponential(60) + float64(i))
		}
	}
	quantiles := func(order []int) []float64 {
		m := NewSketch(0.02)
		for _, i := range order {
			m.Merge(parts[i])
		}
		out := make([]float64, 0, 11)
		for p := 0.0; p <= 100; p += 10 {
			out = append(out, m.Quantile(p))
		}
		return out
	}
	base := quantiles([]int{0, 1, 2, 3, 4, 5, 6, 7})
	perms := [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 7, 1, 6, 2, 5, 4},
		{1, 3, 5, 7, 0, 2, 4, 6},
	}
	for _, perm := range perms {
		got := quantiles(perm)
		for k := range base {
			if base[k] != got[k] {
				t.Fatalf("merge order %v changed quantile %d: %v vs %v", perm, k, base[k], got[k])
			}
		}
	}
}

func TestSketchMergeMatchesSingle(t *testing.T) {
	src := rng.New(3)
	all := NewSketch(0.02)
	parts := []*Sketch{NewSketch(0.02), NewSketch(0.02), NewSketch(0.02)}
	for i := 0; i < 9000; i++ {
		x := src.Uniform(1, 1e6)
		all.Add(x)
		parts[i%3].Add(x)
	}
	merged := NewSketch(0.02)
	for _, p := range parts {
		merged.Merge(p)
	}
	for p := 0.0; p <= 100; p += 5 {
		if a, b := all.Quantile(p), merged.Quantile(p); a != b {
			t.Fatalf("p%v: single-sketch %v != merged %v", p, a, b)
		}
	}
}

func TestSketchAlphaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched alphas did not panic")
		}
	}()
	NewSketch(0.01).Merge(NewSketch(0.05))
}

func TestMomentsMatchExact(t *testing.T) {
	src := rng.New(11)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = src.Exponential(42)
		m.Add(xs[i])
	}
	if m.N != 5000 {
		t.Fatalf("N = %d", m.N)
	}
	if got, want := m.Mean(), Mean(xs); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("mean %v, want %v", got, want)
	}
	if got, want := m.Min(), Min(xs); got != want {
		t.Fatalf("min %v, want %v", got, want)
	}
	if got, want := m.Max(), Max(xs); got != want {
		t.Fatalf("max %v, want %v", got, want)
	}
	if got, want := m.StdDev(), StdDev(xs); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("stddev %v, want %v", got, want)
	}
}

func TestMomentsMerge(t *testing.T) {
	var a, b, all Moments
	for i := 1; i <= 10; i++ {
		x := float64(i * i)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	var m Moments
	m.Merge(&a)
	m.Merge(&b)
	m.Merge(nil)
	m.Merge(&Moments{})
	if m.N != all.N || m.Sum != all.Sum || m.SumSq != all.SumSq ||
		m.Min() != all.Min() || m.Max() != all.Max() {
		t.Fatalf("merged moments %+v != direct %+v", m, all)
	}
	var empty Moments
	if empty.Mean() != 0 || empty.StdDev() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Fatal("empty moments not all zero")
	}
}
