package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almost(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v", got)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2
	if got := CV(xs); !almost(got, 40) {
		t.Errorf("CV = %v, want 40", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 9, 4}
	if Max(xs) != 9 || Min(xs) != -2 {
		t.Errorf("Max/Min = %v/%v", Max(xs), Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty Max/Min should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {150, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of empty = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

// Property: CV is scale-invariant and Mean is linear.
func TestQuickProperties(t *testing.T) {
	f := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1 // positive
		}
		scale := float64(scaleRaw%9) + 1
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * scale
		}
		if math.Abs(CV(scaled)-CV(xs)) > 1e-6*math.Abs(CV(xs))+1e-9 {
			return false
		}
		return math.Abs(Mean(scaled)-scale*Mean(xs)) < 1e-6*Mean(scaled)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Min <= Percentile(p) <= Max and Percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNaNDeterminism pins the NaN contract: any NaN in the sample makes
// every aggregate NaN, independent of where the NaN sits, down to the
// bits. Before this was defined, sort.Float64s gave NaNs no total
// order, so the same sample could yield different percentiles across
// input permutations.
func TestNaNDeterminism(t *testing.T) {
	nan := math.NaN()
	perms := [][]float64{
		{nan, 1, 2, 3, 4, 5},
		{1, 2, nan, 3, 4, 5},
		{1, 2, 3, 4, 5, nan},
	}
	for name, f := range map[string]func([]float64) float64{
		"Mean":   Mean,
		"StdDev": StdDev,
		"Min":    Min,
		"Max":    Max,
		"CV":     CV,
		"Median": func(v []float64) float64 { return Percentile(v, 50) },
		"P90":    func(v []float64) float64 { return Percentile(v, 90) },
	} {
		base := f(perms[0])
		for _, xs := range perms {
			got := f(xs)
			if !math.IsNaN(got) {
				t.Errorf("%s(%v) = %v, want NaN", name, xs, got)
			} else if math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("%s(%v) = NaN %#x, differs from %#x on %v", name, xs, math.Float64bits(got), math.Float64bits(base), perms[0])
			}
		}
	}
}

// TestPercentileNaNFree checks the NaN guard leaves clean samples
// untouched and does not mutate the caller's slice.
func TestPercentileNaNFree(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}
