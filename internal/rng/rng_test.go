package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 1000; i++ {
		if a2.Float64() == c.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(1)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", v)
		}
	}
}

// moments estimates the sample mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := draw()
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return
}

func TestExponentialMoments(t *testing.T) {
	s := New(2)
	mean, variance := moments(200000, func() float64 { return s.Exponential(5) })
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~5", mean)
	}
	if math.Abs(variance-25) > 1.5 {
		t.Errorf("exponential variance = %v, want ~25", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	cases := []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {4.2, 0.94}, {10.23, 0.49}, {312, 0.03},
	}
	s := New(3)
	for _, c := range cases {
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		mean, variance := moments(200000, func() float64 { return s.Gamma(c.shape, c.scale) })
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.02 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ~%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
			t.Errorf("Gamma(%v,%v) variance = %v, want ~%v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	s := New(4)
	for i := 0; i < 50000; i++ {
		if v := s.Gamma(0.3, 1); v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Gamma(0.3,1) produced %v", v)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	s := New(5)
	for _, c := range []struct{ shape, scale float64 }{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v,%v) did not panic", c.shape, c.scale)
				}
			}()
			s.Gamma(c.shape, c.scale)
		}()
	}
}

func TestHyperGammaMixture(t *testing.T) {
	s := New(6)
	// With p=1 only the first component is drawn; with p=0 only the
	// second. Means must match the respective Gammas.
	mean1, _ := moments(100000, func() float64 { return s.HyperGamma(4, 1, 100, 1, 1) })
	if math.Abs(mean1-4) > 0.2 {
		t.Errorf("HyperGamma p=1 mean = %v, want ~4", mean1)
	}
	mean0, _ := moments(100000, func() float64 { return s.HyperGamma(4, 1, 100, 1, 0) })
	if math.Abs(mean0-100) > 2 {
		t.Errorf("HyperGamma p=0 mean = %v, want ~100", mean0)
	}
	meanHalf, _ := moments(200000, func() float64 { return s.HyperGamma(4, 1, 100, 1, 0.5) })
	if math.Abs(meanHalf-52) > 2 {
		t.Errorf("HyperGamma p=0.5 mean = %v, want ~52", meanHalf)
	}
}

func TestTwoStageUniform(t *testing.T) {
	s := New(7)
	lowCount := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.TwoStageUniform(1, 3, 9, 0.7)
		if v < 1 || v >= 9 {
			t.Fatalf("TwoStageUniform out of range: %v", v)
		}
		if v < 3 {
			lowCount++
		}
	}
	frac := float64(lowCount) / n
	if math.Abs(frac-0.7) > 0.01 {
		t.Errorf("low-stage fraction = %v, want ~0.7", frac)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bernoulli(0.25) rate = %v", frac)
	}
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(9)
	weights := []float64{1, 2, 0, 5}
	counts := make([]int, len(weights))
	const n = 80000
	for i := 0; i < n; i++ {
		counts[s.WeightedChoice(weights)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[2])
	}
	total := 8.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency = %v, want ~%v", i, got, want)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	s := New(10)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedChoice(%v) did not panic", w)
				}
			}()
			s.WeightedChoice(w)
		}()
	}
}
