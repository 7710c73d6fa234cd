// Package rng provides the random-variate samplers used by the workload
// model and the experiment harness: uniform, exponential, Gamma,
// hyper-Gamma, and the two-stage uniform distribution of the
// Lublin-Feitelson model. All samplers draw from a deterministic,
// explicitly-seeded source so simulations are reproducible.
package rng

import (
	"math"
	"math/rand/v2"
)

// Source is a deterministic random source with distribution samplers
// attached. It is not safe for concurrent use; create one Source per
// simulation run.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	// Derive a second word from the first so that nearby seeds produce
	// decorrelated streams (splitmix64 finalizer).
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return &Source{r: rand.New(rand.NewPCG(seed, z))}
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform integer in [0, n).
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Bernoulli reports true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return -mean * math.Log(1-s.r.Float64())
}

// Gamma returns a Gamma(shape, scale) variate (mean shape*scale) using
// the Marsaglia-Tsang squeeze method, with the standard boost for
// shape < 1.
func (s *Source) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := s.r.Float64()
		for u == 0 {
			u = s.r.Float64()
		}
		return s.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = s.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := s.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// HyperGamma returns a variate from the two-component Gamma mixture
// p*Gamma(a1, b1) + (1-p)*Gamma(a2, b2), the runtime distribution of the
// Lublin-Feitelson model.
func (s *Source) HyperGamma(a1, b1, a2, b2, p float64) float64 {
	if s.r.Float64() < p {
		return s.Gamma(a1, b1)
	}
	return s.Gamma(a2, b2)
}

// TwoStageUniform returns a variate from the two-stage uniform
// distribution of the Lublin-Feitelson model: uniform in [lo, med) with
// probability prob, otherwise uniform in [med, hi).
func (s *Source) TwoStageUniform(lo, med, hi, prob float64) float64 {
	if s.r.Float64() < prob {
		return s.Uniform(lo, med)
	}
	return s.Uniform(med, hi)
}

// WeightedChoice returns an index in [0, len(weights)) drawn with
// probability proportional to weights[i]. Weights must be non-negative
// and not all zero.
func (s *Source) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("rng: all weights zero")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
