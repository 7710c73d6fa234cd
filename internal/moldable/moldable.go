// Package moldable holds the speedup model behind option (iv) of the
// paper's Section 2, which the paper leaves as future work: redundant batch requests for
// *moldable* jobs, which can run on different numbers of nodes. A user
// submits several requests for the same job with different node counts
// (and correspondingly different compute times) to a single batch
// queue; whichever request starts first wins and the others are
// canceled, resolving the paper's "conundrum" — should one wait longer
// for more nodes, or start sooner on fewer?
//
// Runtimes across node counts follow an Amdahl-style speedup model:
// a job with sequential fraction s and single-node work W runs in
// T(n) = W*(s + (1-s)/n) on n nodes. Requesting more nodes shortens
// execution but typically lengthens queueing, which is exactly the
// trade-off redundant shape variants sidestep. The experiment package's
// moldable spec runs the scenario.
package moldable

import (
	"fmt"
	"math"

	"redreq/internal/rng"
)

// SpeedupModel maps node counts to execution times for one job.
type SpeedupModel struct {
	// Work is the single-node execution time in seconds (W).
	Work float64
	// SeqFraction is the Amdahl sequential fraction s in [0, 1].
	SeqFraction float64
}

// Time returns the execution time on n nodes.
func (m SpeedupModel) Time(n int) float64 {
	if n < 1 {
		panic("moldable: non-positive node count")
	}
	return m.Work * (m.SeqFraction + (1-m.SeqFraction)/float64(n))
}

// Speedup returns Work / Time(n).
func (m SpeedupModel) Speedup(n int) float64 { return m.Work / m.Time(n) }

// Efficiency returns Speedup(n) / n.
func (m SpeedupModel) Efficiency(n int) float64 { return m.Speedup(n) / float64(n) }

// FromObservation reconstructs a model from one observed point: a job
// that runs in t seconds on n nodes with sequential fraction s.
func FromObservation(n int, t, s float64) (SpeedupModel, error) {
	if n < 1 || t <= 0 || s < 0 || s > 1 {
		return SpeedupModel{}, fmt.Errorf("moldable: bad observation n=%d t=%v s=%v", n, t, s)
	}
	denom := s + (1-s)/float64(n)
	return SpeedupModel{Work: t / denom, SeqFraction: s}, nil
}

// Variant is one (nodes, time) shape of a moldable job.
type Variant struct {
	Nodes int
	Time  float64
}

// Variants enumerates request shapes for the job: the base node count
// n0 plus up to extra smaller (n0/2, n0/4, ...) and larger (2*n0,
// 4*n0, ...) powers-of-two alternatives, clamped to [1, maxNodes].
// Shapes whose efficiency falls below minEfficiency are dropped, the
// usual guard against wasteful wide allocations.
func (m SpeedupModel) Variants(n0, maxNodes, extra int, minEfficiency float64) []Variant {
	if n0 < 1 || maxNodes < 1 {
		panic("moldable: bad node counts")
	}
	if n0 > maxNodes {
		n0 = maxNodes
	}
	seen := map[int]bool{}
	add := func(out []Variant, n int) []Variant {
		if n < 1 || n > maxNodes || seen[n] {
			return out
		}
		if n != n0 && m.Efficiency(n) < minEfficiency {
			return out
		}
		seen[n] = true
		return append(out, Variant{Nodes: n, Time: m.Time(n)})
	}
	out := add(nil, n0)
	down, up := n0/2, n0*2
	for i := 0; i < extra; i++ {
		out = add(out, down)
		out = add(out, up)
		down /= 2
		up *= 2
	}
	return out
}

// RandomSeqFraction draws a plausible sequential fraction: most
// parallel batch jobs scale well, so s concentrates near 0 (drawn as
// s = u^2 * 0.3 for u uniform, i.e. in [0, 0.3] biased small).
func RandomSeqFraction(src *rng.Source) float64 {
	u := src.Float64()
	return u * u * 0.3
}

// Validate checks the model.
func (m SpeedupModel) Validate() error {
	switch {
	case m.Work <= 0 || math.IsNaN(m.Work) || math.IsInf(m.Work, 0):
		return fmt.Errorf("moldable: bad work %v", m.Work)
	case m.SeqFraction < 0 || m.SeqFraction > 1:
		return fmt.Errorf("moldable: sequential fraction %v outside [0,1]", m.SeqFraction)
	}
	return nil
}
