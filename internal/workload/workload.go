// Package workload generates the job streams fed to the simulated batch
// schedulers. It implements the Lublin-Feitelson rigid-job model
// (Journal of Parallel and Distributed Computing 63(11), 2003), the
// model the paper uses for all Section 3 experiments: Gamma-distributed
// interarrival times ("peak hour" model), a two-stage log-uniform
// number-of-nodes distribution biased towards powers of two, and
// hyper-Gamma runtimes whose mixing probability depends on the number
// of nodes. It also implements the "phi model" of user runtime
// overestimation (Zhang et al., JSSPP 2001) used for the "Real
// Estimates" rows of Table 1.
package workload

import (
	"fmt"
	"math"

	"redreq/internal/rng"
)

// Job is one rigid job: it needs Nodes compute nodes for Runtime
// seconds, requests Estimate seconds (Estimate >= Runtime), and is
// submitted at Arrival seconds.
type Job struct {
	Arrival  float64
	Nodes    int
	Runtime  float64
	Estimate float64
}

// EstimateMode selects how requested compute times relate to actual
// runtimes (Table 1: "Exact Estimates" vs "Real Estimates").
type EstimateMode int

const (
	// Exact requests precisely the actual runtime.
	Exact EstimateMode = iota
	// Phi draws the actual runtime as a uniform fraction in
	// [phi, 1] of the requested time (the phi model), so requested
	// times overestimate actual runtimes.
	Phi
)

func (m EstimateMode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Phi:
		return "phi"
	default:
		return fmt.Sprintf("EstimateMode(%d)", int(m))
	}
}

// Model holds the Lublin-Feitelson model parameters. The zero value is
// not usable; construct with NewModel and override fields as needed.
type Model struct {
	// MaxNodes caps the number of nodes a job may request (the size
	// of the local cluster; Section 3.3 "Heterogeneity": jobs do not
	// request more nodes than their local cluster has).
	MaxNodes int

	// SerialProb is the probability a job is serial (1 node).
	SerialProb float64
	// Pow2Prob is the probability a parallel job size is rounded to
	// the nearest power of two.
	Pow2Prob float64
	// ULow, UMed, UHi, UProb parameterize the two-stage uniform
	// distribution of log2(size) for parallel jobs. UHi defaults to
	// log2(MaxNodes).
	ULow, UMed, UHi, UProb float64

	// A1, B1, A2, B2, PA, PB parameterize the hyper-Gamma runtime
	// distribution: runtime = exp(X) seconds where
	// X ~ p*Gamma(A1,B1) + (1-p)*Gamma(A2,B2) and
	// p = clamp(PA*size + PB, 0, 1).
	A1, B1, A2, B2, PA, PB float64

	// AArr, BArr parameterize the Gamma interarrival distribution
	// (mean AArr*BArr seconds). The model values 10.23 and 0.49 give
	// the 5.01 s peak-hour mean of Section 3.3.
	AArr, BArr float64

	// RuntimeScale multiplies every runtime; it calibrates offered
	// load (see Calibrate). 1 means no scaling.
	RuntimeScale float64
	// MinRuntime and MaxRuntime clamp runtimes, in seconds.
	MinRuntime, MaxRuntime float64

	// EstMode selects exact or phi-model estimates.
	EstMode EstimateMode
	// PhiFactor is the phi of the phi model (0.10 in the paper).
	PhiFactor float64
}

// NewModel returns the "model" parameter values derived by Lublin and
// Feitelson for a cluster with maxNodes nodes.
func NewModel(maxNodes int) *Model {
	return &Model{
		MaxNodes:     maxNodes,
		SerialProb:   0.244,
		Pow2Prob:     0.576,
		ULow:         0.8,
		UMed:         4.5,
		UHi:          math.Log2(float64(maxNodes)),
		UProb:        0.86,
		A1:           4.2,
		B1:           0.94,
		A2:           312,
		B2:           0.03,
		PA:           -0.0054,
		PB:           0.78,
		AArr:         10.23,
		BArr:         0.49,
		RuntimeScale: 1,
		MinRuntime:   1,
		MaxRuntime:   36 * 3600,
		EstMode:      Exact,
		PhiFactor:    0.10,
	}
}

// MeanInterarrival returns the model's mean interarrival time in
// seconds (AArr * BArr).
func (m *Model) MeanInterarrival() float64 { return m.AArr * m.BArr }

// SetMeanInterarrival adjusts AArr so the mean interarrival time is
// iat seconds, keeping BArr fixed (the Figure 3 sweep varies alpha
// from 4 to 20).
func (m *Model) SetMeanInterarrival(iat float64) {
	if iat <= 0 {
		panic("workload: non-positive interarrival time")
	}
	m.AArr = iat / m.BArr
}

// SampleNodes draws a number of nodes in [1, MaxNodes].
func (m *Model) SampleNodes(src *rng.Source) int {
	if src.Bernoulli(m.SerialProb) {
		return 1
	}
	uhi := m.UHi
	if uhi <= m.ULow {
		// Degenerate tiny cluster: everything is nearly serial.
		uhi = m.ULow + 1e-9
	}
	umed := m.UMed
	if umed > uhi {
		umed = uhi
	}
	l := src.TwoStageUniform(m.ULow, umed, uhi, m.UProb)
	var n int
	if src.Bernoulli(m.Pow2Prob) {
		n = 1 << int(math.Round(l))
	} else {
		n = int(math.Round(math.Pow(2, l)))
	}
	if n < 1 {
		n = 1
	}
	if n > m.MaxNodes {
		n = m.MaxNodes
	}
	return n
}

// SampleRuntime draws an actual runtime in seconds for a job of the
// given size.
func (m *Model) SampleRuntime(src *rng.Source, nodes int) float64 {
	p := m.PA*float64(nodes) + m.PB
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	x := src.HyperGamma(m.A1, m.B1, m.A2, m.B2, p)
	rt := math.Exp(x) * m.RuntimeScale
	if rt < m.MinRuntime {
		rt = m.MinRuntime
	}
	if rt > m.MaxRuntime {
		rt = m.MaxRuntime
	}
	return rt
}

// SampleInterarrival draws one interarrival gap in seconds.
func (m *Model) SampleInterarrival(src *rng.Source) float64 {
	return src.Gamma(m.AArr, m.BArr)
}

// Estimate derives the requested compute time for a job with the given
// actual runtime under the model's estimate mode. Under the phi model
// the actual runtime is a uniform fraction in [phi, 1] of the request,
// so the request is runtime/u with u ~ U[phi, 1]; requests always
// cover the actual runtime.
func (m *Model) Estimate(src *rng.Source, runtime float64) float64 {
	switch m.EstMode {
	case Exact:
		return runtime
	case Phi:
		u := src.Uniform(m.PhiFactor, 1)
		return runtime / u
	default:
		panic("workload: unknown estimate mode")
	}
}

// SampleJob draws one complete job arriving at the given time.
func (m *Model) SampleJob(src *rng.Source, arrival float64) Job {
	n := m.SampleNodes(src)
	rt := m.SampleRuntime(src, n)
	return Job{
		Arrival:  arrival,
		Nodes:    n,
		Runtime:  rt,
		Estimate: m.Estimate(src, rt),
	}
}

// GenerateWindow generates all jobs arriving in [0, horizon) seconds.
// The stream it returns has no spare capacity: it is copied once into a
// slice of its exact length, since append's growth would leave up to a
// quarter of a long-lived stream's backing array unused.
func (m *Model) GenerateWindow(src *rng.Source, horizon float64) []Job {
	var jobs []Job
	t := m.SampleInterarrival(src)
	for t < horizon {
		jobs = append(jobs, m.SampleJob(src, t))
		t += m.SampleInterarrival(src)
	}
	if len(jobs) == cap(jobs) {
		return jobs
	}
	exact := make([]Job, len(jobs))
	copy(exact, jobs)
	return exact
}

// OfferedLoad Monte-Carlo-estimates the offered load of the model on a
// cluster with totalNodes nodes: E[nodes*runtime] / (iat * totalNodes).
// A value above 1 means the cluster cannot drain its queue ("peak
// hours").
func (m *Model) OfferedLoad(src *rng.Source, totalNodes, samples int) float64 {
	var work float64
	for i := 0; i < samples; i++ {
		n := m.SampleNodes(src)
		work += float64(n) * m.SampleRuntime(src, n)
	}
	work /= float64(samples)
	return work / (m.MeanInterarrival() * float64(totalNodes))
}

// calibrateIters caps CalibrateClamped's fixed-point steps, each of
// which measures the offered load on a fresh batch of samples.
const calibrateIters = 12

// CalibrateClamped sets RuntimeScale so the offered load (measured
// with the Min/MaxRuntime clamps applied) is approximately targetLoad.
// Because clamping makes load a nonlinear function of scale, it
// iterates a few fixed-point steps; it returns the chosen scale. Note
// that MinRuntime bounds the achievable load from below (with every
// runtime at the floor the load cannot drop further), so targets below
// that bound converge to the bound instead. Calibration makes absolute
// stretch levels comparable to the paper's regime while leaving all
// relative metrics unaffected.
func (m *Model) CalibrateClamped(src *rng.Source, totalNodes int, targetLoad float64, samples int) float64 {
	m.RuntimeScale = 1
	for iter := 0; iter < calibrateIters; iter++ {
		rho := m.OfferedLoad(src, totalNodes, samples)
		if rho <= 0 {
			panic("workload: calibration measured zero load")
		}
		ratio := targetLoad / rho
		if ratio > 0.99 && ratio < 1.01 {
			break
		}
		m.RuntimeScale *= ratio
	}
	return m.RuntimeScale
}

// Validate checks parameter sanity and returns an error describing the
// first problem found.
func (m *Model) Validate() error {
	switch {
	case m.MaxNodes < 1:
		return fmt.Errorf("workload: MaxNodes %d < 1", m.MaxNodes)
	case m.SerialProb < 0 || m.SerialProb > 1:
		return fmt.Errorf("workload: SerialProb %v outside [0,1]", m.SerialProb)
	case m.Pow2Prob < 0 || m.Pow2Prob > 1:
		return fmt.Errorf("workload: Pow2Prob %v outside [0,1]", m.Pow2Prob)
	case m.UProb < 0 || m.UProb > 1:
		return fmt.Errorf("workload: UProb %v outside [0,1]", m.UProb)
	case m.AArr <= 0 || m.BArr <= 0:
		return fmt.Errorf("workload: non-positive interarrival Gamma parameters")
	case m.A1 <= 0 || m.B1 <= 0 || m.A2 <= 0 || m.B2 <= 0:
		return fmt.Errorf("workload: non-positive runtime Gamma parameters")
	case m.RuntimeScale <= 0:
		return fmt.Errorf("workload: RuntimeScale %v <= 0", m.RuntimeScale)
	case m.MinRuntime < 0 || m.MaxRuntime < m.MinRuntime:
		return fmt.Errorf("workload: bad runtime clamp [%v, %v]", m.MinRuntime, m.MaxRuntime)
	case m.PhiFactor <= 0 || m.PhiFactor > 1:
		return fmt.Errorf("workload: PhiFactor %v outside (0,1]", m.PhiFactor)
	}
	return nil
}
