// Cached calibration: CalibrateClamped draws hundreds of thousands of
// reference jobs from a fixed seed on every call, and the registry
// calibrates the same handful of target loads over and over. The
// draws themselves do not depend on the runtime scale being searched
// for — scale only multiplies and clamps them afterwards — so the raw
// (nodes, exp(x)) pairs can be taped once per (model, seed) and
// replayed for every target load, reproducing CalibrateClamped's
// result bit for bit at a fraction of the sampling cost.

package workload

import (
	"math"
	"slices"
	"sync"

	"redreq/internal/rng"
)

// calTapeKey identifies one tape: the seed plus every model parameter
// that influences the raw draws (node-size distribution and the
// hyper-Gamma runtime exponent). RuntimeScale, the runtime clamps,
// and the interarrival parameters are deliberately absent — they only
// enter calibration after the draw, during replay.
type calTapeKey struct {
	seed                   uint64
	maxNodes               int
	serialProb, pow2Prob   float64
	uLow, uMed, uHi, uProb float64
	a1, b1, a2, b2, pa, pb float64
}

// calTape is the recorded raw sample stream for one key, extended
// lazily batch by batch as calibrations consume iterations.
type calTape struct {
	mu    sync.Mutex
	src   *rng.Source
	model Model // draw parameters only; clamps are applied at replay
	// nodes holds whole node counts, which float32 stores exactly.
	nodes []float32
	raw   []float64 // exp(x), the runtime before scaling and clamping
}

// ensure extends the tape to at least n samples, drawing in exactly
// the order OfferedLoad does: SampleNodes, then the hyper-Gamma
// runtime exponent. This loop must stay in lockstep with
// Model.SampleRuntime's draw (see TestCalibrateClampedCached).
func (t *calTape) ensure(n int) {
	if grow := n - len(t.raw); grow > 0 {
		// Grown once per batch to about the size it needs; append
		// alone would regrow the slices several times per batch and
		// leave them with up to twice the capacity they use.
		t.nodes = slices.Grow(t.nodes, grow)
		t.raw = slices.Grow(t.raw, grow)
	}
	for len(t.raw) < n {
		nodes := t.model.SampleNodes(t.src)
		p := t.model.PA*float64(nodes) + t.model.PB
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		x := t.src.HyperGamma(t.model.A1, t.model.B1, t.model.A2, t.model.B2, p)
		t.nodes = append(t.nodes, float32(nodes))
		t.raw = append(t.raw, math.Exp(x))
	}
}

var (
	calTapesMu sync.Mutex
	calTapes   = map[calTapeKey]*calTape{}
)

func (m *Model) calTapeKey(seed uint64) calTapeKey {
	return calTapeKey{
		seed:       seed,
		maxNodes:   m.MaxNodes,
		serialProb: m.SerialProb, pow2Prob: m.Pow2Prob,
		uLow: m.ULow, uMed: m.UMed, uHi: m.UHi, uProb: m.UProb,
		a1: m.A1, b1: m.B1, a2: m.A2, b2: m.B2, pa: m.PA, pb: m.PB,
	}
}

// CalibrateClampedCached is a drop-in replacement for
//
//	m.CalibrateClamped(rng.New(seed), totalNodes, targetLoad, samples)
//
// that memoizes the expensive part process-wide: the raw draws are
// taped once per (model, seed) and replayed for every target load.
// Finished scales are not cached here; a caller that asks for the same
// one repeatedly keeps it (core's calibratedScale does). The returned
// scale — and the RuntimeScale side effect on m — is bit-identical to
// the direct computation. Safe for concurrent use.
func (m *Model) CalibrateClampedCached(seed uint64, totalNodes int, targetLoad float64, samples int) float64 {
	if m.MaxNodes > 1<<24 {
		// The tape's float32 node counts are exact only up to 2^24.
		return m.CalibrateClamped(rng.New(seed), totalNodes, targetLoad, samples)
	}
	tkey := m.calTapeKey(seed)
	calTapesMu.Lock()
	t := calTapes[tkey]
	if t == nil {
		t = &calTape{src: rng.New(seed), model: *m}
		calTapes[tkey] = t
	}
	calTapesMu.Unlock()

	// Replay CalibrateClamped/OfferedLoad exactly: iteration k
	// consumes tape samples [k*samples, (k+1)*samples), and every
	// floating-point operation happens in the original order.
	t.mu.Lock()
	if t.raw == nil {
		// Reserve the most one calibration can read, once: a load
		// that needs every iteration would otherwise regrow (and
		// copy) the tape batch by batch. Batches never drawn cost
		// address space only; the runtime does not touch fresh pages.
		t.nodes = make([]float32, 0, calibrateIters*samples)
		t.raw = make([]float64, 0, calibrateIters*samples)
	}
	scale := 1.0
	for iter := 0; iter < calibrateIters; iter++ {
		base := iter * samples
		t.ensure(base + samples)
		var work float64
		for i := base; i < base+samples; i++ {
			rt := t.raw[i] * scale
			if rt < m.MinRuntime {
				rt = m.MinRuntime
			}
			if rt > m.MaxRuntime {
				rt = m.MaxRuntime
			}
			work += float64(t.nodes[i]) * rt
		}
		work /= float64(samples)
		rho := work / (m.MeanInterarrival() * float64(totalNodes))
		if rho <= 0 {
			panic("workload: calibration measured zero load")
		}
		ratio := targetLoad / rho
		if ratio > 0.99 && ratio < 1.01 {
			break
		}
		scale *= ratio
	}
	t.mu.Unlock()

	m.RuntimeScale = scale
	return scale
}
