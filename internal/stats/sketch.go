// Streaming, mergeable statistics: a log-bucketed quantile sketch and
// a moment accumulator. Per-cluster (or per-replication) sketches
// merge into one summary without ever retaining the sample, and
// because the sketch's state is integer bucket counts, merging is
// exactly commutative and associative: any merge order yields
// bit-identical quantiles.

package stats

import (
	"math"
	"sort"
)

// sketchMin is the smallest magnitude the sketch resolves; values
// below it (including zero and negatives, which the simulator's
// nonnegative metrics never produce) land in a dedicated zero bucket
// and quantile queries report them as 0.
const sketchMin = 1e-12

// Sketch is a DDSketch-style quantile sketch with relative accuracy
// alpha: Quantile returns a value within a factor (1±alpha) of an
// exact order statistic of the inserted sample, using O(buckets)
// memory — buckets grow with the sample's dynamic range (logarithmic),
// not its size. The zero value is unusable; use NewSketch.
type Sketch struct {
	alpha  float64
	gamma  float64
	lgamma float64
	zero   uint64
	n      uint64
	nan    bool
	counts map[int]uint64
}

// NewSketch returns an empty sketch with the given relative accuracy
// (0 < alpha < 1). Sketches merge only with sketches of equal alpha.
func NewSketch(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic("stats: sketch accuracy outside (0,1)")
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:  alpha,
		gamma:  gamma,
		lgamma: math.Log(gamma),
		counts: make(map[int]uint64),
	}
}

// Add inserts one value. A NaN poisons the sketch — every later
// Quantile returns NaN — mirroring Percentile's determinism policy.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		s.nan = true
		return
	}
	s.n++
	if x < sketchMin {
		s.zero++
		return
	}
	s.counts[int(math.Ceil(math.Log(x)/s.lgamma))]++
}

// Count returns the number of values inserted (NaNs excluded).
func (s *Sketch) Count() uint64 { return s.n }

// Merge folds o into s. Bucket counts are integers, so the result is
// independent of merge order. Merging sketches of different accuracies
// panics: their buckets are incompatible.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	if o.alpha != s.alpha {
		panic("stats: merging sketches of different accuracy")
	}
	s.n += o.n
	s.zero += o.zero
	s.nan = s.nan || o.nan
	for k, c := range o.counts {
		s.counts[k] += c
	}
}

// Quantile returns an approximation of the p-th percentile (0-100):
// a value v with |v - x| <= alpha*x for x the order statistic at rank
// round(p/100*(n-1)). A p outside [0, 100] is clamped into it. Empty
// sketches return 0; a NaN p, or a sketch that absorbed a NaN, returns
// NaN.
func (s *Sketch) Quantile(p float64) float64 {
	if s.nan || math.IsNaN(p) {
		return math.NaN()
	}
	if s.n == 0 {
		return 0
	}
	p = min(max(p, 0), 100)
	rank := uint64(math.Round(p / 100 * float64(s.n-1)))
	if rank >= s.n {
		rank = s.n - 1
	}
	if rank < s.zero {
		return 0
	}
	keys := s.keys()
	cum := s.zero
	for _, k := range keys {
		cum += s.counts[k]
		if cum > rank {
			return s.bucketValue(k)
		}
	}
	return s.bucketValue(keys[len(keys)-1])
}

// EachBucket calls fn for every non-empty bucket in ascending order
// with the bucket's upper bound and its count: first the zero bucket,
// bounded by the smallest resolved magnitude, then bucket k with bound
// gamma^k.
func (s *Sketch) EachBucket(fn func(le float64, count uint64)) {
	if s.zero > 0 {
		fn(sketchMin, s.zero)
	}
	for _, k := range s.keys() {
		fn(math.Exp(float64(k)*s.lgamma), s.counts[k])
	}
}

// keys returns the indices of the non-empty log buckets, ascending.
func (s *Sketch) keys() []int {
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// bucketValue is the representative of bucket k, covering
// (gamma^(k-1), gamma^k]: the point 2*gamma^k/(gamma+1), within a
// factor (1±alpha) of everything in the bucket.
func (s *Sketch) bucketValue(k int) float64 {
	return 2 * math.Exp(float64(k)*s.lgamma) / (s.gamma + 1)
}

// Moments accumulates count, sum, sum of squares, and extrema in O(1)
// space. The zero value is ready to use. Sums are floating-point, so
// unlike the Sketch a merge IS order-sensitive in the last ulps;
// reductions that must be deterministic merge in a fixed order (see
// metrics.DigestCollector).
type Moments struct {
	N      uint64
	Sum    float64
	SumSq  float64
	MinVal float64
	MaxVal float64
}

// Add inserts one value.
func (m *Moments) Add(x float64) {
	if m.N == 0 || x < m.MinVal {
		m.MinVal = x
	}
	if m.N == 0 || x > m.MaxVal {
		m.MaxVal = x
	}
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// Merge folds o into m.
func (m *Moments) Merge(o *Moments) {
	if o == nil || o.N == 0 {
		return
	}
	if m.N == 0 || o.MinVal < m.MinVal {
		m.MinVal = o.MinVal
	}
	if m.N == 0 || o.MaxVal > m.MaxVal {
		m.MaxVal = o.MaxVal
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the running mean (0 when empty, matching stats.Mean).
func (m *Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the population variance via E[x^2]-E[x]^2, clamped
// at 0 against cancellation. It is numerically coarser than the
// two-pass Variance but needs no retained sample.
func (m *Moments) Variance() float64 {
	if m.N == 0 {
		return 0
	}
	mean := m.Mean()
	v := m.SumSq/float64(m.N) - mean*mean
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min and Max return the extrema (0 when empty).
func (m *Moments) Min() float64 {
	if m.N == 0 {
		return 0
	}
	return m.MinVal
}

func (m *Moments) Max() float64 {
	if m.N == 0 {
		return 0
	}
	return m.MaxVal
}
