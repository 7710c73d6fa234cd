// Package metrics computes the paper's schedule-quality metrics from
// simulated job records: average stretch (slowdown), the coefficient of
// variation of stretches (the fairness metric), maximum stretch, and
// turnaround time — plus the relative-to-baseline aggregation used for
// every figure and table in Section 3 ("relative to the scheme using no
// redundant requests, averaged over 50 experiments").
package metrics

import (
	"fmt"
	"math"

	"redreq/internal/core"
	"redreq/internal/stats"
)

// Filter selects a subset of jobs; nil selects all jobs.
type Filter func(*core.JobRecord) bool

// RedundantOnly selects jobs that used redundant requests ("r jobs").
func RedundantOnly(j *core.JobRecord) bool { return j.Redundant }

// NonRedundantOnly selects jobs that did not ("n-r jobs").
func NonRedundantOnly(j *core.JobRecord) bool { return !j.Redundant }

// Sample is the set of schedule-quality metrics over one run's jobs.
type Sample struct {
	N             int
	AvgStretch    float64
	CVStretch     float64 // percent
	MaxStretch    float64
	AvgTurnaround float64
	AvgWait       float64
	MaxQueue      float64 // average over clusters of max pending-queue length
}

// Stretches extracts the stretch of every selected job.
func Stretches(jobs []core.JobRecord, f Filter) []float64 {
	out := make([]float64, 0, len(jobs))
	for i := range jobs {
		if f == nil || f(&jobs[i]) {
			out = append(out, jobs[i].Stretch())
		}
	}
	return out
}

// moments accumulates Mean, CV, and Max of a sample that is read in
// two passes instead of held in a slice: add every value in order,
// then addDev every value again in the same order (a pass CV ignores
// below two values). The results are bit-identical to stats.Mean,
// stats.CV, and stats.Max over the slice of those values, because the
// sums run in the same order with the same operations.
type moments struct {
	n      int
	sum    float64
	max    float64
	hasNaN bool
	ss     float64 // sum of squared deviations from the mean
}

func (m *moments) add(x float64) {
	if m.n == 0 || x > m.max {
		m.max = x
	}
	m.hasNaN = m.hasNaN || math.IsNaN(x)
	m.n++
	m.sum += x
}

// mean is stats.Mean: 0 for an empty sample.
func (m *moments) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// addDev is the second pass; it needs the first complete.
func (m *moments) addDev(x float64) {
	d := x - m.mean()
	m.ss += d * d
}

// cv is stats.CV: the population standard deviation over the mean, in
// percent, 0 when the mean is zero.
func (m *moments) cv() float64 {
	mu := m.mean()
	if mu == 0 {
		return 0
	}
	var sd float64
	if m.n >= 2 {
		sd = math.Sqrt(m.ss / float64(m.n))
	}
	return sd / mu * 100
}

// maximum is stats.Max: 0 for an empty sample, NaN if any value is.
func (m *moments) maximum() float64 {
	switch {
	case m.n == 0:
		return 0
	case m.hasNaN:
		return math.NaN()
	}
	return m.max
}

// FromResult computes a Sample over the selected jobs of a run. It
// reads res.Jobs twice and allocates nothing.
func FromResult(res *core.Result, f Filter) Sample {
	var stretch moments
	var turnaround, wait float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f == nil || f(j) {
			stretch.add(j.Stretch())
			turnaround += j.Turnaround()
			wait += j.Wait()
		}
	}
	if stretch.n >= 2 {
		for i := range res.Jobs {
			j := &res.Jobs[i]
			if f == nil || f(j) {
				stretch.addDev(j.Stretch())
			}
		}
	}
	s := Sample{
		N:          stretch.n,
		AvgStretch: stretch.mean(),
		CVStretch:  stretch.cv(),
		MaxStretch: stretch.maximum(),
	}
	if s.N > 0 {
		s.AvgTurnaround = turnaround / float64(s.N)
		s.AvgWait = wait / float64(s.N)
	}
	var q float64
	for _, c := range res.Clusters {
		q += float64(c.Stats.MaxQueue)
	}
	if len(res.Clusters) > 0 {
		s.MaxQueue = q / float64(len(res.Clusters))
	}
	return s
}

// Relative holds per-replication metric ratios of a scheme against the
// no-redundancy baseline, and their averages.
type Relative struct {
	// AvgStretch, CVStretch, MaxStretch, and AvgTurnaround are the
	// means over replications of the per-replication ratios
	// scheme/baseline; values below 1 mean the scheme improves on
	// no redundancy.
	AvgStretch    float64
	CVStretch     float64
	MaxStretch    float64
	AvgTurnaround float64
	// WinFraction is the fraction of replications in which the
	// scheme achieved a strictly lower average stretch than the
	// baseline (the paper reports >95% for N=20).
	WinFraction float64
	// WorstLoss is the largest relative average-stretch degradation
	// across replications ((ratio-1) of the worst losing
	// replication, 0 when the scheme never loses).
	WorstLoss float64
	// CVOverReps is the coefficient of variation (percent) of the
	// per-replication average-stretch ratios, the spread the paper
	// quotes ("coefficients of variation ranging from 50% to 5%").
	CVOverReps float64
	// Reps is the number of replications aggregated.
	Reps int
}

// Relativize aggregates scheme-vs-baseline samples, one pair per
// replication. It panics if the slices differ in length, and returns
// an error if any baseline metric is zero.
func Relativize(scheme, baseline []Sample) (Relative, error) {
	if len(scheme) != len(baseline) {
		panic("metrics: mismatched replication counts")
	}
	var rel Relative
	rel.Reps = len(scheme)
	if rel.Reps == 0 {
		return rel, fmt.Errorf("metrics: no replications")
	}
	ratios := make([]float64, 0, rel.Reps)
	wins := 0
	for i := range scheme {
		b := baseline[i]
		s := scheme[i]
		if b.AvgStretch == 0 || b.CVStretch == 0 || b.MaxStretch == 0 || b.AvgTurnaround == 0 {
			return rel, fmt.Errorf("metrics: zero baseline metric in replication %d", i)
		}
		r := s.AvgStretch / b.AvgStretch
		ratios = append(ratios, r)
		if r < 1 {
			wins++
		} else if loss := r - 1; loss > rel.WorstLoss {
			rel.WorstLoss = loss
		}
		rel.AvgStretch += r
		rel.CVStretch += s.CVStretch / b.CVStretch
		rel.MaxStretch += s.MaxStretch / b.MaxStretch
		rel.AvgTurnaround += s.AvgTurnaround / b.AvgTurnaround
	}
	n := float64(rel.Reps)
	rel.AvgStretch /= n
	rel.CVStretch /= n
	rel.MaxStretch /= n
	rel.AvgTurnaround /= n
	rel.WinFraction = float64(wins) / n
	rel.CVOverReps = stats.CV(ratios)
	return rel, nil
}

// PredictionStats summarizes queue-waiting-time over-prediction for one
// job class (Table 4): the mean and CV of predicted-to-effective wait
// ratios. Jobs whose effective wait is below minWait are excluded
// (the ratio is ill-defined for jobs that start immediately).
type PredictionStats struct {
	N       int
	Avg     float64
	CV      float64 // percent
	Skipped int
}

// Predictions computes over-prediction statistics over the selected
// jobs of a run. Jobs without a recorded prediction are skipped. Like
// FromResult it reads res.Jobs twice and allocates nothing.
func Predictions(res *core.Result, f Filter, minWait float64) PredictionStats {
	// ratio reports j's predicted-to-effective wait ratio, or false
	// when the job is not counted.
	ratio := func(j *core.JobRecord) (float64, bool) {
		if math.IsNaN(j.Predicted) {
			return 0, false
		}
		w := j.Wait()
		if w < minWait {
			return 0, false
		}
		return j.Predicted / w, true
	}
	var m moments
	skipped := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f != nil && !f(j) {
			continue
		}
		if r, ok := ratio(j); ok {
			m.add(r)
		} else {
			skipped++
		}
	}
	if m.n >= 2 {
		for i := range res.Jobs {
			j := &res.Jobs[i]
			if f != nil && !f(j) {
				continue
			}
			if r, ok := ratio(j); ok {
				m.addDev(r)
			}
		}
	}
	return PredictionStats{
		N:       m.n,
		Avg:     m.mean(),
		CV:      m.cv(),
		Skipped: skipped,
	}
}
