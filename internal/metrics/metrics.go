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

// FromResult computes a Sample over the selected jobs of a run.
func FromResult(res *core.Result, f Filter) Sample {
	var s Sample
	stretches := make([]float64, 0, len(res.Jobs))
	turnarounds := make([]float64, 0, len(res.Jobs))
	waits := make([]float64, 0, len(res.Jobs))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f != nil && !f(j) {
			continue
		}
		stretches = append(stretches, j.Stretch())
		turnarounds = append(turnarounds, j.Turnaround())
		waits = append(waits, j.Wait())
	}
	s.N = len(stretches)
	s.AvgStretch = stats.Mean(stretches)
	s.CVStretch = stats.CV(stretches)
	s.MaxStretch = stats.Max(stretches)
	s.AvgTurnaround = stats.Mean(turnarounds)
	s.AvgWait = stats.Mean(waits)
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
// jobs of a run. Jobs without a recorded prediction are skipped.
func Predictions(res *core.Result, f Filter, minWait float64) PredictionStats {
	var ratios []float64
	skipped := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f != nil && !f(j) {
			continue
		}
		if math.IsNaN(j.Predicted) {
			skipped++
			continue
		}
		w := j.Wait()
		if w < minWait {
			skipped++
			continue
		}
		ratios = append(ratios, j.Predicted/w)
	}
	return PredictionStats{
		N:       len(ratios),
		Avg:     stats.Mean(ratios),
		CV:      stats.CV(ratios),
		Skipped: skipped,
	}
}
