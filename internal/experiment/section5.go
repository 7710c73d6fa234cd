// Spec for the Section 5 predictability experiment (Table 4):
// queue-waiting-time over-prediction with and without redundant
// requests, using CBF reservations as the prediction source.

package experiment

import (
	"fmt"

	"redreq/internal/core"
	"redreq/internal/report"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// table4Result mirrors the structure of the paper's Table 4 for N=10
// clusters: over-prediction statistics (mean and CV of the ratio of
// predicted to effective queue waiting time) when no jobs use
// redundancy, and — when 40% of jobs use the ALL scheme — separately
// for jobs not using and using redundant requests.
type table4Result struct {
	// Baseline: 0% of jobs using redundant requests.
	BaselineAvg float64
	BaselineCV  float64
	// Mixed population: RedundantPercent of jobs use ALL.
	NonRedundantAvg float64
	NonRedundantCV  float64
	RedundantAvg    float64
	RedundantCV     float64
	// RedundantPercent is the fraction of redundant jobs in the
	// mixed run (0.4 in the paper).
	RedundantPercent float64
	// Jobs counted in each column (totals over replications).
	BaselineN, NonRedundantN, RedundantN int
}

// MinEffectiveWait excludes jobs whose effective wait is shorter than
// this many seconds from the over-prediction ratios; the ratio is
// ill-defined for jobs that start (nearly) immediately.
const MinEffectiveWait = 1.0

// table4RedundantFraction is the mixed population's redundant share
// (0.4 in the paper).
const table4RedundantFraction = 0.4

// table4Variants builds the predictability pair: 10 CBF clusters,
// real (phi-model) runtime estimates, predictions recorded at
// submission (the CBF reservation; for redundant jobs the minimum
// over all copies' reservations, as in Section 5). Like Figure 4, the
// experiment runs in the contended regime: queue-wait prediction is
// only meaningful when jobs actually wait.
func table4Variants(opts Options) []variant {
	const n = 10
	opts.TargetLoad = ContendedLoad
	baseCfg := opts.base(n)
	baseCfg.Alg = sched.CBF
	baseCfg.EstMode = workload.Phi
	baseCfg.Predict = true

	mixedCfg := baseCfg
	mixedCfg.Scheme = core.SchemeAll
	mixedCfg.RedundantFraction = table4RedundantFraction

	return []variant{
		{Name: "NONE", Config: baseCfg},
		{Name: "MIXED", Config: mixedCfg},
	}
}

// table4Reduce reduces the matrix built by table4Variants.
func table4Reduce(res [][]runSummary) table4Result {
	out := table4Result{RedundantPercent: table4RedundantFraction}
	accum := func(runs []runSummary, c jobClass) (avg, cv float64, n int) {
		var sa, sc float64
		for _, r := range runs {
			ps := r.Prediction[c]
			sa += ps.Avg
			sc += ps.CV
			n += ps.N
		}
		k := float64(len(runs))
		return sa / k, sc / k, n
	}
	out.BaselineAvg, out.BaselineCV, out.BaselineN = accum(res[0], allJobs)
	out.NonRedundantAvg, out.NonRedundantCV, out.NonRedundantN = accum(res[1], nonRedundantJobs)
	out.RedundantAvg, out.RedundantCV, out.RedundantN = accum(res[1], redundantJobs)
	return out
}

var table4Spec = &Spec{
	Name:     "table4",
	Title:    "Table 4: queue waiting time over-prediction (N=10, CBF)",
	Desc:     "how redundancy degrades CBF wait-time predictions",
	Params:   "N=10, scheme=ALL at 40%, load=1.15",
	Variants: func(opts Options) []variant { return table4Variants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		r := table4Reduce(res)
		t := report.NewTable("Table 4: queue waiting time over-prediction (predicted/effective wait)",
			"population", "average", "CV%", "jobs")
		t.AddRow("0% redundant", report.F(r.BaselineAvg, 2), report.F(r.BaselineCV, 0), r.BaselineN)
		t.AddRow(fmt.Sprintf("%.0f%% ALL: n-r jobs", r.RedundantPercent*100),
			report.F(r.NonRedundantAvg, 2), report.F(r.NonRedundantCV, 0), r.NonRedundantN)
		t.AddRow(fmt.Sprintf("%.0f%% ALL: r jobs", r.RedundantPercent*100),
			report.F(r.RedundantAvg, 2), report.F(r.RedundantCV, 0), r.RedundantN)
		return []*report.Table{t}, nil
	},
}
