// Specs for the Section 3 experiments: Figures 1-4 and Tables 1-3,
// plus the queue-growth observation (Section 4.1), the late-binding
// inflation ablation (Section 3.1.2), and the offered-load sweep.

package experiment

import (
	"fmt"

	"redreq/internal/core"
	"redreq/internal/metrics"
	"redreq/internal/report"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// DefaultNs are the platform sizes of Figures 1 and 2.
var DefaultNs = []int{2, 3, 4, 5, 10, 20}

// schemeRelative pairs a scheme with its metrics relative to the
// no-redundancy baseline.
type schemeRelative struct {
	Scheme core.Scheme
	Rel    metrics.Relative
}

// vsNPoint is one x-position of Figures 1 and 2: all schemes' relative
// metrics on an N-cluster platform.
type vsNPoint struct {
	N                  int
	BaselineAvgStretch float64 // absolute, mean over replications
	Schemes            []schemeRelative
}

// vsNsOf reads the Figure 1/2 platform sizes from the sweep override.
func vsNsOf(opts Options) []int {
	sweep := sweepOr(opts, nil)
	if len(sweep) == 0 {
		return DefaultNs
	}
	ns := make([]int, len(sweep))
	for i, v := range sweep {
		ns[i] = int(v)
	}
	return ns
}

// schemesVsNVariants builds the Figure 1 / Figure 2 matrix: for each N
// in ns, the no-redundancy baseline plus every scheme on N identical
// 128-node EASY clusters.
func schemesVsNVariants(opts Options, ns []int) []variant {
	var vs []variant
	for _, n := range ns {
		vs = append(vs, variant{Name: fmt.Sprintf("NONE/N=%d", n), Config: opts.base(n)})
		for _, s := range core.Schemes {
			cfg := opts.base(n)
			cfg.Scheme = s
			vs = append(vs, variant{Name: fmt.Sprintf("%s/N=%d", s, n), Config: cfg})
		}
	}
	return vs
}

// schemesVsNPoints reduces the matrix built by schemesVsNVariants.
func schemesVsNPoints(ns []int, res [][]runSummary) ([]vsNPoint, error) {
	per := 1 + len(core.Schemes)
	points := make([]vsNPoint, 0, len(ns))
	for gi, n := range ns {
		grp := res[gi*per : (gi+1)*per]
		base := samples(grp[0], allJobs)
		pt := vsNPoint{N: n}
		for i, s := range core.Schemes {
			rel, err := metrics.Relativize(samples(grp[i+1], allJobs), base)
			if err != nil {
				return nil, err
			}
			pt.Schemes = append(pt.Schemes, schemeRelative{Scheme: s, Rel: rel})
		}
		pt.BaselineAvgStretch = meanSample(base, func(s metrics.Sample) float64 { return s.AvgStretch })
		points = append(points, pt)
	}
	return points, nil
}

// schemesVsN runs the Figure 1 / Figure 2 experiment for each N in ns.
func schemesVsN(opts Options, ns []int) ([]vsNPoint, error) {
	if len(ns) == 0 {
		ns = DefaultNs
	}
	res, err := runMatrix(opts, schemesVsNVariants(opts, ns))
	if err != nil {
		return nil, err
	}
	return schemesVsNPoints(ns, res)
}

func meanSample(ss []metrics.Sample, f func(metrics.Sample) float64) float64 {
	var sum float64
	for _, s := range ss {
		sum += f(s)
	}
	return sum / float64(len(ss))
}

// schemeCurveTable renders one relative metric as an N x scheme table
// (the tabular form of the paper's figure curves).
func schemeCurveTable(title, xlabel string, xs []any, points []vsNPoint, f func(metrics.Relative) float64) *report.Table {
	header := []string{xlabel}
	for _, s := range core.Schemes {
		header = append(header, s.String())
	}
	t := report.NewTable(title, header...)
	for i, pt := range points {
		row := []any{xs[i]}
		for _, sr := range pt.Schemes {
			row = append(row, report.F(f(sr.Rel), 3))
		}
		t.AddRow(row...)
	}
	return t
}

var fig12Spec = &Spec{
	Name:          "fig12",
	Aliases:       []string{"fig1", "fig2"},
	Title:         "Figures 1 and 2: relative average stretch and CV vs number of clusters",
	Desc:          "every scheme vs no redundancy as the platform grows",
	Params:        "N=2,3,4,5,10,20 (Sweep overrides)",
	PositiveSweep: true,
	Variants: func(opts Options) []variant {
		return schemesVsNVariants(opts, vsNsOf(opts))
	},
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		ns := vsNsOf(opts)
		points, err := schemesVsNPoints(ns, res)
		if err != nil {
			return nil, err
		}
		xs := make([]any, len(points))
		for i, pt := range points {
			xs[i] = pt.N
		}
		fig1 := schemeCurveTable("Figure 1: average stretch relative to no redundancy", "N",
			xs, points, func(r metrics.Relative) float64 { return r.AvgStretch })
		fig2 := schemeCurveTable("Figure 2: coefficient of variation of stretches relative to no redundancy", "N",
			xs, points, func(r metrics.Relative) float64 { return r.CVStretch })
		maxs := schemeCurveTable("(extra) maximum stretch relative to no redundancy", "N",
			xs, points, func(r metrics.Relative) float64 { return r.MaxStretch })
		wins := report.NewTable("Win statistics (fraction of replications where the scheme beats no redundancy; worst loss)",
			"N", "scheme", "win%", "worst loss%", "baseline avg stretch")
		for _, pt := range points {
			for _, sr := range pt.Schemes {
				wins.AddRow(pt.N, sr.Scheme.String(),
					report.F(sr.Rel.WinFraction*100, 0),
					report.F(sr.Rel.WorstLoss*100, 1),
					report.F(pt.BaselineAvgStretch, 2))
			}
		}
		return []*report.Table{fig1, fig2, maxs, wins}, nil
	},
}

// table1Row is one algorithm's row of Table 1: relative average
// stretch and relative CV under exact and real (phi-model) estimates,
// for the HALF scheme on 10 clusters.
type table1Row struct {
	Alg              sched.Algorithm
	AvgStretchExact  float64
	AvgStretchReal   float64
	CVStretchesExact float64
	CVStretchesReal  float64
}

var table1Algs = []sched.Algorithm{sched.EASY, sched.CBF, sched.FCFS}
var table1Ests = []workload.EstimateMode{workload.Exact, workload.Phi}

// table1Variants builds the scheduling-algorithm x estimate-quality
// matrix: a (NONE, HALF) pair per (algorithm, estimate mode).
func table1Variants(opts Options) []variant {
	const n = 10
	var vs []variant
	for _, alg := range table1Algs {
		for _, est := range table1Ests {
			baseCfg := opts.base(n)
			baseCfg.Alg = alg
			baseCfg.EstMode = est
			halfCfg := baseCfg
			halfCfg.Scheme = core.SchemeHalf
			vs = append(vs,
				variant{Name: fmt.Sprintf("NONE/%s/%v", alg, est), Config: baseCfg},
				variant{Name: fmt.Sprintf("HALF/%s/%v", alg, est), Config: halfCfg})
		}
	}
	return vs
}

// table1Rows reduces the matrix built by table1Variants.
func table1Rows(res [][]runSummary) ([]table1Row, error) {
	rows := make([]table1Row, 0, len(table1Algs))
	idx := 0
	for _, alg := range table1Algs {
		row := table1Row{Alg: alg}
		for _, est := range table1Ests {
			rel, err := metrics.Relativize(samples(res[idx+1], allJobs), samples(res[idx], allJobs))
			if err != nil {
				return nil, err
			}
			idx += 2
			if est == workload.Exact {
				row.AvgStretchExact = rel.AvgStretch
				row.CVStretchesExact = rel.CVStretch
			} else {
				row.AvgStretchReal = rel.AvgStretch
				row.CVStretchesReal = rel.CVStretch
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1 runs the scheduling-algorithm / estimate-quality experiment.
func table1(opts Options) ([]table1Row, error) {
	res, err := runMatrix(opts, table1Variants(opts))
	if err != nil {
		return nil, err
	}
	return table1Rows(res)
}

var table1Spec = &Spec{
	Name:     "table1",
	Title:    "Table 1: scheduling algorithms x estimate quality (N=10, HALF)",
	Desc:     "EASY/CBF/FCFS under exact and phi-model runtime estimates",
	Params:   "N=10, scheme=HALF",
	Variants: func(opts Options) []variant { return table1Variants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		rows, err := table1Rows(res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Table 1: relative metrics for HALF vs no redundancy",
			"algorithm", "rel avg stretch (exact)", "rel avg stretch (real)", "rel CV (exact)", "rel CV (real)")
		for _, r := range rows {
			t.AddRow(r.Alg.String(),
				report.F(r.AvgStretchExact, 2), report.F(r.AvgStretchReal, 2),
				report.F(r.CVStretchesExact, 2), report.F(r.CVStretchesReal, 2))
		}
		return []*report.Table{t}, nil
	},
}

// table2Schemes are the columns of Table 2.
var table2Schemes = []core.Scheme{core.SchemeR2, core.SchemeR3, core.SchemeR4, core.SchemeHalf}

// table2Row is one scheme's column of Table 2: relative metrics under
// geometrically biased remote-cluster selection.
type table2Row struct {
	Scheme     core.Scheme
	AvgStretch float64
	CVStretch  float64
}

// table2Variants builds the non-uniform redundant request matrix
// (N=10; remote clusters picked with probability halving per index).
func table2Variants(opts Options) []variant {
	const n = 10
	vs := []variant{{Name: "NONE", Config: opts.base(n)}}
	for _, s := range table2Schemes {
		cfg := opts.base(n)
		cfg.Scheme = s
		cfg.Routing = core.RouteBiased
		vs = append(vs, variant{Name: s.String(), Config: cfg})
	}
	return vs
}

// table2Rows reduces the matrix built by table2Variants.
func table2Rows(res [][]runSummary) ([]table2Row, error) {
	base := samples(res[0], allJobs)
	rows := make([]table2Row, 0, len(table2Schemes))
	for i, s := range table2Schemes {
		rel, err := metrics.Relativize(samples(res[i+1], allJobs), base)
		if err != nil {
			return nil, err
		}
		rows = append(rows, table2Row{Scheme: s, AvgStretch: rel.AvgStretch, CVStretch: rel.CVStretch})
	}
	return rows, nil
}

// table2 runs the non-uniform redundant request distribution
// experiment.
func table2(opts Options) ([]table2Row, error) {
	res, err := runMatrix(opts, table2Variants(opts))
	if err != nil {
		return nil, err
	}
	return table2Rows(res)
}

var table2Spec = &Spec{
	Name:     "table2",
	Title:    "Table 2: non-uniformly distributed redundant requests (N=10)",
	Desc:     "geometrically biased remote-cluster selection",
	Params:   "N=10, schemes=R2,R3,R4,HALF",
	Variants: func(opts Options) []variant { return table2Variants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		rows, err := table2Rows(res)
		if err != nil {
			return nil, err
		}
		header := []string{"metric"}
		for _, r := range rows {
			header = append(header, r.Scheme.String())
		}
		t := report.NewTable("Table 2: biased remote selection, relative to no redundancy", header...)
		avg := []any{"rel avg stretch"}
		cv := []any{"rel CV of stretches"}
		for _, r := range rows {
			avg = append(avg, report.F(r.AvgStretch, 2))
			cv = append(cv, report.F(r.CVStretch, 2))
		}
		t.AddRow(avg...)
		t.AddRow(cv...)
		return []*report.Table{t}, nil
	},
}

// DefaultIATs are the Figure 3 mean interarrival times in seconds,
// produced by varying the arrival Gamma's alpha from 4 to 20 at
// beta=0.49 (Section 3.3).
var DefaultIATs = []float64{4 * 0.49, 7 * 0.49, 10.23 * 0.49, 13 * 0.49, 16 * 0.49, 20 * 0.49}

// iatPoint is one x-position of Figure 3.
type iatPoint struct {
	MeanIAT            float64
	BaselineAvgStretch float64
	Schemes            []schemeRelative
}

// figure3Variants builds the interarrival-time sweep on a 10-cluster
// platform: a baseline plus every scheme per interarrival time.
func figure3Variants(opts Options, iats []float64) []variant {
	const n = 10
	mk := func(s core.Scheme, iat float64) core.Config {
		cfg := opts.base(n)
		cfg.Scheme = s
		for i := range cfg.Clusters {
			cfg.Clusters[i].MeanIAT = iat
		}
		return cfg
	}
	var vs []variant
	for _, iat := range iats {
		vs = append(vs, variant{Name: fmt.Sprintf("NONE/iat=%.2f", iat), Config: mk(core.SchemeNone, iat)})
		for _, s := range core.Schemes {
			vs = append(vs, variant{Name: fmt.Sprintf("%s/iat=%.2f", s, iat), Config: mk(s, iat)})
		}
	}
	return vs
}

// figure3Points reduces the matrix built by figure3Variants.
func figure3Points(iats []float64, res [][]runSummary) ([]iatPoint, error) {
	per := 1 + len(core.Schemes)
	points := make([]iatPoint, 0, len(iats))
	for gi, iat := range iats {
		grp := res[gi*per : (gi+1)*per]
		base := samples(grp[0], allJobs)
		pt := iatPoint{MeanIAT: iat}
		pt.BaselineAvgStretch = meanSample(base, func(s metrics.Sample) float64 { return s.AvgStretch })
		for i, s := range core.Schemes {
			rel, err := metrics.Relativize(samples(grp[i+1], allJobs), base)
			if err != nil {
				return nil, err
			}
			pt.Schemes = append(pt.Schemes, schemeRelative{Scheme: s, Rel: rel})
		}
		points = append(points, pt)
	}
	return points, nil
}

// figure3 runs the job-interarrival-time sweep.
func figure3(opts Options, iats []float64) ([]iatPoint, error) {
	if len(iats) == 0 {
		iats = DefaultIATs
	}
	res, err := runMatrix(opts, figure3Variants(opts, iats))
	if err != nil {
		return nil, err
	}
	return figure3Points(iats, res)
}

var fig3Spec = &Spec{
	Name:          "fig3",
	Title:         "Figure 3: relative average stretch vs job interarrival time (N=10)",
	Desc:          "arrival-rate sweep across the stability range",
	Params:        "iat=1.96..9.80s (Sweep overrides)",
	PositiveSweep: true,
	Variants: func(opts Options) []variant {
		return figure3Variants(opts, sweepOr(opts, DefaultIATs))
	},
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		iats := sweepOr(opts, DefaultIATs)
		points, err := figure3Points(iats, res)
		if err != nil {
			return nil, err
		}
		header := []string{"iat"}
		for _, s := range core.Schemes {
			header = append(header, s.String())
		}
		t := report.NewTable("Figure 3: relative average stretch vs mean interarrival time (s)", header...)
		for _, pt := range points {
			row := []any{report.F(pt.MeanIAT, 2)}
			for _, sr := range pt.Schemes {
				row = append(row, report.F(sr.Rel.AvgStretch, 3))
			}
			t.AddRow(row...)
		}
		return []*report.Table{t}, nil
	},
}

// table3Row is one scheme's row of Table 3 (heterogeneous platforms).
type table3Row struct {
	Scheme     core.Scheme
	AvgStretch float64
	CVStretch  float64
}

// heterogeneousMutate randomizes a 10-cluster platform per
// replication: node counts drawn from {16,32,64,128,256} and mean
// interarrival times uniform in [2s, 20s] (Section 3.3
// "Heterogeneity").
func heterogeneousMutate(rep int, cfg *core.Config) {
	src := rng.New(0xE7E70 ^ uint64(rep)*seedStride)
	sizes := []int{16, 32, 64, 128, 256}
	// Build a fresh platform rather than writing through cfg.Clusters:
	// the slice is shared across every (variant, rep) task of the
	// matrix (variant Configs are immutable inputs).
	clusters := make([]core.ClusterSpec, len(cfg.Clusters))
	for i := range clusters {
		clusters[i].Nodes = sizes[src.IntN(len(sizes))]
		clusters[i].MeanIAT = src.Uniform(2, 20)
	}
	cfg.Clusters = clusters
}

// table3Variants builds the heterogeneous-platform matrix: all schemes
// relative to no redundancy on randomized heterogeneous platforms.
func table3Variants(opts Options) []variant {
	const n = 10
	vs := []variant{{Name: "NONE", Config: opts.base(n), Mutate: heterogeneousMutate}}
	for _, s := range core.Schemes {
		cfg := opts.base(n)
		cfg.Scheme = s
		vs = append(vs, variant{Name: s.String(), Config: cfg, Mutate: heterogeneousMutate})
	}
	return vs
}

// table3Rows reduces the matrix built by table3Variants.
func table3Rows(res [][]runSummary) ([]table3Row, error) {
	base := samples(res[0], allJobs)
	rows := make([]table3Row, 0, len(core.Schemes))
	for i, s := range core.Schemes {
		rel, err := metrics.Relativize(samples(res[i+1], allJobs), base)
		if err != nil {
			return nil, err
		}
		rows = append(rows, table3Row{Scheme: s, AvgStretch: rel.AvgStretch, CVStretch: rel.CVStretch})
	}
	return rows, nil
}

// table3 runs the heterogeneous-platform experiment.
func table3(opts Options) ([]table3Row, error) {
	res, err := runMatrix(opts, table3Variants(opts))
	if err != nil {
		return nil, err
	}
	return table3Rows(res)
}

var table3Spec = &Spec{
	Name:     "table3",
	Title:    "Table 3: heterogeneous platforms (N=10)",
	Desc:     "randomized node counts and arrival rates per replication",
	Params:   "N=10, nodes in {16..256}, iat in [2s,20s]",
	Variants: func(opts Options) []variant { return table3Variants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		rows, err := table3Rows(res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Table 3: heterogeneous platforms, relative to no redundancy",
			"scheme", "rel avg stretch", "rel CV of stretches")
		for _, r := range rows {
			t.AddRow(r.Scheme.String(), report.F(r.AvgStretch, 2), report.F(r.CVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}

// DefaultFractions are the Figure 4 x-positions: the percentage of
// jobs using redundant requests.
var DefaultFractions = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// fig4Point is one (scheme, p) cell of Figure 4: absolute average
// stretches of jobs using redundancy ("r jobs") and jobs not using it
// ("n-r jobs"), averaged over replications.
type fig4Point struct {
	Scheme     core.Scheme
	Fraction   float64
	RStretch   float64 // NaN-free: 0 when no r jobs exist (p=0)
	NRStretch  float64 // 0 when no n-r jobs exist (p=1)
	AllStretch float64
}

// figure4Variants builds the mixed-population matrix on a 10-cluster
// platform: one variant per (scheme, fraction p of redundant jobs).
// The experiment runs at ContendedLoad regardless of opts.TargetLoad:
// the unfairness the paper reports is a contention effect (see
// ContendedLoad).
func figure4Variants(opts Options, fractions []float64) []variant {
	const n = 10
	opts.TargetLoad = ContendedLoad
	var vs []variant
	for _, s := range core.Schemes {
		for _, p := range fractions {
			cfg := opts.base(n)
			if p > 0 {
				cfg.Scheme = s
				cfg.RedundantFraction = p
			}
			vs = append(vs, variant{Name: fmt.Sprintf("%s/p=%.0f%%", s, p*100), Config: cfg})
		}
	}
	return vs
}

// figure4Points reduces the matrix built by figure4Variants.
func figure4Points(fractions []float64, res [][]runSummary) []fig4Point {
	var points []fig4Point
	idx := 0
	for _, s := range core.Schemes {
		for _, p := range fractions {
			pt := fig4Point{Scheme: s, Fraction: p}
			pt.AllStretch = meanSample(samples(res[idx], allJobs), func(x metrics.Sample) float64 { return x.AvgStretch })
			if p > 0 {
				pt.RStretch = meanSample(samples(res[idx], redundantJobs), func(x metrics.Sample) float64 { return x.AvgStretch })
			}
			if p < 1 {
				pt.NRStretch = meanSample(samples(res[idx], nonRedundantJobs), func(x metrics.Sample) float64 { return x.AvgStretch })
			}
			points = append(points, pt)
			idx++
		}
	}
	return points
}

// figure4 runs the mixed-population experiment.
func figure4(opts Options, fractions []float64) ([]fig4Point, error) {
	if len(fractions) == 0 {
		fractions = DefaultFractions
	}
	res, err := runMatrix(opts, figure4Variants(opts, fractions))
	if err != nil {
		return nil, err
	}
	return figure4Points(fractions, res), nil
}

var fig4Spec = &Spec{
	Name:   "fig4",
	Title:  "Figure 4: stretch of r-jobs and n-r jobs vs percentage of redundant jobs (N=10)",
	Desc:   "who pays when only some users are redundant (contended regime)",
	Params: "N=10, p=0..100% (Sweep overrides), load=1.15",
	Variants: func(opts Options) []variant {
		return figure4Variants(opts, sweepOr(opts, DefaultFractions))
	},
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		points := figure4Points(sweepOr(opts, DefaultFractions), res)
		t := report.NewTable("Figure 4: average stretch by job class vs percentage of redundant jobs",
			"scheme", "p%", "r jobs", "n-r jobs", "all")
		for _, pt := range points {
			rCell, nrCell := any("-"), any("-")
			if pt.Fraction > 0 {
				rCell = report.F(pt.RStretch, 2)
			}
			if pt.Fraction < 1 {
				nrCell = report.F(pt.NRStretch, 2)
			}
			t.AddRow(pt.Scheme.String(), report.F(pt.Fraction*100, 0),
				rCell, nrCell, report.F(pt.AllStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}

// queueGrowthResult reports the Section 4.1 queue-size observation:
// the average (over clusters and replications) maximum queue length
// under the ALL scheme versus no redundancy.
type queueGrowthResult struct {
	MaxQueueNone float64
	MaxQueueAll  float64
	Ratio        float64
}

// queueGrowthVariants builds the NONE-vs-ALL pair; the caller chooses
// the window via opts.Horizon (the paper uses 24h, which the qgrowth
// spec applies).
func queueGrowthVariants(opts Options) []variant {
	const n = 10
	allCfg := opts.base(n)
	allCfg.Scheme = core.SchemeAll
	return []variant{
		{Name: "NONE", Config: opts.base(n)},
		{Name: "ALL", Config: allCfg},
	}
}

// queueGrowthReduce reduces the matrix built by queueGrowthVariants.
func queueGrowthReduce(res [][]runSummary) queueGrowthResult {
	avgMaxQ := func(r *runSummary) float64 { return r.Sample[allJobs].MaxQueue }
	out := queueGrowthResult{
		MaxQueueNone: meanOver(res[0], avgMaxQ),
		MaxQueueAll:  meanOver(res[1], avgMaxQ),
	}
	out.Ratio = out.MaxQueueAll / out.MaxQueueNone
	return out
}

// queueGrowth measures steady-state queue inflation due to redundant
// requests (the paper finds under 2% for ALL on 10 clusters over 24
// hours, because redundant copies are canceled when execution starts).
func queueGrowth(opts Options) (queueGrowthResult, error) {
	res, err := runMatrix(opts, queueGrowthVariants(opts))
	if err != nil {
		return queueGrowthResult{}, err
	}
	return queueGrowthReduce(res), nil
}

var qgrowthSpec = &Spec{
	Name:   "qgrowth",
	Title:  "Section 4.1: steady-state queue growth under ALL (24h)",
	Desc:   "average maximum queue length, ALL vs no redundancy",
	Params: "N=10, horizon=24h (fixed)",
	Variants: func(opts Options) []variant {
		opts.Horizon = 24 * 3600 // the paper's window for this observation
		return queueGrowthVariants(opts)
	},
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		r := queueGrowthReduce(res)
		t := report.NewTable("Average maximum queue length over 24h (paper: ALL exceeds NONE by < 2%; per-request counting differs, see EXPERIMENTS.md)",
			"population", "avg max queue length")
		t.AddRow("NONE", report.F(r.MaxQueueNone, 1))
		t.AddRow("ALL", report.F(r.MaxQueueAll, 1))
		t.AddRow("ratio ALL/NONE", report.F(r.Ratio, 3))
		return []*report.Table{t}, nil
	},
}

// inflationLevels are the Section 3.1.2 requested-time inflation
// factors applied to remote redundant copies.
var inflationLevels = []float64{0, 0.10, 0.50}

// inflationRow is one inflation level of the late-binding ablation.
type inflationRow struct {
	Inflate    float64
	AvgStretch float64 // relative to no redundancy
	CVStretch  float64
}

// inflationVariants builds the late-binding ablation matrix: a
// baseline plus HALF at each requested-time inflation level.
func inflationVariants(opts Options) []variant {
	const n = 10
	vs := []variant{{Name: "NONE", Config: opts.base(n)}}
	for _, f := range inflationLevels {
		cfg := opts.base(n)
		cfg.Scheme = core.SchemeHalf
		cfg.InflateRemote = f
		vs = append(vs, variant{Name: fmt.Sprintf("HALF/inflate=%.0f%%", f*100), Config: cfg})
	}
	return vs
}

// inflationRows reduces the matrix built by inflationVariants.
func inflationRows(res [][]runSummary) ([]inflationRow, error) {
	base := samples(res[0], allJobs)
	rows := make([]inflationRow, 0, len(inflationLevels))
	for i, f := range inflationLevels {
		rel, err := metrics.Relativize(samples(res[i+1], allJobs), base)
		if err != nil {
			return nil, err
		}
		rows = append(rows, inflationRow{Inflate: f, AvgStretch: rel.AvgStretch, CVStretch: rel.CVStretch})
	}
	return rows, nil
}

// inflationAblation reproduces the Section 3.1.2 observation: raising
// the requested compute time of remote redundant copies by 10% or 50%
// (to cover late input-data binding) does not change the findings.
func inflationAblation(opts Options) ([]inflationRow, error) {
	res, err := runMatrix(opts, inflationVariants(opts))
	if err != nil {
		return nil, err
	}
	return inflationRows(res)
}

var inflateSpec = &Spec{
	Name:     "inflate",
	Title:    "Section 3.1.2: requested-time inflation of redundant copies",
	Desc:     "late-binding ablation: remote copies request 0/10/50% more time",
	Params:   "N=10, scheme=HALF, inflation=0,10,50%",
	Variants: func(opts Options) []variant { return inflationVariants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		rows, err := inflationRows(res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Requested-time inflation of remote copies (HALF vs no redundancy)",
			"inflation", "rel avg stretch", "rel CV of stretches")
		for _, r := range rows {
			t.AddRow(fmt.Sprintf("%.0f%%", r.Inflate*100), report.F(r.AvgStretch, 2), report.F(r.CVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}

// defaultLoads are the offered-load sweep positions.
var defaultLoads = []float64{0.85, 0.90, 0.95, 1.00, 1.05}

// loadPoint is one offered-load level of the load-sweep ablation.
type loadPoint struct {
	TargetLoad         float64
	BaselineAvgStretch float64
	RelAvgStretch      float64 // ALL vs NONE
}

// loadSweepVariants builds the load-sweep matrix: a (NONE, ALL) pair
// per offered load.
func loadSweepVariants(opts Options, loads []float64) []variant {
	const n = 10
	var vs []variant
	for _, load := range loads {
		o := opts
		o.TargetLoad = load
		allCfg := o.base(n)
		allCfg.Scheme = core.SchemeAll
		vs = append(vs,
			variant{Name: fmt.Sprintf("NONE/load=%.2f", load), Config: o.base(n)},
			variant{Name: fmt.Sprintf("ALL/load=%.2f", load), Config: allCfg})
	}
	return vs
}

// loadSweepPoints reduces the matrix built by loadSweepVariants.
func loadSweepPoints(loads []float64, res [][]runSummary) ([]loadPoint, error) {
	points := make([]loadPoint, 0, len(loads))
	for i, load := range loads {
		base := samples(res[2*i], allJobs)
		rel, err := metrics.Relativize(samples(res[2*i+1], allJobs), base)
		if err != nil {
			return nil, err
		}
		points = append(points, loadPoint{
			TargetLoad:         load,
			BaselineAvgStretch: meanSample(base, func(s metrics.Sample) float64 { return s.AvgStretch }),
			RelAvgStretch:      rel.AvgStretch,
		})
	}
	return points, nil
}

// loadSweep is an ablation beyond the paper: it sweeps offered load
// across the saturation point to expose where redundant requests stop
// helping (the regime the paper's N<=5 "harmful" cases live in).
func loadSweep(opts Options, loads []float64) ([]loadPoint, error) {
	if len(loads) == 0 {
		loads = defaultLoads
	}
	res, err := runMatrix(opts, loadSweepVariants(opts, loads))
	if err != nil {
		return nil, err
	}
	return loadSweepPoints(loads, res)
}

var loadsweepSpec = &Spec{
	Name:          "loadsweep",
	Title:         "Ablation: offered-load sweep (ALL vs NONE)",
	Desc:          "where redundancy stops helping as load crosses saturation",
	Params:        "N=10, load=0.85..1.05 (Sweep overrides)",
	PositiveSweep: true,
	Variants: func(opts Options) []variant {
		return loadSweepVariants(opts, sweepOr(opts, defaultLoads))
	},
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		points, err := loadSweepPoints(sweepOr(opts, defaultLoads), res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Offered-load sweep: ALL vs NONE", "load", "baseline stretch", "rel avg stretch")
		for _, pt := range points {
			t.AddRow(report.F(pt.TargetLoad, 2), report.F(pt.BaselineAvgStretch, 3), report.F(pt.RelAvgStretch, 3))
		}
		return []*report.Table{t}, nil
	},
}
