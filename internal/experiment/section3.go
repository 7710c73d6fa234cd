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

// against is the group of cfg without redundancy against cfg under
// each of schemes, its variants named scheme/label.
func against(label string, cfg core.Config, schemes ...core.Scheme) compared {
	g := compared{base: variant{Name: "NONE/" + label, Config: cfg}}
	for _, s := range schemes {
		c := cfg
		c.Scheme = s
		g.cells = append(g.cells, variant{Name: s.String() + "/" + label, Config: c})
	}
	return g
}

// fig12Groups builds the Figure 1 / Figure 2 matrix: for each N, every
// scheme against the no-redundancy baseline on N identical 128-node
// EASY clusters.
func fig12Groups(opts Options) []compared {
	var gs []compared
	for _, n := range vsNsOf(opts) {
		gs = append(gs, against(fmt.Sprintf("N=%d", n), opts.base(n), core.Schemes...))
	}
	return gs
}

// schemeCurveTable renders one relative metric as an axis x scheme
// table (the tabular form of the paper's figure curves), one row per
// group.
func schemeCurveTable(title, xlabel string, xs []any, gs []relGroup, f func(metrics.Relative) float64) *report.Table {
	header := []string{xlabel}
	for _, s := range core.Schemes {
		header = append(header, s.String())
	}
	t := report.NewTable(title, header...)
	for i, g := range gs {
		row := []any{xs[i]}
		for _, rel := range g.rel {
			row = append(row, report.F(f(rel), 3))
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
	Variants:      func(opts Options) []variant { return groupVariants(fig12Groups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(fig12Groups(opts), res)
		if err != nil {
			return nil, err
		}
		ns := vsNsOf(opts)
		xs := make([]any, len(ns))
		for i, n := range ns {
			xs[i] = n
		}
		fig1 := schemeCurveTable("Figure 1: average stretch relative to no redundancy", "N",
			xs, gs, func(r metrics.Relative) float64 { return r.AvgStretch })
		fig2 := schemeCurveTable("Figure 2: coefficient of variation of stretches relative to no redundancy", "N",
			xs, gs, func(r metrics.Relative) float64 { return r.CVStretch })
		maxs := schemeCurveTable("(extra) maximum stretch relative to no redundancy", "N",
			xs, gs, func(r metrics.Relative) float64 { return r.MaxStretch })
		wins := report.NewTable("Win statistics (fraction of replications where the scheme beats no redundancy; worst loss)",
			"N", "scheme", "win%", "worst loss%", "baseline avg stretch")
		for i, g := range gs {
			baseline := report.F(meanOver(g.base, avgStretch(allJobs)), 2)
			for si, rel := range g.rel {
				wins.AddRow(ns[i], core.Schemes[si].String(),
					report.F(rel.WinFraction*100, 0),
					report.F(rel.WorstLoss*100, 1),
					baseline)
			}
		}
		return []*report.Table{fig1, fig2, maxs, wins}, nil
	},
}

var table1Algs = []sched.Algorithm{sched.EASY, sched.CBF, sched.FCFS}
var table1Ests = []workload.EstimateMode{workload.Exact, workload.Phi}

// table1Groups builds the scheduling-algorithm x estimate-quality
// matrix on 10 clusters: HALF against no redundancy per (algorithm,
// estimate mode).
func table1Groups(opts Options) []compared {
	var gs []compared
	for _, alg := range table1Algs {
		for _, est := range table1Ests {
			cfg := opts.base(10)
			cfg.Alg = alg
			cfg.EstMode = est
			gs = append(gs, against(fmt.Sprintf("%s/%v", alg, est), cfg, core.SchemeHalf))
		}
	}
	return gs
}

var table1Spec = &Spec{
	Name:     "table1",
	Title:    "Table 1: scheduling algorithms x estimate quality (N=10, HALF)",
	Desc:     "EASY/CBF/FCFS under exact and phi-model runtime estimates",
	Params:   "N=10, scheme=HALF",
	Variants: func(opts Options) []variant { return groupVariants(table1Groups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(table1Groups(opts), res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Table 1: relative metrics for HALF vs no redundancy",
			"algorithm", "rel avg stretch (exact)", "rel avg stretch (real)", "rel CV (exact)", "rel CV (real)")
		for i, ests := range rows(gs, len(table1Ests)) {
			exact, real := ests[0].rel[0], ests[1].rel[0]
			t.AddRow(table1Algs[i].String(),
				report.F(exact.AvgStretch, 2), report.F(real.AvgStretch, 2),
				report.F(exact.CVStretch, 2), report.F(real.CVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}

// table2Schemes are the columns of Table 2.
var table2Schemes = []core.Scheme{core.SchemeR2, core.SchemeR3, core.SchemeR4, core.SchemeHalf}

// table2Groups builds the non-uniform redundant request matrix (N=10;
// remote clusters picked with probability halving per index).
func table2Groups(opts Options) []compared {
	const n = 10
	g := compared{base: variant{Name: "NONE", Config: opts.base(n)}}
	for _, s := range table2Schemes {
		cfg := opts.base(n)
		cfg.Scheme = s
		cfg.Routing = core.RouteBiased
		g.cells = append(g.cells, variant{Name: s.String(), Config: cfg})
	}
	return []compared{g}
}

var table2Spec = &Spec{
	Name:     "table2",
	Title:    "Table 2: non-uniformly distributed redundant requests (N=10)",
	Desc:     "geometrically biased remote-cluster selection",
	Params:   "N=10, schemes=R2,R3,R4,HALF",
	Variants: func(opts Options) []variant { return groupVariants(table2Groups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(table2Groups(opts), res)
		if err != nil {
			return nil, err
		}
		header := []string{"metric"}
		for _, s := range table2Schemes {
			header = append(header, s.String())
		}
		t := report.NewTable("Table 2: biased remote selection, relative to no redundancy", header...)
		avg := []any{"rel avg stretch"}
		cv := []any{"rel CV of stretches"}
		for _, rel := range gs[0].rel {
			avg = append(avg, report.F(rel.AvgStretch, 2))
			cv = append(cv, report.F(rel.CVStretch, 2))
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

// fig3Groups builds the interarrival-time sweep on a 10-cluster
// platform: every scheme against the baseline per interarrival time.
func fig3Groups(opts Options) []compared {
	var gs []compared
	for _, iat := range sweepOr(opts, DefaultIATs) {
		cfg := opts.base(10)
		for i := range cfg.Clusters {
			cfg.Clusters[i].MeanIAT = iat
		}
		gs = append(gs, against(fmt.Sprintf("iat=%.2f", iat), cfg, core.Schemes...))
	}
	return gs
}

var fig3Spec = &Spec{
	Name:          "fig3",
	Title:         "Figure 3: relative average stretch vs job interarrival time (N=10)",
	Desc:          "arrival-rate sweep across the stability range",
	Params:        "iat=1.96..9.80s (Sweep overrides)",
	PositiveSweep: true,
	Variants:      func(opts Options) []variant { return groupVariants(fig3Groups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(fig3Groups(opts), res)
		if err != nil {
			return nil, err
		}
		iats := sweepOr(opts, DefaultIATs)
		xs := make([]any, len(iats))
		for i, iat := range iats {
			xs[i] = report.F(iat, 2)
		}
		return []*report.Table{schemeCurveTable("Figure 3: relative average stretch vs mean interarrival time (s)", "iat",
			xs, gs, func(r metrics.Relative) float64 { return r.AvgStretch })}, nil
	},
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

// table3Groups builds the heterogeneous-platform matrix: all schemes
// against no redundancy on randomized heterogeneous platforms.
func table3Groups(opts Options) []compared {
	const n = 10
	g := compared{base: variant{Name: "NONE", Config: opts.base(n), Mutate: heterogeneousMutate}}
	for _, s := range core.Schemes {
		cfg := opts.base(n)
		cfg.Scheme = s
		g.cells = append(g.cells, variant{Name: s.String(), Config: cfg, Mutate: heterogeneousMutate})
	}
	return []compared{g}
}

var table3Spec = &Spec{
	Name:     "table3",
	Title:    "Table 3: heterogeneous platforms (N=10)",
	Desc:     "randomized node counts and arrival rates per replication",
	Params:   "N=10, nodes in {16..256}, iat in [2s,20s]",
	Variants: func(opts Options) []variant { return groupVariants(table3Groups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(table3Groups(opts), res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Table 3: heterogeneous platforms, relative to no redundancy",
			"scheme", "rel avg stretch", "rel CV of stretches")
		for si, rel := range gs[0].rel {
			t.AddRow(core.Schemes[si].String(), report.F(rel.AvgStretch, 2), report.F(rel.CVStretch, 2))
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
			pt.AllStretch = meanOver(res[idx], avgStretch(allJobs))
			if p > 0 {
				pt.RStretch = meanOver(res[idx], avgStretch(redundantJobs))
			}
			if p < 1 {
				pt.NRStretch = meanOver(res[idx], avgStretch(nonRedundantJobs))
			}
			points = append(points, pt)
			idx++
		}
	}
	return points
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

// queueGrowthVariants builds the NONE-vs-ALL pair that measures
// steady-state queue inflation due to redundant requests (the paper
// finds under 2% for ALL on 10 clusters over 24 hours, because
// redundant copies are canceled when execution starts); the caller
// chooses the window via opts.Horizon (the paper uses 24h, which the
// qgrowth spec applies).
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

// inflationGroups builds the late-binding ablation matrix: HALF at
// each requested-time inflation level against one baseline. It
// reproduces the Section 3.1.2 observation: raising the requested
// compute time of remote redundant copies by 10% or 50% (to cover late
// input-data binding) does not change the findings.
func inflationGroups(opts Options) []compared {
	const n = 10
	g := compared{base: variant{Name: "NONE", Config: opts.base(n)}}
	for _, f := range inflationLevels {
		cfg := opts.base(n)
		cfg.Scheme = core.SchemeHalf
		cfg.InflateRemote = f
		g.cells = append(g.cells, variant{Name: fmt.Sprintf("HALF/inflate=%.0f%%", f*100), Config: cfg})
	}
	return []compared{g}
}

var inflateSpec = &Spec{
	Name:     "inflate",
	Title:    "Section 3.1.2: requested-time inflation of redundant copies",
	Desc:     "late-binding ablation: remote copies request 0/10/50% more time",
	Params:   "N=10, scheme=HALF, inflation=0,10,50%",
	Variants: func(opts Options) []variant { return groupVariants(inflationGroups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(inflationGroups(opts), res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Requested-time inflation of remote copies (HALF vs no redundancy)",
			"inflation", "rel avg stretch", "rel CV of stretches")
		for i, rel := range gs[0].rel {
			t.AddRow(fmt.Sprintf("%.0f%%", inflationLevels[i]*100), report.F(rel.AvgStretch, 2), report.F(rel.CVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}

// defaultLoads are the offered-load sweep positions.
var defaultLoads = []float64{0.85, 0.90, 0.95, 1.00, 1.05}

// loadSweepGroups builds the load-sweep matrix, an ablation beyond the
// paper: ALL against no redundancy per offered load, across the
// saturation point, to expose where redundant requests stop helping
// (the regime the paper's N<=5 "harmful" cases live in).
func loadSweepGroups(opts Options) []compared {
	var gs []compared
	for _, load := range sweepOr(opts, defaultLoads) {
		o := opts
		o.TargetLoad = load
		gs = append(gs, against(fmt.Sprintf("load=%.2f", load), o.base(10), core.SchemeAll))
	}
	return gs
}

var loadsweepSpec = &Spec{
	Name:          "loadsweep",
	Title:         "Ablation: offered-load sweep (ALL vs NONE)",
	Desc:          "where redundancy stops helping as load crosses saturation",
	Params:        "N=10, load=0.85..1.05 (Sweep overrides)",
	PositiveSweep: true,
	Variants:      func(opts Options) []variant { return groupVariants(loadSweepGroups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(loadSweepGroups(opts), res)
		if err != nil {
			return nil, err
		}
		loads := sweepOr(opts, defaultLoads)
		t := report.NewTable("Offered-load sweep: ALL vs NONE", "load", "baseline stretch", "rel avg stretch")
		for i, g := range gs {
			t.AddRow(report.F(loads[i], 2),
				report.F(meanOver(g.base, avgStretch(allJobs)), 3), report.F(g.rel[0].AvgStretch, 3))
		}
		return []*report.Table{t}, nil
	},
}
