// Specs for the extensions beyond the paper's evaluation: the
// future-work options (iii) and (iv) of Section 2, and scheduler
// design-choice ablations.

package experiment

import (
	"redreq/internal/core"
	"redreq/internal/metrics"
	"redreq/internal/moldable"
	"redreq/internal/multiq"
	"redreq/internal/report"
	"redreq/internal/sched"
	"redreq/internal/stats"
)

// multiQueueResult compares best-single-queue submission against
// redundant submission to all eligible queues of one resource
// (option iii).
type multiQueueResult struct {
	SingleAvgStretch    float64
	RedundantAvgStretch float64
	RelAvgStretch       float64
	// ShortWinsSingle / ShortWinsRedundant are the fractions of jobs
	// served by the "short" queue under each policy.
	ShortWinsSingle    float64
	ShortWinsRedundant float64
	Reps               int
}

// multiQueue runs the option (iii) experiment over opts.Reps seeds.
// It loops over multiq.RunScenario directly rather than the matrix
// harness: the scenario engine has its own config and result types.
func multiQueue(opts Options) (multiQueueResult, error) {
	var singles, reds []float64
	var shortS, shortR float64
	for rep := 0; rep < opts.Reps; rep++ {
		cfg := multiq.ScenarioConfig{
			Nodes:      opts.Nodes,
			Queues:     multiq.DefaultQueues(),
			Seed:       opts.BaseSeed + uint64(rep)*seedStride,
			Horizon:    opts.Horizon,
			TargetLoad: opts.TargetLoad,
			MinRuntime: opts.MinRuntime,
			MaxRuntime: opts.MaxRuntime,
		}
		cfg.Policy = multiq.BestQueue
		s, err := multiq.RunScenario(cfg)
		if err != nil {
			return multiQueueResult{}, err
		}
		cfg.Policy = multiq.RedundantQueues
		r, err := multiq.RunScenario(cfg)
		if err != nil {
			return multiQueueResult{}, err
		}
		singles = append(singles, s.AvgStretch)
		reds = append(reds, r.AvgStretch)
		shortS += float64(s.WinsByQueue["short"]) / float64(len(s.Jobs))
		shortR += float64(r.WinsByQueue["short"]) / float64(len(r.Jobs))
	}
	n := float64(opts.Reps)
	out := multiQueueResult{
		SingleAvgStretch:    stats.Mean(singles),
		RedundantAvgStretch: stats.Mean(reds),
		ShortWinsSingle:     shortS / n,
		ShortWinsRedundant:  shortR / n,
		Reps:                opts.Reps,
	}
	var ratios []float64
	for i := range singles {
		ratios = append(ratios, reds[i]/singles[i])
	}
	out.RelAvgStretch = stats.Mean(ratios)
	return out, nil
}

var multiqSpec = &Spec{
	Name:   "multiq",
	Title:  "Extension (option iii): redundant requests across queues of one resource",
	Desc:   "best-queue vs submit-to-all-queues on a multi-queue resource",
	Params: "queues=short,long (multiq defaults)",
	Tables: func(opts Options) ([]*report.Table, error) {
		r, err := multiQueue(opts)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Redundant requests across queues of one resource",
			"metric", "value")
		t.AddRow("avg stretch, best-queue", report.F(r.SingleAvgStretch, 2))
		t.AddRow("avg stretch, redundant-queues", report.F(r.RedundantAvgStretch, 2))
		t.AddRow("ratio redundant/best", report.F(r.RelAvgStretch, 2))
		t.AddRow("short-queue wins, best-queue (%)", report.F(r.ShortWinsSingle*100, 0))
		t.AddRow("short-queue wins, redundant (%)", report.F(r.ShortWinsRedundant*100, 0))
		return []*report.Table{t}, nil
	},
}

// moldableResult compares fixed-shape submission against redundant
// shape variants (option iv).
type moldableResult struct {
	FixedAvgStretch     float64
	RedundantAvgStretch float64
	RelAvgStretch       float64
	// ShapeChangedFrac is the fraction of jobs that ended up running
	// with a shape different from their base request.
	ShapeChangedFrac float64
	Reps             int
}

// moldableExp runs the option (iv) experiment over opts.Reps seeds.
func moldableExp(opts Options) (moldableResult, error) {
	var fixed, red, changed []float64
	for rep := 0; rep < opts.Reps; rep++ {
		cfg := moldable.ScenarioConfig{
			Nodes:      opts.Nodes,
			Alg:        sched.EASY,
			Seed:       opts.BaseSeed + uint64(rep)*seedStride,
			Horizon:    opts.Horizon,
			TargetLoad: opts.TargetLoad,
			MinRuntime: opts.MinRuntime,
			MaxRuntime: opts.MaxRuntime,
		}
		cfg.Policy = moldable.FixedShape
		f, err := moldable.RunScenario(cfg)
		if err != nil {
			return moldableResult{}, err
		}
		cfg.Policy = moldable.RedundantShapes
		r, err := moldable.RunScenario(cfg)
		if err != nil {
			return moldableResult{}, err
		}
		fixed = append(fixed, f.AvgStretch)
		red = append(red, r.AvgStretch)
		changed = append(changed, float64(r.ShapeChanged)/float64(len(r.Jobs)))
	}
	out := moldableResult{
		FixedAvgStretch:     stats.Mean(fixed),
		RedundantAvgStretch: stats.Mean(red),
		ShapeChangedFrac:    stats.Mean(changed),
		Reps:                opts.Reps,
	}
	var ratios []float64
	for i := range fixed {
		ratios = append(ratios, red[i]/fixed[i])
	}
	out.RelAvgStretch = stats.Mean(ratios)
	return out, nil
}

var moldableSpec = &Spec{
	Name:   "moldable",
	Title:  "Extension (option iv): redundant shape variants for moldable jobs",
	Desc:   "fixed-shape vs redundant shape variants under EASY",
	Params: "shapes per job from moldable defaults",
	Tables: func(opts Options) ([]*report.Table, error) {
		r, err := moldableExp(opts)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Redundant shape variants for moldable jobs (stretch vs base-shape runtime)",
			"metric", "value")
		t.AddRow("avg stretch, fixed shape", report.F(r.FixedAvgStretch, 2))
		t.AddRow("avg stretch, redundant shapes", report.F(r.RedundantAvgStretch, 2))
		t.AddRow("ratio redundant/fixed", report.F(r.RelAvgStretch, 2))
		t.AddRow("jobs run with a changed shape (%)", report.F(r.ShapeChangedFrac*100, 0))
		return []*report.Table{t}, nil
	},
}

// ablationRow is one scheduler design choice toggled.
type ablationRow struct {
	Name          string
	RelAvgStretch float64 // HALF vs NONE under the ablated scheduler
	RelCVStretch  float64
}

// ablationToggles are the design-choice toggles DESIGN.md calls out:
// no backfilling on cancellation, no CBF compression, compression on
// cancellation, and queue-length-aware remote selection.
var ablationToggles = []struct {
	name string
	mod  func(cfg *core.Config)
}{
	{"baseline (EASY, uniform selection)", func(cfg *core.Config) {}},
	{"no backfill on cancellation", func(cfg *core.Config) { cfg.DisableCancelBackfill = true }},
	{"CBF", func(cfg *core.Config) { cfg.Alg = sched.CBF }},
	{"CBF without compression", func(cfg *core.Config) {
		cfg.Alg = sched.CBF
		cfg.DisableCompression = true
	}},
	{"CBF with compress-on-cancel", func(cfg *core.Config) {
		cfg.Alg = sched.CBF
		cfg.CompressOnCancel = true
	}},
	{"queue-length-aware selection", func(cfg *core.Config) { cfg.Routing = core.RouteLeastQueue }},
}

// ablationVariants builds the flattened toggle matrix: a (NONE, HALF)
// pair per design-choice toggle. Replication seeds depend only on the
// replication index, so one flat matrix reproduces the numbers of
// per-toggle runs exactly.
func ablationVariants(opts Options) []variant {
	const n = 10
	var vs []variant
	for _, tg := range ablationToggles {
		baseCfg := opts.base(n)
		tg.mod(&baseCfg)
		halfCfg := baseCfg
		halfCfg.Scheme = core.SchemeHalf
		vs = append(vs,
			variant{Name: "NONE/" + tg.name, Config: baseCfg},
			variant{Name: "HALF/" + tg.name, Config: halfCfg})
	}
	return vs
}

// ablationRows reduces the matrix built by ablationVariants.
func ablationRows(res [][]runSummary) ([]ablationRow, error) {
	rows := make([]ablationRow, 0, len(ablationToggles))
	for i, tg := range ablationToggles {
		rel, err := metrics.Relativize(samples(res[2*i+1], allJobs), samples(res[2*i], allJobs))
		if err != nil {
			return nil, err
		}
		rows = append(rows, ablationRow{
			Name:          tg.name,
			RelAvgStretch: rel.AvgStretch,
			RelCVStretch:  rel.CVStretch,
		})
	}
	return rows, nil
}

// ablations re-runs the core HALF-vs-NONE comparison (N=10, EASY or
// CBF as noted) under each design-choice toggle.
func ablations(opts Options) ([]ablationRow, error) {
	res, err := runMatrix(opts, ablationVariants(opts))
	if err != nil {
		return nil, err
	}
	return ablationRows(res)
}

var ablationsSpec = &Spec{
	Name:     "ablations",
	Title:    "Ablations: scheduler design choices (HALF vs NONE, N=10)",
	Desc:     "cancel-backfill, CBF compression, selection-policy toggles",
	Params:   "N=10, scheme=HALF",
	Variants: func(opts Options) []variant { return ablationVariants(opts) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		rows, err := ablationRows(res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Scheduler design-choice ablations (HALF vs NONE, N=10)",
			"design choice", "rel avg stretch", "rel CV of stretches")
		for _, r := range rows {
			t.AddRow(r.Name, report.F(r.RelAvgStretch, 2), report.F(r.RelCVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}
