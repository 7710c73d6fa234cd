// Specs for the extensions beyond the paper's evaluation: the
// future-work options (iii) and (iv) of Section 2, and scheduler
// design-choice ablations.

package experiment

import (
	"fmt"

	"redreq/internal/core"
	"redreq/internal/des"
	"redreq/internal/moldable"
	"redreq/internal/report"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/stats"
	"redreq/internal/workload"
)

// The multi-queue resource of option (iii) is one EASY cluster whose
// request classes are its queues, served in class order: a "short"
// queue of requests up to an hour, at most four running at once (a
// tight PBS-style slot limit), before an unlimited "long" one. The slot
// limit makes the queue choice a dilemma: the short queue is served
// first but can be slot-saturated while the long queue has headroom.
const (
	shortQueue, longQueue = 0, 1
	shortMaxEstimate      = 3600
	shortMaxRunning       = 4
)

// multiQueueCluster is that resource's scheduler.
var multiQueueCluster = sched.Config{Alg: sched.EASY, Order: sched.OrderClass, ClassLimit: []int{shortQueue: shortMaxRunning, longQueue: 0}}

// The shapes a moldable job of option (iv) offers under redundancy: up
// to two halving and doubling steps around its base shape, none below
// half parallel efficiency.
const (
	moldableExtraShapes   = 2
	moldableMinEfficiency = 0.5
)

// extJob is one job of an extension run: the stream's job, the requests
// it sends, and the one that won.
type extJob struct {
	workload.Job
	copies []sched.Request
	winner *sched.Request
}

// extensionModel returns the options' workload model, calibrated to
// opts.TargetLoad when that is set. Calibration replays a tape of
// reference draws, a few milliseconds a call, so comparePolicies builds
// the model once for all its simulations.
func extensionModel(opts Options) (*workload.Model, error) {
	if opts.Nodes < 1 || opts.Horizon <= 0 {
		return nil, fmt.Errorf("experiment: bad extension platform: %d nodes, horizon %v", opts.Nodes, opts.Horizon)
	}
	model := workload.NewModel(opts.Nodes)
	if opts.MinRuntime > 0 {
		model.MinRuntime = opts.MinRuntime
	}
	if opts.MaxRuntime > 0 {
		model.MaxRuntime = opts.MaxRuntime
	}
	if opts.TargetLoad > 0 {
		model.CalibrateClampedCached(0xCA11B8A7E, opts.Nodes, opts.TargetLoad, 100000)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// runExtension runs replication rep of model's workload on one cluster
// of opts.Nodes nodes under cfg. copies gives each job's requests, shape
// and class; it may draw from src, after the stream is generated. A
// job's requests are submitted together at its arrival, the first to
// start wins and the rest are canceled. Every job comes back with a
// winner that finished.
func runExtension(model *workload.Model, opts Options, rep int, cfg sched.Config, copies copyFunc) ([]extJob, error) {
	src := rng.New(opts.BaseSeed + uint64(rep)*seedStride)
	stream := model.GenerateWindow(src, opts.Horizon)
	jobs := make([]extJob, len(stream))
	for i, j := range stream {
		cs, err := copies(src, j)
		if err != nil {
			return nil, err
		}
		jobs[i] = extJob{Job: j, copies: cs}
	}

	sim := des.New()
	cfg.Nodes = opts.Nodes
	cl := sched.NewCluster(sim, "extension", 0, cfg)
	cl.OnStart = func(r *sched.Request) {
		j := r.Owner.(*extJob)
		j.winner = r
		for k := range j.copies {
			if c := &j.copies[k]; c != r {
				cl.Cancel(c)
			}
		}
	}
	for i := range jobs {
		j := &jobs[i]
		sim.Schedule(j.Arrival, func() {
			for k := range j.copies {
				r := &j.copies[k]
				r.JobID, r.Owner = int64(i), j
				cl.Submit(r)
			}
		})
	}
	sim.Run()
	for i := range jobs {
		if w := jobs[i].winner; w == nil || w.State != sched.Done {
			return nil, fmt.Errorf("experiment: job %d never completed", i)
		}
	}
	return jobs, nil
}

// stretch is a job's turnaround over its stream runtime (the base
// shape's, for a moldable job), at least 1.
func (j *extJob) stretch() float64 {
	return max(1, (j.winner.End-j.Arrival)/j.Runtime)
}

// copyFunc gives a job's requests, shape and class; it may draw from
// src.
type copyFunc func(src *rng.Source, j workload.Job) ([]sched.Request, error)

// copyPolicy gives the copyFunc of the single-request policy or of the
// redundant one.
type copyPolicy func(redundant bool) copyFunc

// policyResult is one extension's comparison over opts.Reps seeds, each
// mean taken over the reps: index 0 is the single-request policy, 1 the
// redundant one. Share is the share of jobs an extension marks.
type policyResult struct {
	AvgStretch [2]float64
	RelAvg     float64 // mean of redundant/single average stretch
	Share      [2]float64
}

// policySims is the number of simulations comparePolicies runs: both
// policies on every rep.
func policySims(opts Options) int { return 2 * opts.Reps }

// comparePolicies runs both request policies on every rep's stream,
// opts.Workers simulations at a time, reporting each to opts.Progress,
// and reduces in (rep, policy) order.
func comparePolicies(opts Options, cfg sched.Config, policy copyPolicy, mark func(*extJob) bool) (policyResult, error) {
	model, err := extensionModel(opts)
	if err != nil {
		return policyResult{}, err
	}
	var avg, share [2][]float64
	for p := range avg {
		avg[p] = make([]float64, opts.Reps)
		share[p] = make([]float64, opts.Reps)
	}
	errs := make([][2]error, opts.Reps)
	tick := ticker(opts.Progress, policySims(opts))
	pool := NewPool(opts.Workers)
	for rep := 0; rep < opts.Reps; rep++ {
		for p, redundant := range []bool{false, true} {
			pool.Do(func() {
				defer tick()
				jobs, err := runExtension(model, opts, rep, cfg, policy(redundant))
				if err != nil {
					errs[rep][p] = err
					return
				}
				stretches := make([]float64, len(jobs))
				marked := 0
				for i := range jobs {
					stretches[i] = jobs[i].stretch()
					if mark(&jobs[i]) {
						marked++
					}
				}
				avg[p][rep] = stats.Mean(stretches)
				share[p][rep] = float64(marked) / float64(len(jobs))
			})
		}
	}
	pool.Close()
	for _, e := range errs {
		for _, err := range e {
			if err != nil {
				return policyResult{}, err
			}
		}
	}
	ratios := make([]float64, opts.Reps)
	for i := range ratios {
		ratios[i] = avg[1][i] / avg[0][i]
	}
	return policyResult{
		AvgStretch: [2]float64{stats.Mean(avg[0]), stats.Mean(avg[1])},
		RelAvg:     stats.Mean(ratios),
		Share:      [2]float64{stats.Mean(share[0]), stats.Mean(share[1])},
	}, nil
}

// queueCopies sends a job to the short queue when it is eligible, and
// also to the long one when redundant or not eligible.
func queueCopies(redundant bool) copyFunc {
	return func(_ *rng.Source, j workload.Job) ([]sched.Request, error) {
		r := sched.Request{Nodes: j.Nodes, Runtime: j.Runtime, Estimate: j.Estimate, Class: longQueue}
		if j.Estimate > shortMaxEstimate {
			return []sched.Request{r}, nil
		}
		short := r
		short.Class = shortQueue
		if !redundant {
			return []sched.Request{short}, nil
		}
		return []sched.Request{short, r}, nil
	}
}

// multiqSpec compares best-single-queue submission against redundant
// submission to all eligible queues of one resource (option iii).
var multiqSpec = &Spec{
	Name:      "multiq",
	Title:     "Extension (option iii): redundant requests across queues of one resource",
	Desc:      "best-queue vs submit-to-all-queues on a multi-queue resource",
	Params:    "queues=short,long (multiq defaults)",
	tableSims: policySims,
	Tables: func(opts Options) ([]*report.Table, error) {
		r, err := comparePolicies(opts, multiQueueCluster, queueCopies, func(j *extJob) bool { return j.winner.Class == shortQueue })
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Redundant requests across queues of one resource",
			"metric", "value")
		t.AddRow("avg stretch, best-queue", report.F(r.AvgStretch[0], 2))
		t.AddRow("avg stretch, redundant-queues", report.F(r.AvgStretch[1], 2))
		t.AddRow("ratio redundant/best", report.F(r.RelAvg, 2))
		t.AddRow("short-queue wins, best-queue (%)", report.F(r.Share[0]*100, 0))
		t.AddRow("short-queue wins, redundant (%)", report.F(r.Share[1]*100, 0))
		return []*report.Table{t}, nil
	},
}

// shapeCopies draws a job's sequential fraction, rebuilds its speedup
// model from the base shape, and sends the base shape alone, or every
// variant when redundant. Each shape keeps the job's estimate-to-runtime
// ratio.
func shapeCopies(maxNodes int) copyPolicy {
	return func(redundant bool) copyFunc {
		return func(src *rng.Source, j workload.Job) ([]sched.Request, error) {
			m, err := moldable.FromObservation(j.Nodes, j.Runtime, moldable.RandomSeqFraction(src))
			if err != nil {
				return nil, err
			}
			variants := []moldable.Variant{{Nodes: j.Nodes, Time: j.Runtime}}
			if redundant {
				variants = m.Variants(j.Nodes, maxNodes, moldableExtraShapes, moldableMinEfficiency)
			}
			estRatio := j.Estimate / j.Runtime
			rs := make([]sched.Request, len(variants))
			for i, v := range variants {
				rs[i] = sched.Request{Nodes: v.Nodes, Runtime: v.Time, Estimate: v.Time * estRatio}
			}
			return rs, nil
		}
	}
}

// moldableSpec compares fixed-shape submission against redundant shape
// variants (option iv).
var moldableSpec = &Spec{
	Name:      "moldable",
	Title:     "Extension (option iv): redundant shape variants for moldable jobs",
	Desc:      "fixed-shape vs redundant shape variants under EASY",
	Params:    "shapes per job from moldable defaults",
	tableSims: policySims,
	Tables: func(opts Options) ([]*report.Table, error) {
		r, err := comparePolicies(opts, sched.Config{Alg: sched.EASY}, shapeCopies(opts.Nodes), func(j *extJob) bool { return j.winner.Nodes != j.Nodes })
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Redundant shape variants for moldable jobs (stretch vs base-shape runtime)",
			"metric", "value")
		t.AddRow("avg stretch, fixed shape", report.F(r.AvgStretch[0], 2))
		t.AddRow("avg stretch, redundant shapes", report.F(r.AvgStretch[1], 2))
		t.AddRow("ratio redundant/fixed", report.F(r.RelAvg, 2))
		t.AddRow("jobs run with a changed shape (%)", report.F(r.Share[1]*100, 0))
		return []*report.Table{t}, nil
	},
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

// ablationGroups builds the toggle matrix: the core HALF-vs-NONE
// comparison (N=10, EASY or CBF as noted) under each design-choice
// toggle. Replication seeds depend only on the replication index, so
// one flat matrix reproduces the numbers of per-toggle runs exactly.
func ablationGroups(opts Options) []compared {
	var gs []compared
	for _, tg := range ablationToggles {
		cfg := opts.base(10)
		tg.mod(&cfg)
		gs = append(gs, against(tg.name, cfg, core.SchemeHalf))
	}
	return gs
}

var ablationsSpec = &Spec{
	Name:     "ablations",
	Title:    "Ablations: scheduler design choices (HALF vs NONE, N=10)",
	Desc:     "cancel-backfill, CBF compression, selection-policy toggles",
	Params:   "N=10, scheme=HALF",
	Variants: func(opts Options) []variant { return groupVariants(ablationGroups(opts)) },
	Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
		gs, err := relativize(ablationGroups(opts), res)
		if err != nil {
			return nil, err
		}
		t := report.NewTable("Scheduler design-choice ablations (HALF vs NONE, N=10)",
			"design choice", "rel avg stretch", "rel CV of stretches")
		for i, g := range gs {
			t.AddRow(ablationToggles[i].name, report.F(g.rel[0].AvgStretch, 2), report.F(g.rel[0].CVStretch, 2))
		}
		return []*report.Table{t}, nil
	},
}
