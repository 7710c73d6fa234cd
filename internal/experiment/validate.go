// Spec for the validation harness: the simulator auditing itself. Two
// suites run under one registry name. The invariant suite replays a
// grid of representative scenarios (every scheme, every scheduler,
// fault plans, truncated runs, phi estimates) and audits each result
// with internal/invariant: causality, liveness, capacity, work
// conservation, CPU-time ledger balance, and bitwise determinism. The
// twin suite feeds exactly-specified M/M/k, M/D/k, M/H2/k, and
// redundancy workloads through cfg.Streams and requires the measured
// mean waits to match the closed-form predictions of invariant/twin
// within stated tolerances. Any violation fails the experiment with a
// non-zero exit; findings belong in FINDINGS.md.

package experiment

import (
	"fmt"
	"math"
	"strings"

	"redreq/internal/core"
	"redreq/internal/fault"
	"redreq/internal/invariant"
	"redreq/internal/invariant/twin"
	"redreq/internal/report"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// validateReps caps the replications of both suites. Three paired
// seeds are enough to exercise the checks, and the cap keeps the
// sequential (determinism requires it) suite affordable at default
// options.
const validateReps = 3

// Twin-suite scale, independent of Options: the closed forms fix k,
// rho, and the service law, so the suite pins its own tiny platform
// rather than inheriting the paper-shaped one.
const (
	twinService = 1.0  // mean service time in seconds
	twinHorizon = 8000 // arrival window in seconds
	twinServers = 8    // servers (nodes) per cluster
)

// invariantScenario is one audited configuration of the invariant
// suite.
type invariantScenario struct {
	name   string
	mutate func(cfg *core.Config)
}

func invariantScenarios() []invariantScenario {
	return []invariantScenario{
		{"NONE/EASY", func(cfg *core.Config) { cfg.Scheme = core.SchemeNone; cfg.RedundantFraction = 0 }},
		{"R2/EASY", func(cfg *core.Config) { cfg.Scheme = core.SchemeR2 }},
		{"ALL/EASY", func(cfg *core.Config) { cfg.Scheme = core.SchemeAll }},
		{"ALL/FCFS", func(cfg *core.Config) { cfg.Scheme = core.SchemeAll; cfg.Alg = sched.FCFS }},
		{"ALL/CBF", func(cfg *core.Config) { cfg.Scheme = core.SchemeAll; cfg.Alg = sched.CBF }},
		{"ALL/EASY/phi", func(cfg *core.Config) { cfg.Scheme = core.SchemeAll; cfg.EstMode = workload.Phi }},
		{"ALL/EASY/cancel-loss=0.25", func(cfg *core.Config) {
			cfg.Scheme = core.SchemeAll
			cfg.Faults = &fault.Plan{CancelLoss: 0.25}
		}},
		{"ALL/EASY/horizon-truncated", func(cfg *core.Config) {
			cfg.Scheme = core.SchemeAll
			cfg.StopAtHorizon = true
		}},
	}
}

// runInvariantSuite audits every scenario over reps paired seeds and
// returns the table plus all findings.
func runInvariantSuite(opts Options, reps int) (*report.Table, []invariant.Finding, error) {
	t := report.NewTable("Invariant suite (3 clusters, reps x scenario, all findings must be zero)",
		"scenario", "reps", "jobs", "findings", "status")
	var all []invariant.Finding
	for _, sc := range invariantScenarios() {
		cfg := opts.base(3)
		sc.mutate(&cfg)
		ctx := invariant.FromConfig(&cfg)
		jobs, count := 0, 0
		for r := 0; r < reps; r++ {
			cfg.Seed = opts.BaseSeed + uint64(r)*seedStride
			res, err := core.Run(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("validate: %s rep %d: %w", sc.name, r, err)
			}
			jobs += len(res.Jobs)
			fs := invariant.Check(ctx, res)
			count += len(fs)
			all = append(all, fs...)
		}
		t.AddRow(sc.name, reps, jobs, count, status(count == 0))
	}
	// Determinism: a rerun and a run on the shared-stream path must be
	// bit-identical to the first run.
	det := opts.base(2)
	det.Scheme = core.SchemeAll
	det.Seed = opts.BaseSeed
	fs := invariant.CheckDeterminism(det)
	all = append(all, fs...)
	t.AddRow("ALL/EASY/determinism x3", 3, "-", len(fs), status(len(fs) == 0))
	return t, all, nil
}

func status(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// twinCheck is one simulator-vs-closed-form comparison.
type twinCheck struct {
	name     string
	clusters int     // platform size (each twinServers nodes)
	rho      float64 // offered load per cluster
	scv      float64 // service-time squared coefficient of variation
	scheme   core.Scheme
	analytic func(lambda float64) float64 // per-cluster arrival rate -> predicted wait
	tol      float64                      // relative tolerance
}

func twinChecks() []twinCheck {
	k := twinServers
	return []twinCheck{
		{"M/M/k moderate load", 1, 0.6, 1, core.SchemeNone,
			func(l float64) float64 { return twin.MMkWait(k, l, twinService) }, 0.10},
		{"M/M/k heavy load", 1, 0.8, 1, core.SchemeNone,
			func(l float64) float64 { return twin.MMkWait(k, l, twinService) }, 0.10},
		{"M/D/k (Allen-Cunneen)", 1, 0.8, 0, core.SchemeNone,
			func(l float64) float64 { return twin.MGkWait(k, l, twinService, 0) }, 0.20},
		{"M/H2/k scv=4 (Allen-Cunneen)", 1, 0.8, 4, core.SchemeNone,
			func(l float64) float64 { return twin.MGkWait(k, l, twinService, 4) }, 0.20},
		{"redundancy NONE = M/M/k", 2, 0.8, 1, core.SchemeNone,
			func(l float64) float64 { return twin.MMkWait(k, l, twinService) }, 0.10},
		// Identical copies on every cluster with cancel-on-start pool
		// the platform into one central queue: M/M/nk.
		{"redundancy ALL pools to M/M/2k", 2, 0.8, 1, core.SchemeAll,
			func(l float64) float64 { return twin.MMkWait(2*k, 2*l, twinService) }, 0.15},
		// Above the cancel-on-completion stability threshold (rho* =
		// 1/d = 0.5) but below the cancel-on-start one (rho* = 1), the
		// simulator must stay stable and keep matching the pooled twin.
		{"stability d=2 at rho=0.85 (rho* = 1)", 2, 0.85, 1, core.SchemeAll,
			func(l float64) float64 { return twin.MMkWait(2*k, 2*l, twinService) }, 0.15},
	}
}

// twinStream synthesizes one cluster's Poisson arrival stream of
// 1-node jobs over the twin horizon, with service times drawn from the
// law selected by scv: deterministic (0), exponential (1), or a
// balanced-means two-phase hyperexponential (>1).
func twinStream(src *rng.Source, lambda, scv float64) []workload.Job {
	p, r1, r2 := twin.HyperExpBalanced(twinService, math.Max(scv, 1))
	var jobs []workload.Job
	for t := src.Exponential(1 / lambda); t < twinHorizon; t += src.Exponential(1 / lambda) {
		var s float64
		switch {
		case scv == 0:
			s = twinService
		case scv == 1:
			s = src.Exponential(twinService)
		default:
			rate := r1
			if !src.Bernoulli(p) {
				rate = r2
			}
			s = src.Exponential(1 / rate)
		}
		if s <= 0 {
			s = 1e-9
		}
		jobs = append(jobs, workload.Job{Arrival: t, Nodes: 1, Runtime: s, Estimate: s})
	}
	return jobs
}

// meanWaitWindow averages the queueing wait of jobs submitted in the
// central [0.1, 0.9] fraction of the horizon, trimming the empty-start
// transient and the draining tail.
func meanWaitWindow(res *core.Result) (float64, int) {
	lo, hi := 0.1*twinHorizon, 0.9*twinHorizon
	var sum float64
	var n int
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Submit >= lo && j.Submit <= hi {
			sum += j.Wait()
			n++
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	return sum / float64(n), n
}

// runTwinSuite simulates every twin check over reps seeds and compares
// the measured waits against the closed forms.
func runTwinSuite(opts Options, reps int) (*report.Table, []invariant.Finding, error) {
	t := report.NewTable(
		fmt.Sprintf("Analytical twins (k=%d per cluster, service mean %gs, FCFS, 1-node jobs)", twinServers, twinService),
		"twin", "rho", "scv", "W sim", "W analytic", "rel err", "tol", "status")
	var all []invariant.Finding
	for ci, tc := range twinChecks() {
		lambda := tc.rho * float64(twinServers) / twinService
		var wsum float64
		for r := 0; r < reps; r++ {
			seed := opts.BaseSeed + uint64(1000+100*ci+r)*seedStride
			src := rng.New(seed)
			streams := make([][]workload.Job, tc.clusters)
			clusters := make([]core.ClusterSpec, tc.clusters)
			for c := range streams {
				streams[c] = twinStream(src, lambda, tc.scv)
				clusters[c] = core.ClusterSpec{Nodes: twinServers}
			}
			cfg := core.Config{
				Clusters:          clusters,
				Alg:               sched.FCFS,
				Scheme:            tc.scheme,
				RedundantFraction: 1,
				Routing:           core.RouteUniform,
				Seed:              seed,
				Horizon:           twinHorizon,
				EstMode:           workload.Exact,
				Streams:           streams,
			}
			if tc.scheme == core.SchemeNone {
				cfg.RedundantFraction = 0
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("validate: twin %q rep %d: %w", tc.name, r, err)
			}
			all = append(all, invariant.Check(invariant.FromConfig(&cfg), res)...)
			w, n := meanWaitWindow(res)
			if n == 0 {
				return nil, nil, fmt.Errorf("validate: twin %q rep %d produced no jobs in the measurement window", tc.name, r)
			}
			wsum += w
		}
		wsim := wsum / float64(reps)
		want := tc.analytic(lambda)
		relErr := math.Abs(wsim-want) / want
		if relErr > tc.tol {
			all = append(all, invariant.Finding{
				Invariant: "twin", Job: -1, Cluster: -1,
				Detail: fmt.Sprintf("%s: simulated wait %.4f vs analytic %.4f (rel err %.3f > tol %.2f)",
					tc.name, wsim, want, relErr, tc.tol),
			})
		}
		t.AddRow(tc.name, report.F(tc.rho, 2), report.F(tc.scv, 0),
			report.F(wsim, 4), report.F(want, 4), report.F(relErr, 3),
			report.F(tc.tol, 2), status(relErr <= tc.tol))
	}
	return t, all, nil
}

var validateSpec = &Spec{
	Name:  "validate",
	Title: "Validation: invariant suite, analytical twins",
	Desc:  "audits representative runs against invariants and closed-form queueing twins",
	Params: fmt.Sprintf("reps capped at %d; twins pin k=%d, service=%gs, horizon=%gs (Options ignored there)",
		validateReps, twinServers, twinService, float64(twinHorizon)),
	Tables: func(opts Options) ([]*report.Table, error) {
		reps := opts.Reps
		if reps > validateReps {
			reps = validateReps
		}
		invTable, findings, err := runInvariantSuite(opts, reps)
		if err != nil {
			return nil, err
		}
		twinTable, twinFindings, err := runTwinSuite(opts, reps)
		if err != nil {
			return nil, err
		}
		findings = append(findings, twinFindings...)
		if len(findings) > 0 {
			var b strings.Builder
			fmt.Fprintf(&b, "validate: %d finding(s):", len(findings))
			for i, f := range findings {
				if i == 8 {
					fmt.Fprintf(&b, "\n  ... %d more", len(findings)-i)
					break
				}
				b.WriteString("\n  " + f.String())
			}
			b.WriteString("\nrecord confirmed violations in FINDINGS.md")
			return nil, fmt.Errorf("%s", b.String())
		}
		return []*report.Table{invTable, twinTable}, nil
	},
}
