// Package experiment contains one driver per table and figure of the
// paper's evaluation. Each driver builds the experiment's simulation
// configurations, runs replications in parallel across worker
// goroutines (replications are embarrassingly parallel), and reduces
// the per-replication samples to the rows or series the paper reports.
package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"redreq/internal/core"
	"redreq/internal/invariant"
	"redreq/internal/metrics"
	"redreq/internal/obs"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// Options are shared experiment parameters. The defaults reproduce the
// paper's setup (Section 3.3) under the calibration documented in
// DESIGN.md: 128-node clusters, 6 hours of submissions at the
// peak-hour arrival rate, offered load just below saturation.
type Options struct {
	// Reps is the number of replicated experiments per data point
	// (the paper uses 50; the default trades precision for time).
	Reps int
	// Workers is the number of concurrent simulations (0 =
	// GOMAXPROCS).
	Workers int
	// BaseSeed seeds replication r with BaseSeed + r*stride, pairing
	// schemes against the baseline on identical job streams.
	BaseSeed uint64
	// Horizon is the submission window in seconds.
	Horizon float64
	// Nodes is the homogeneous cluster size.
	Nodes int
	// TargetLoad, MinRuntime, and MaxRuntime are the workload
	// calibration knobs (see DESIGN.md "Calibration notes").
	TargetLoad float64
	MinRuntime float64
	MaxRuntime float64
	// Routing is the remote-copy routing policy for experiments that
	// do not pin their own (default uniform, the paper's setup);
	// core.ParseRouting names. Specs that study a particular policy
	// (table2's bias, the routing matrix) override it per variant.
	Routing core.Routing
	// Ordering is the local queue ordering every cluster runs under
	// (default FCFS, the paper's setup); sched.ParseOrdering names.
	Ordering sched.Ordering
	// Staleness is the grid information service publish interval in
	// seconds for informed routing policies: 0 defaults to the control
	// latency, negative means live zero-staleness reads (see
	// core.Config.Staleness).
	Staleness float64
	// Sweep overrides a sweep experiment's default x-positions
	// (platform sizes for fig12, interarrival times for fig3,
	// redundant fractions for fig4, offered loads for loadsweep, cancel
	// loss rates for faults, queue depths for sec4, offered rates for
	// overload). Experiments without a sweep axis ignore it; those
	// whose axis has no zero point reject a zero position (see
	// Spec.PositiveSweep).
	Sweep []float64
	// Stack selects the overload experiment's real-stack variant:
	// "legacy" (paper-faithful full-scan daemon, per-event journal,
	// unpooled clients), "fast" (incremental cycles, group-committed
	// journal, pooled batched clients), or "" for both. Other
	// experiments ignore it.
	Stack string
	// Progress, when non-nil, receives (done, total) once per
	// simulation — completed, failed, or skipped because an earlier
	// one failed — so done always reaches total. It is called from
	// several goroutines at once.
	Progress func(done, total int)
	// Trace, when non-nil, aggregates every replication's run
	// internals (DES counters, queue-depth series, redundant
	// submit/cancel lifecycle) into one trace: each simulation runs
	// with its own trace, merged in on completion.
	Trace *obs.Trace
	// Cache, when non-nil, memoizes per-run summaries by config
	// fingerprint with single-flight semantics, so identical (config,
	// seed) runs repeated across experiments execute exactly once per
	// process (see core.Memo). Results are unchanged: a cached summary
	// is bit-identical to one built from a fresh run.
	Cache *core.Memo
}

// Defaults returns the paper-shaped default options.
func Defaults() Options {
	return Options{
		Reps:       10,
		Workers:    runtime.GOMAXPROCS(0),
		BaseSeed:   20060619, // HPDC 2006 opened June 19, 2006
		Horizon:    6 * 3600,
		Nodes:      128,
		TargetLoad: 0.45,
		MinRuntime: 30,
		MaxRuntime: 36 * 3600,
	}
}

// Quick returns reduced-scale options for benchmarks and tests: fewer
// replications and a shorter window, preserving the experiment's
// structure.
func Quick() Options {
	o := Defaults()
	o.Reps = 3
	o.Horizon = 3600
	return o
}

const seedStride = 0x9E3779B97F4A7C15

// ContendedLoad is the offered load used for the experiments that
// need a contended regime: the mixed-population unfairness study
// (Figure 4) and the predictability study (Table 4). The paper's
// Figure 4 reports absolute average stretches between roughly 4 and
// 24, which places that experiment's platform at or past saturation;
// below saturation the unfairness effect (non-redundant jobs degrading
// as more users turn redundant) does not materialize because redundant
// jobs relieve, rather than contend for, local capacity. Just above
// saturation both of the paper's Figure 4 observations reproduce:
// stretch grows with p for both job classes, while p=100 still beats
// p=0. See EXPERIMENTS.md "Calibration".
const ContendedLoad = 1.15

// base returns a Config for n homogeneous clusters under the options.
func (o Options) base(n int) core.Config {
	clusters := make([]core.ClusterSpec, n)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: o.Nodes}
	}
	return core.Config{
		Clusters:          clusters,
		Alg:               sched.EASY,
		Scheme:            core.SchemeNone,
		RedundantFraction: 1,
		Routing:           o.Routing,
		Ordering:          o.Ordering,
		Staleness:         o.Staleness,
		Horizon:           o.Horizon,
		EstMode:           workload.Exact,
		TargetLoad:        o.TargetLoad,
		MinRuntime:        o.MinRuntime,
		MaxRuntime:        o.MaxRuntime,
	}
}

// variant is one simulation configuration within an experiment; Mutate
// customizes the replication-specific config (e.g. randomized
// heterogeneous platforms need the replication index). Audit asks for
// every run's invariant findings in its summary.
//
// Config is an immutable input: runMatrix copies the struct per task
// but shares its Clusters slice across all (variant, rep) tasks, so a
// Mutate hook that changes the platform must build a fresh slice and
// assign it to cfg.Clusters — never write through the shared backing
// array.
type variant struct {
	Name   string
	Config core.Config
	Mutate func(rep int, cfg *core.Config)
	Audit  bool
}

// jobClass selects the jobs a per-run statistic covers.
type jobClass int

const (
	allJobs          jobClass = iota
	redundantJobs             // "r jobs"
	nonRedundantJobs          // "n-r jobs"
	numClasses
)

var classFilters = [numClasses]metrics.Filter{nil, metrics.RedundantOnly, metrics.NonRedundantOnly}

// runSummary is everything a matrix spec reads of one simulation. The
// worker that ran the simulation builds it, so the Result and its job
// records die with the task; the memo and every spec's matrix hold
// these instead.
type runSummary struct {
	// Sample and Prediction are indexed by jobClass; predictions are
	// taken at MinEffectiveWait.
	Sample     [numClasses]metrics.Sample
	Prediction [numClasses]metrics.PredictionStats
	// OrphanStarts counts orphaned copies that started; Wasted is the
	// share of consumed CPU-seconds they burned.
	OrphanStarts int64
	Wasted       float64
	// Findings are the run's invariant findings (Audit variants only).
	Findings []invariant.Finding
}

// summarize reduces one run to its summary.
func summarize(res *core.Result) runSummary {
	s := runSummary{OrphanStarts: res.Faults.OrphanStarts, Wasted: wastedFraction(res)}
	for c, f := range classFilters {
		s.Sample[c] = metrics.FromResult(res, f)
		s.Prediction[c] = metrics.Predictions(res, f, MinEffectiveWait)
	}
	return s
}

// runMatrix executes every (variant, replication) pair in parallel and
// returns their summaries indexed [variant][rep]. Tasks run on a pool
// of opts.Workers goroutines that lives as long as the matrix; each
// task summarizes its own run, so no Result outlives its task. Variant
// Configs are treated as immutable inputs: tasks copy the struct but
// share the Clusters slice, so Mutate hooks must replace cfg.Clusters
// rather than write through it (see variant). With opts.Trace set, the
// runs' traces merge into it in (variant, rep) order (see traceFold).
func runMatrix(opts Options, variants []variant) ([][]runSummary, error) {
	if opts.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be >= 1")
	}
	pool := NewPool(opts.Workers)
	defer pool.Close()
	results := make([][]runSummary, len(variants))
	for i := range results {
		results[i] = make([]runSummary, opts.Reps)
	}
	var (
		pending  sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	total := len(variants) * opts.Reps
	tick := ticker(opts.Progress, total)
	var fold *traceFold
	if opts.Trace != nil {
		fold = newTraceFold(opts.Trace, pool.Workers())
	}
	// Stop feeding work as soon as a simulation fails: the remaining
	// (variant, rep) pairs would be discarded along with the error
	// anyway, and a failed run should not burn the full budget.
	enqueued := 0
enqueue:
	for v := range variants {
		for r := 0; r < opts.Reps; r++ {
			if failed.Load() {
				break enqueue
			}
			v, r, k := v, r, enqueued
			if fold != nil {
				fold.acquire()
			}
			enqueued++
			pending.Add(1)
			pool.Do(func() {
				defer pending.Done()
				defer tick()
				cfg := variants[v].Config
				cfg.Seed = opts.BaseSeed + uint64(r)*seedStride
				if m := variants[v].Mutate; m != nil {
					m(r, &cfg)
				}
				if opts.Trace != nil {
					cfg.Trace = obs.New()
				}
				memo, reduce := opts.Cache, summarize
				if variants[v].Audit {
					// The memo keys runs by config alone, so a
					// summary with findings never goes through it.
					ctx := invariant.FromConfig(&cfg)
					memo = nil
					reduce = func(res *core.Result) runSummary {
						s := summarize(res)
						s.Findings = invariant.Check(ctx, res)
						return s
					}
				}
				sum, err := core.RunCached(memo, cfg, reduce)
				if fold != nil {
					tr := cfg.Trace
					if err != nil {
						tr = nil // a failed run's trace is not merged
					}
					fold.put(k, tr)
				}
				if err != nil {
					err = fmt.Errorf("experiment: variant %q rep %d: %w", variants[v].Name, r, err)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				} else {
					results[v][r] = sum
				}
			})
		}
	}
	pending.Wait()
	for ; enqueued < total; enqueued++ {
		tick() // pairs the feeder skipped after a failure
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// traceFold merges per-run traces into one aggregate in task order.
// Trace.Merge depends on the order of its calls (series decimation, the
// gauge level it sets, float sums in histograms), so merging as runs
// complete would make the aggregate depend on which worker finished
// first. Runs hand in their traces in any order; the fold holds at most
// window of them and merges each once every earlier task's trace has
// been merged.
type traceFold struct {
	into *obs.Trace
	// slots holds one token per task started and not yet merged, so
	// task k starts only once task k-window has been merged and the
	// ring slot k%window is free.
	slots chan struct{}

	mu    sync.Mutex
	next  int          // the next task to merge
	ready []*obs.Trace // ring by task index mod window
	done  []bool
}

func newTraceFold(into *obs.Trace, window int) *traceFold {
	return &traceFold{
		into:  into,
		slots: make(chan struct{}, window),
		ready: make([]*obs.Trace, window),
		done:  make([]bool, window),
	}
}

// acquire blocks until the next task in order may start.
func (f *traceFold) acquire() { f.slots <- struct{}{} }

// put hands in task k's trace, nil for a failed run, and merges every
// trace whose predecessors all have been.
func (f *traceFold) put(k int, tr *obs.Trace) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := k % len(f.ready)
	f.ready[i], f.done[i] = tr, true
	for i = f.next % len(f.ready); f.done[i]; i = f.next % len(f.ready) {
		f.into.Merge(f.ready[i])
		f.ready[i], f.done[i] = nil, false
		f.next++
		<-f.slots
	}
}

// ticker returns a func that reports one more of total simulations
// accounted for — run, failed, or skipped — to progress, which may be
// nil. Call it exactly total times however many workers there are, or
// progress UIs hang short of total.
func ticker(progress func(done, total int), total int) func() {
	var done atomic.Int64
	return func() {
		if progress != nil {
			progress(int(done.Add(1)), total)
		}
	}
}

// compared is one group of a relative-to-baseline table: a baseline
// variant and the variants measured against it on the same paired
// seeds (identical job streams).
type compared struct {
	base  variant
	cells []variant
}

// groupVariants lists the groups' variants for runMatrix, each group's
// baseline first.
func groupVariants(groups []compared) []variant {
	var vs []variant
	for _, g := range groups {
		vs = append(vs, g.base)
		vs = append(vs, g.cells...)
	}
	return vs
}

// relGroup is one group of a reduced matrix: the runs of its baseline
// and of each cell, and each cell's metrics over all jobs relative to
// the baseline.
type relGroup struct {
	base  []runSummary
	cells [][]runSummary
	rel   []metrics.Relative
}

// relativize reduces the matrix runMatrix returned for
// groupVariants(groups), group by group.
func relativize(groups []compared, res [][]runSummary) ([]relGroup, error) {
	out := make([]relGroup, len(groups))
	for gi, g := range groups {
		n := 1 + len(g.cells)
		r := relGroup{base: res[0], cells: res[1:n], rel: make([]metrics.Relative, n-1)}
		res = res[n:]
		base := samples(r.base, allJobs)
		for ci, runs := range r.cells {
			rel, err := metrics.Relativize(samples(runs, allJobs), base)
			if err != nil {
				return nil, err
			}
			r.rel[ci] = rel
		}
		out[gi] = r
	}
	return out, nil
}

// rows splits xs into consecutive rows of n: the cells of a table
// built row by row.
func rows[T any](xs []T, n int) [][]T {
	out := make([][]T, 0, len(xs)/n)
	for i := 0; i < len(xs); i += n {
		out = append(out, xs[i:i+n])
	}
	return out
}

// avgStretch reads a run's average stretch over the jobs of class c,
// for meanOver.
func avgStretch(c jobClass) func(*runSummary) float64 {
	return func(r *runSummary) float64 { return r.Sample[c].AvgStretch }
}

// samples returns one variant's per-run samples over the jobs of
// class c.
func samples(runs []runSummary, c jobClass) []metrics.Sample {
	out := make([]metrics.Sample, len(runs))
	for i := range runs {
		out[i] = runs[i].Sample[c]
	}
	return out
}

// meanOver averages fn over the summaries.
func meanOver(runs []runSummary, fn func(*runSummary) float64) float64 {
	var sum float64
	for i := range runs {
		sum += fn(&runs[i])
	}
	return sum / float64(len(runs))
}
