package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"redreq/internal/core"
	"redreq/internal/invariant"
	"redreq/internal/metrics"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// The simulated platform both simulator workloads share: the paper's
// ten 128-node clusters at the peak-hour arrival rate, offered load just
// below saturation, runtimes clamped as in experiment.Defaults.
//
// The submission window is two hours, not the paper's six. One
// six-hour replication costs 0.2 to 0.6 s depending on its job stream,
// so the ~30 that fit a run let the seed move ops_per_s by 5%; a
// two-hour replication costs a third of that with the same events,
// passes and cancels per job, and ~120 of them average the streams out.
const (
	simClusters   = 10
	simNodes      = 128
	simHorizon    = 2 * 3600
	simLoad       = 0.93
	simMinRuntime = 30
	simMaxRuntime = 36 * 3600
	// simWarm replications run untimed at the end of setup, on the
	// first timed replications' streams.
	simWarm = 8
	// calibrationSeed and calibrationSamples match core's own load
	// calibration.
	calibrationSeed    = 0xCA11B8A7E
	calibrationSamples = 200000
	seedStride         = 0x9E3779B97F4A7C15
)

// simKind is what tells the two simulator workloads apart.
type simKind struct {
	alg    sched.Algorithm
	scheme core.Scheme
	est    workload.EstimateMode
	// reps is the pinned number of timed replications.
	reps int
}

var (
	simEasyAll = simKind{alg: sched.EASY, scheme: core.SchemeAll, est: workload.Exact, reps: 165}
	simCBFPhi  = simKind{alg: sched.CBF, scheme: core.SchemeNone, est: workload.Phi, reps: 240}
)

// simTotals are exact counts summed over a timed section.
type simTotals struct {
	jobs, events, passes, copies, cancels int64
	maxQueue                              int
}

type simWorkload struct {
	p    params
	kind simKind
	reps int

	// streams[r][c] is replication r's job stream for cluster c,
	// generated in setup through workload.Model and handed to core.Run
	// as Config.Streams: the simulator receives only generated inputs.
	streams [][][]workload.Job
	// warm0 and timed0 are replication 0's result from the warm-up and
	// from the last timed section; they share a stream and a seed.
	warm0, timed0 *core.Result
	totals        simTotals
}

func newSimWorkload(p params, kind simKind) *simWorkload {
	return &simWorkload{p: p, kind: kind, reps: p.units(kind.reps)}
}

// repSeed derives replication r's seed. The experiment registry steps
// replication seeds by the same stride core steps a replication's
// cluster stream seeds by, so its consecutive replications share nine of
// their ten streams; a run of 160 such replications holds 170 distinct
// streams, and one monster job slows ten of them. Hashing the stepped
// seed gives every replication streams of its own, which is what lets
// the replications average the seed out.
func (w *simWorkload) repSeed(r int) uint64 {
	z := w.p.seed + uint64(r+1)*seedStride
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// config is replication r's simulation.
func (w *simWorkload) config(r int) core.Config {
	clusters := make([]core.ClusterSpec, simClusters)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: simNodes}
	}
	return core.Config{
		Clusters:          clusters,
		Alg:               w.kind.alg,
		Scheme:            w.kind.scheme,
		RedundantFraction: 1,
		Seed:              w.repSeed(r),
		Horizon:           simHorizon,
		EstMode:           w.kind.est,
		MinRuntime:        simMinRuntime,
		MaxRuntime:        simMaxRuntime,
		Streams:           w.streams[r],
	}
}

// calibratedModel returns the per-cluster workload model with its
// runtime scale calibrated to simLoad on the reference cluster, the way
// core calibrates a Config.TargetLoad. The calibration seed is core's
// constant, not the run's seed: the Monte-Carlo scale moves by a few
// percent with its seed, and just below saturation that moved queue
// depths, and with them sim_cbf_phi's jobs/s, by 18% between seeds. The
// offered load is part of the workload's definition; the job streams are
// the seeded input.
func calibratedModel(est workload.EstimateMode) *workload.Model {
	ref := workload.NewModel(simNodes)
	ref.MinRuntime, ref.MaxRuntime = simMinRuntime, simMaxRuntime
	scale := ref.CalibrateClamped(rng.New(calibrationSeed), simNodes, simLoad, calibrationSamples)
	m := workload.NewModel(simNodes)
	m.MinRuntime, m.MaxRuntime = simMinRuntime, simMaxRuntime
	m.RuntimeScale = scale
	m.EstMode = est
	return m
}

func (w *simWorkload) setup() error {
	model := calibratedModel(w.kind.est)
	if err := model.Validate(); err != nil {
		return err
	}
	w.streams = make([][][]workload.Job, w.reps)
	for r := range w.streams {
		w.streams[r] = make([][]workload.Job, simClusters)
		for c := range w.streams[r] {
			src := rng.New(w.repSeed(r) + uint64(c+1)*seedStride)
			w.streams[r][c] = model.GenerateWindow(src, simHorizon)
		}
	}
	for r := 0; r < min(simWarm, w.reps); r++ {
		res, err := core.Run(w.config(r))
		if err != nil {
			return fmt.Errorf("warm-up replication %d: %w", r, err)
		}
		if r == 0 {
			w.warm0 = res
		}
	}
	return nil
}

func (w *simWorkload) run(tr *tracer) (runResult, error) {
	rr := runResult{latMS: make([]float64, 0, w.reps)}
	w.totals = simTotals{}
	// One replication per chunk.
	err := rr.inChunks(w.reps, 1, func(lo, hi int) (attempted, failed int, err error) {
		for r := lo; r < hi; r++ {
			cfg := w.config(r)
			t0 := time.Now()
			id := tr.begin("core.Run", -1, r)
			res, err := core.Run(cfg)
			tr.end(id)
			rr.latMS = append(rr.latMS, float64(time.Since(t0))/1e6)
			if err != nil {
				return attempted, failed, fmt.Errorf("replication %d: %w", r, err)
			}
			attempted += len(res.Jobs) + res.Unfinished
			failed += res.Unfinished
			w.totals.add(res)
			if r == 0 {
				w.timed0 = res
			}
		}
		return attempted, failed, nil
	})
	return rr, err
}

// add accumulates one replication's exact counts.
func (t *simTotals) add(res *core.Result) {
	t.jobs += int64(len(res.Jobs))
	t.events += int64(res.Events)
	for _, cl := range res.Clusters {
		t.passes += int64(cl.Stats.Passes)
		t.copies += int64(cl.Stats.Submitted)
		t.cancels += int64(cl.Stats.Canceled)
		t.maxQueue = max(t.maxQueue, cl.Stats.MaxQueue)
	}
}

// fingerprint streams a result's job records through a DigestCollector
// in the order the sequential engine observes them.
func fingerprint(res *core.Result) []float64 {
	dc := metrics.NewDigestCollector(0, nil)
	for i := range res.Jobs {
		dc.Observe(&res.Jobs[i])
	}
	d := dc.Digest()
	return d.Fingerprint()
}

func (w *simWorkload) verify() []string {
	var bad []string
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !slices.EqualFunc(fingerprint(w.warm0), fingerprint(w.timed0), sameBits) {
		bad = append(bad, "replication 0: warm-up and timed runs of one seed give different digests")
	}
	cfg := w.config(0)
	for _, f := range invariant.Check(invariant.FromConfig(&cfg), w.timed0) {
		bad = append(bad, "replication 0: invariant: "+f.String())
	}
	return append(bad, w.p.golden.mismatches(w.counts())...)
}

func (w *simWorkload) counts() map[string]int64 {
	return map[string]int64{
		"jobs":    w.totals.jobs,
		"events":  w.totals.events,
		"passes":  w.totals.passes,
		"copies":  w.totals.copies,
		"cancels": w.totals.cancels,
	}
}

func (w *simWorkload) layers(tr *tracer) map[string]float64 {
	m := simCountLayers(w.totals)
	m["core.run_ms"] = median(tr.durationsMS("core.Run"))
	return m
}

// simCountLayers turns exact totals into the per-job layer counts.
func simCountLayers(t simTotals) map[string]float64 {
	jobs := float64(t.jobs)
	return map[string]float64{
		"des.events_per_job":   float64(t.events) / jobs,
		"sched.passes_per_job": float64(t.passes) / jobs,
		"core.copies_per_job":  float64(t.copies) / jobs,
		"core.cancels_per_job": float64(t.cancels) / jobs,
		"sched.max_queue":      float64(t.maxQueue),
	}
}

func (w *simWorkload) teardown() {
	w.streams, w.warm0, w.timed0 = nil, nil, nil
}
