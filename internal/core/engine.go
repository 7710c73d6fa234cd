// The simulation engine: builds the platform, generates per-cluster
// job streams, drives submissions, winner callbacks, and cancellations,
// and collects per-job records.

package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"redreq/internal/des"
	"redreq/internal/fault"
	"redreq/internal/gis"
	"redreq/internal/obs"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// ClusterSpec describes one site of the simulated platform.
type ClusterSpec struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// MeanIAT is the mean job interarrival time in seconds for the
	// job stream arriving at this cluster; 0 uses the workload
	// model's default (5.01 s, the peak-hour rate).
	MeanIAT float64
}

// Config configures one simulation run.
type Config struct {
	// Clusters lists the platform's sites.
	Clusters []ClusterSpec
	// Alg is the scheduling algorithm used by every cluster.
	Alg sched.Algorithm
	// Scheme is the redundant request scheme used by redundant jobs.
	Scheme Scheme
	// RedundantFraction is the fraction p of jobs that use redundant
	// requests (Figure 4); the rest submit only locally. Use 1 to
	// make every job redundant.
	RedundantFraction float64
	// Routing picks remote clusters for redundant copies.
	Routing Routing
	// Staleness is the publish interval in seconds of the grid
	// information service read by informed Routing policies: every
	// cluster publishes a load snapshot each interval, and a snapshot
	// becomes visible ControlLatency seconds after capture. 0 defaults
	// the interval to ControlLatency; a negative value forces live
	// (omniscient) reads. Uninformed policies ignore it.
	Staleness float64
	// Ordering is the queue ordering used by every cluster's
	// scheduler (FCFS — the paper's model — SJF, or slowdown-aged
	// priority). CBF supports only FCFS.
	Ordering sched.Ordering
	// Seed drives all randomness of the run.
	Seed uint64
	// Horizon is the submission window in seconds (the paper
	// simulates 6 hours of submissions); the simulation itself runs
	// until every job completes.
	Horizon float64
	// EstMode selects exact or phi-model runtime estimates.
	EstMode workload.EstimateMode
	// InflateRemote adds the given fraction to the requested compute
	// time of remote copies, modeling the extra time requested for
	// late binding of input data (Section 3.1.2 tests 10% and 50%).
	InflateRemote float64
	// TargetLoad calibrates the workload's runtime scale so a
	// reference 128-node cluster at the default interarrival time
	// sees this offered load. 0 skips calibration (scale 1).
	TargetLoad float64
	// MinRuntime floors actual runtimes in seconds (0 uses the
	// workload default). Raising the floor bounds the stretch
	// denominator, reining in the tail contributed by sub-minute
	// jobs.
	MinRuntime float64
	// Predict records queue-waiting-time predictions at submission
	// (Section 5). CBF predictions are its reservations; EASY/FCFS
	// predictions come from a no-backfilling queue simulation.
	Predict bool
	// DisableCancelBackfill, DisableCompression, and CompressOnCancel
	// are scheduler ablations; see sched.Config.
	DisableCancelBackfill bool
	DisableCompression    bool
	CompressOnCancel      bool
	// RuntimeScale explicitly multiplies runtimes (0 = none unless
	// TargetLoad calibration is set; TargetLoad takes precedence).
	RuntimeScale float64
	// MaxRuntime caps actual runtimes in seconds (0 uses the
	// workload default of 36 hours). Lowering the cap tames the
	// work contributed by the distribution's heavy tail.
	MaxRuntime float64
	// Streams, when non-nil, supplies the job stream for each
	// cluster explicitly (e.g. replayed from an SWF trace) instead
	// of generating it from the workload model. len(Streams) must
	// equal len(Clusters); jobs must arrive in nondecreasing order
	// and fit their cluster.
	Streams [][]workload.Job
	// Workloads, when non-nil, memoizes generated job streams across
	// runs, keyed by the fully derived model parameters plus stream
	// seed and horizon; cached streams are shared read-only between
	// runs. It has no effect on results — a cached stream is
	// bit-identical to a regenerated one — and is ignored when Streams
	// supplies the jobs explicitly. Plumbed automatically by
	// core.Memo.
	Workloads *workload.StreamCache
	// Trace, when non-nil, collects run internals: DES event
	// counters, per-cluster queue-depth series, and the redundant
	// submit/cancel lifecycle (copies placed, losers canceled, cancel
	// latency in virtual time). Overhead is negligible when nil.
	Trace *obs.Trace
	// Faults, when non-nil and non-empty, injects control-plane
	// faults into the run (see internal/fault): remote submits can be
	// lost or delayed, cancels can be lost or delayed — leaving
	// orphan copies that occupy queue slots and, once started, run to
	// completion on real capacity — and cluster outage windows drop
	// remote copies and defer local submissions. The injector draws
	// from its own rng stream, so a nil or empty plan leaves the run
	// bit-identical to a fault-free one.
	Faults *fault.Plan
	// StopAtHorizon ends the simulation at Horizon and computes
	// metrics over the jobs that completed within the window,
	// instead of running every submitted job to completion. This is
	// the natural measurement mode for the paper's peak-hour
	// workload, under which queues grow throughout the window
	// (Section 4.1 observes growth of about 700 jobs per hour).
	StopAtHorizon bool
	// ControlLatency is the one-way virtual-time latency in seconds
	// of cross-cluster control messages: remote submit deliveries and
	// the winner's cancel callbacks. 0 keeps the paper's model
	// (Section 3.1.2 simulates no network delay) — copies are placed
	// and canceled instantaneously. A positive latency L delivers a
	// remote copy L seconds after submission and a cancel L seconds
	// after a start; a copy that starts before its cancel lands runs
	// to completion as pure waste (Result.Overruns), and the winner
	// is the lexicographically least (start time, cluster index)
	// start.
	ControlLatency float64
	// Deprecated: Shards is ignored: every run executes on the one
	// sequential event loop, and the fingerprint leaves it out. Its
	// only reference is the benchmark program's core.shards2_speedup
	// probe; it is deleted together with that probe in the next
	// change to the benchmark.
	Shards int
}

// Validate reports the first configuration problem found.
func (cfg *Config) Validate() error {
	if len(cfg.Clusters) == 0 {
		return fmt.Errorf("core: no clusters configured")
	}
	for i, cs := range cfg.Clusters {
		if cs.Nodes < 1 {
			return fmt.Errorf("core: cluster %d has %d nodes", i, cs.Nodes)
		}
		if !(cs.MeanIAT >= 0) {
			return fmt.Errorf("core: cluster %d has interarrival time %v", i, cs.MeanIAT)
		}
	}
	// NaN passes every comparison-based check below, so it is refused
	// up front wherever it can appear.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"redundant fraction", cfg.RedundantFraction},
		{"staleness", cfg.Staleness},
		{"horizon", cfg.Horizon},
		{"remote inflation", cfg.InflateRemote},
		{"target load", cfg.TargetLoad},
		{"minimum runtime", cfg.MinRuntime},
		{"runtime scale", cfg.RuntimeScale},
		{"maximum runtime", cfg.MaxRuntime},
		{"control latency", cfg.ControlLatency},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("core: %s is NaN", f.name)
		}
	}
	if cfg.RedundantFraction < 0 || cfg.RedundantFraction > 1 {
		return fmt.Errorf("core: redundant fraction %v outside [0,1]", cfg.RedundantFraction)
	}
	if cfg.Horizon <= 0 || math.IsInf(cfg.Horizon, 1) {
		return fmt.Errorf("core: horizon %v not positive and finite", cfg.Horizon)
	}
	if cfg.InflateRemote < 0 {
		return fmt.Errorf("core: negative remote inflation %v", cfg.InflateRemote)
	}
	if cfg.TargetLoad < 0 {
		return fmt.Errorf("core: negative target load %v", cfg.TargetLoad)
	}
	if cfg.ControlLatency < 0 || math.IsInf(cfg.ControlLatency, 1) {
		return fmt.Errorf("core: control latency %v not finite and non-negative", cfg.ControlLatency)
	}
	if o, err := sched.ParseOrdering(cfg.Ordering.String()); err != nil || o != cfg.Ordering {
		return fmt.Errorf("core: unknown queue ordering %v", cfg.Ordering)
	}
	if cfg.Alg == sched.CBF && cfg.Ordering != sched.OrderFCFS {
		return fmt.Errorf("core: CBF supports only FCFS ordering (got %v)", cfg.Ordering)
	}
	if err := cfg.Faults.Validate(len(cfg.Clusters)); err != nil {
		return err
	}
	return nil
}

// GISInterval resolves the effective snapshot publish interval of the
// grid information service for this config: Staleness when positive,
// 0 (live omniscient reads) when negative, else the ControlLatency
// default. Only meaningful under an informed Routing policy.
func (cfg *Config) GISInterval() float64 {
	switch {
	case cfg.Staleness > 0:
		return cfg.Staleness
	case cfg.Staleness < 0:
		return 0
	default:
		return cfg.ControlLatency
	}
}

// JobRecord is the timeline of one (grid) job after simulation.
type JobRecord struct {
	ID        int64
	Home      int     // cluster the job originates at
	Redundant bool    // whether the job used redundant requests
	Copies    int     // number of requests submitted (1 when not redundant)
	Submit    float64 // submission time
	Nodes     int
	Runtime   float64 // actual execution time (of the winning copy)
	Estimate  float64 // requested compute time (local copy)
	Start     float64 // execution start of the winning copy
	End       float64 // completion time
	Winner    int     // cluster that ran the job
	Predicted float64 // predicted wait at submission: min over copies; NaN when prediction was off
}

// Turnaround returns End - Submit.
func (j *JobRecord) Turnaround() float64 { return j.End - j.Submit }

// Wait returns Start - Submit.
func (j *JobRecord) Wait() float64 { return j.Start - j.Submit }

// Stretch returns the job's stretch (slowdown): turnaround divided by
// execution time, the paper's primary metric (Section 3.2). It is
// clamped below at 1 to absorb floating-point rounding for jobs that
// start immediately.
func (j *JobRecord) Stretch() float64 {
	s := j.Turnaround() / j.Runtime
	if s < 1 {
		return 1
	}
	return s
}

// ClusterResult carries per-cluster counters after a run.
type ClusterResult struct {
	Name  string
	Nodes int
	Stats sched.Stats
}

// Result is the outcome of one simulation run.
type Result struct {
	Jobs     []JobRecord
	Clusters []ClusterResult
	// Events is the number of discrete events processed.
	Events uint64
	// MakeSpan is the simulated time at which the last job finished.
	MakeSpan float64
	// Unfinished counts jobs excluded from Jobs because they had not
	// completed when a StopAtHorizon run ended.
	Unfinished int
	// Faults aggregates injected-fault outcomes; all zero when the
	// run had no fault plan.
	Faults FaultStats
	// Overruns aggregates late losers: copies that started before the
	// winner's cancel callback reached them — possible only under a
	// positive ControlLatency — and therefore ran to completion as
	// pure waste. All zero when ControlLatency is 0. (Fault-injected
	// runs account the equivalent copies as orphans instead.)
	Overruns OverrunStats
	// Routing summarizes the load information consumed by informed
	// routing decisions; all zero under uninformed policies.
	Routing RoutingStats
}

// OverrunStats aggregates the work burned by late losers under a
// positive ControlLatency.
type OverrunStats struct {
	// Starts counts non-winning copies that ran to completion.
	Starts int64
	// CPUSeconds is the capacity they consumed (runtime x nodes).
	CPUSeconds float64
}

// FaultStats aggregates what the fault injector actually did to a run.
type FaultStats struct {
	// SubmitsLost counts remote copies whose submit message was lost
	// (including copies dropped because their target was in an outage
	// window): they were never enqueued anywhere.
	SubmitsLost int64
	// SubmitsDeferred counts local submissions pushed to the end of a
	// home-cluster outage window (the user retries until the daemon
	// answers; the job's Submit time still marks the first attempt).
	SubmitsDeferred int64
	// SubmitsDelayed counts remote copies delivered late; MootSubmits
	// counts delayed copies that arrived after the job already had a
	// winner and were discarded unsent.
	SubmitsDelayed int64
	MootSubmits    int64
	// CancelsLost and CancelsDelayed count loser-cancel messages that
	// were dropped or delivered late. A lost cancel always orphans
	// its copy; a delayed one orphans it only when the copy starts
	// before the cancel lands.
	CancelsLost    int64
	CancelsDelayed int64
	// OrphanStarts counts orphan copies that began execution;
	// OrphanCPUSeconds is the capacity they consumed (runtime x
	// nodes), since an orphan that starts runs to completion.
	OrphanStarts     int64
	OrphanCPUSeconds float64
}

// gridJob tracks one job while it is in the system: from its arrival
// until its last copy has finished or been canceled and its last
// control message has landed. Then it retires: its record goes to its
// slot in engine.jobs, and it and its requests are recycled.
type gridJob struct {
	eng    *engine
	rec    JobRecord
	copies []*sched.Request
	winner *sched.Request
	// targets lists the clusters this job submitted copies to; set
	// only under a positive ControlLatency, where cancel broadcasts
	// must address clusters (a copy can still be in flight when its
	// cancel is sent, so the winner cannot enumerate gj.copies).
	targets []int
	// refs counts what still holds the job: each enqueued copy until
	// it is Done or Canceled, each in-flight control message (a remote
	// submit, a cancel broadcast, a fault-delayed cancel) and an
	// arrival deferred by an outage. The job retires when it reaches 0.
	refs int
	// slot is the job's index in engine.live.
	slot int
}

// Event priorities. Local events keep the seed engine's values —
// arrivals and completions at 0, coalesced scheduling passes at 1 —
// but under a positive ControlLatency arrivals move to prioArrival
// and the two cross-cluster message kinds get dedicated levels, so
// that the relative order of a message against any local event at
// the same instant is fixed by (time, priority) alone, never by the
// order the engine happened to schedule them in. Each same-instant
// tie is then a stated rule of the model:
//
//   - deliveries precede same-time cancels, so a cancel always finds
//     its copy delivered;
//   - cancels run at 0, before the pass at 1, so all of an instant's
//     cancels are applied before the scheduler reacts (their mutual
//     order is then immaterial: each removes a distinct pending copy);
//   - cancels and completions (both 0) commute: neither touches the
//     queue, their kicks coalesce into one pass.
const (
	prioArrival = -2 // job arrivals when ControlLatency > 0
	prioDeliver = -1 // remote-submit deliveries after the latency
	prioCancel  = 0  // cancel-broadcast deliveries after the latency
	prioPublish = 2  // GIS snapshot captures, after the instant's pass settles
)

type engine struct {
	cfg      Config
	sim      *des.Simulation
	src      *rng.Source
	clusters []*sched.Cluster

	// jobs backs Result.Jobs: one slot per job ID, written when the job
	// retires. A slot left zero belongs to a job that has not retired.
	jobs []JobRecord
	// live holds the jobs in the system, in no particular order.
	live []*gridJob
	// overruns lists the late losers of settled jobs, in the order the
	// jobs settled; collect sums them in (job ID, copy) order.
	overruns []overrun

	// inj is the fault injector; nil on fault-free runs, where every
	// fault hook degrades to a nil-receiver no-op.
	inj    *fault.Injector
	faults FaultStats

	// view is what informed routing reads; gisSvc is the grid
	// information service behind it (nil in live or uninformed mode).
	// routing accumulates the run's RoutingStats through view.stats.
	view    *loadView
	gisSvc  *gis.Service
	routing RoutingStats

	// Per-run free lists of the per-job and per-message objects: a
	// retired job's requests and grid job, and every control message
	// once it lands, are handed out again, so a run holds only as many
	// as it ever had in the system at once. copies and ints carve the
	// copy and target lists of grid jobs; a recycled grid job keeps
	// the capacity of its lists.
	reqs   freeList[sched.Request]
	gjs    freeList[gridJob]
	msgs   freeList[ctlMsg]
	copies slab[*sched.Request]
	ints   slab[int]

	// Scratch reused by every arrival: the target list arrive builds
	// (never retained; latent runs copy it into the job's own list) and
	// routing's working memory.
	targets []int
	route   routeScratch

	// poison, set only by tests, overwrites every retired request and
	// grid job with values no job in the system holds, so that a read
	// after retirement changes the run's result.
	poison bool

	// Trace instruments (nil when tracing is off).
	cJobs          *obs.Counter
	cJobsRedundant *obs.Counter
	cCopies        *obs.Counter
	cCopiesRemote  *obs.Counter
	cLosers        *obs.Counter
	hCancelLatency *obs.Histogram

	// Fault instruments, registered only when a plan is active so
	// fault-free traces keep their exact instrument set.
	cFSubmitsLost    *obs.Counter
	cFSubmitsDefer   *obs.Counter
	cFCancelsLost    *obs.Counter
	cFCancelsDelayed *obs.Counter
	cOrphans         *obs.Counter
	hOrphanRuntime   *obs.Histogram
}

// Run executes one simulation and returns its result. Runs are
// deterministic in cfg (including Seed).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.collect()
}

// run drives the simulation to its end: the horizon under
// StopAtHorizon, else the last event.
func (e *engine) run() {
	if e.cfg.StopAtHorizon {
		e.sim.RunUntil(e.cfg.Horizon)
	} else {
		e.sim.Run()
	}
}

// newEngine builds the engine for a validated config:
// clusters, the information service, and the head of every cluster's
// arrival chain, ready for its simulation to run.
func newEngine(cfg Config) (*engine, error) {
	e := &engine{
		cfg:    cfg,
		sim:    des.New(),
		src:    rng.New(cfg.Seed ^ 0xA5A5A5A5),
		inj:    fault.NewInjector(cfg.Faults, cfg.Seed),
		reqs:   newFreeList[sched.Request](512),
		gjs:    newFreeList[gridJob](256),
		msgs:   newFreeList[ctlMsg](512),
		copies: slab[*sched.Request]{size: 2048},
		ints:   slab[int]{size: 2048},
	}
	if tr := cfg.Trace; tr != nil {
		e.sim.SetTrace(tr)
		e.cJobs = tr.Counter("core.jobs")
		e.cJobsRedundant = tr.Counter("core.jobs.redundant")
		e.cCopies = tr.Counter("core.copies")
		e.cCopiesRemote = tr.Counter("core.copies.remote")
		e.cLosers = tr.Counter("core.cancels.losers")
		e.hCancelLatency = tr.Histogram("core.cancel_latency")
		if e.inj != nil {
			e.cFSubmitsLost = tr.Counter("core.faults.submits_lost")
			e.cFSubmitsDefer = tr.Counter("core.faults.submits_deferred")
			e.cFCancelsLost = tr.Counter("core.faults.cancels_lost")
			e.cFCancelsDelayed = tr.Counter("core.faults.cancels_delayed")
			e.cOrphans = tr.Counter("core.orphans.started")
			e.hOrphanRuntime = tr.Histogram("core.orphans.runtime")
		}
	}

	// Calibrate a shared runtime scale against the reference
	// configuration so heterogeneous clusters keep genuinely
	// different offered loads (Table 3).
	scale := cfg.runtimeScale()

	// Build clusters.
	schedCfg := sched.Config{
		Alg:                   cfg.Alg,
		DisableCancelBackfill: cfg.DisableCancelBackfill,
		DisableCompression:    cfg.DisableCompression,
		CompressOnCancel:      cfg.CompressOnCancel,
		Predict:               cfg.Predict,
		Order:                 cfg.Ordering,
	}
	for i, cs := range cfg.Clusters {
		sc := schedCfg
		sc.Nodes = cs.Nodes
		cl := sched.NewCluster(e.sim, fmt.Sprintf("C%d", i+1), i, sc)
		cl.SetTrace(cfg.Trace)
		cl.OnStart = e.onStart
		cl.OnFinish = e.onFinish
		e.clusters = append(e.clusters, cl)
	}

	// Informed routing reads the grid information service — fed by a
	// per-cluster publish chain — or, at a zero effective interval,
	// live cluster state. Uninformed configs schedule no publish
	// events and read nothing, leaving their event stream untouched.
	e.view = &loadView{stats: &e.routing}
	if cfg.Routing.Informed() {
		if s := cfg.GISInterval(); s > 0 {
			e.gisSvc = gis.New(len(cfg.Clusters), cfg.ControlLatency)
			e.view.svc = e.gisSvc
			for i := range e.clusters {
				e.sim.ScheduleFn(0, prioPublish, publishAction, &publisher{eng: e, cluster: i, interval: s})
			}
		} else {
			e.view.live = e.clusters
		}
	}

	// Schedule the head of every cluster's arrival chain. Job IDs are
	// cluster-major: cluster i's jobs follow all of cluster i-1's.
	var nextID int64
	for i := range cfg.Clusters {
		jobs, err := cfg.clusterJobSlice(i, scale)
		if err != nil {
			return nil, err
		}
		// Chain this cluster's arrivals instead of pre-scheduling them
		// all: exactly one arrival event per cluster is pending at any
		// time, and firing it schedules the next. Pre-scheduling the
		// full stream kept the event queue O(total jobs) deep for the
		// whole run — pops through a ~10^5-entry heap dominated long
		// qgrowth-style runs — while the chained queue stays at the
		// size of the active working set.
		if len(jobs) > 0 {
			f := &arrivalFeeder{eng: e, jobs: jobs, home: i, base: nextID}
			e.sim.ScheduleFn(jobs[0].Arrival, e.arrivalPrio(), feederAction, f)
		}
		nextID += int64(len(jobs))
	}
	e.jobs = make([]JobRecord, nextID)

	return e, nil
}

// runtimeScale resolves the run's shared runtime scale: TargetLoad
// calibration when set, else the explicit RuntimeScale, else 1.
func (cfg *Config) runtimeScale() float64 {
	scale := 1.0
	if cfg.RuntimeScale > 0 {
		scale = cfg.RuntimeScale
	}
	if cfg.TargetLoad > 0 {
		scale = calibratedScale(cfg.TargetLoad, cfg.MinRuntime, cfg.MaxRuntime)
	}
	return scale
}

// buildModel derives cluster i's fully configured workload model under
// the given runtime scale.
func (cfg *Config) buildModel(i int, scale float64) (*workload.Model, error) {
	cs := cfg.Clusters[i]
	model := workload.NewModel(cs.Nodes)
	model.RuntimeScale = scale
	model.EstMode = cfg.EstMode
	if cfg.MinRuntime > 0 {
		model.MinRuntime = cfg.MinRuntime
	}
	if cfg.MaxRuntime > 0 {
		model.MaxRuntime = cfg.MaxRuntime
	}
	if cs.MeanIAT > 0 {
		model.SetMeanInterarrival(cs.MeanIAT)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// streamSeed is cluster i's generation seed: a function of the run seed
// and the cluster index alone, so appending clusters leaves the streams
// of the existing ones unchanged.
func (cfg *Config) streamSeed(i int) uint64 {
	return cfg.Seed + uint64(i+1)*0x9E3779B97F4A7C15
}

// validateStream checks an explicitly supplied job stream for cluster i.
func validateStream(i int, jobs []workload.Job, nodes int) error {
	for k, j := range jobs {
		if j.Nodes < 1 || j.Nodes > nodes {
			return fmt.Errorf("core: stream %d job %d needs %d nodes on a %d-node cluster", i, k, j.Nodes, nodes)
		}
		if j.Runtime <= 0 || j.Estimate < j.Runtime {
			return fmt.Errorf("core: stream %d job %d has runtime %v estimate %v", i, k, j.Runtime, j.Estimate)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("core: stream %d job %d arrives at %v", i, k, j.Arrival)
		}
		if k > 0 && j.Arrival < jobs[k-1].Arrival {
			return fmt.Errorf("core: stream %d job %d arrives at %v, before job %d at %v (streams must be sorted by arrival)",
				i, k, j.Arrival, k-1, jobs[k-1].Arrival)
		}
	}
	return nil
}

// clusterJobSlice materializes cluster i's full job stream as a slice:
// the explicit stream when Streams is set (validated), else the
// generated stream (through the Workloads cache when present).
func (cfg *Config) clusterJobSlice(i int, scale float64) ([]workload.Job, error) {
	model, err := cfg.buildModel(i, scale)
	if err != nil {
		return nil, err
	}
	var jobs []workload.Job
	if cfg.Streams != nil {
		if len(cfg.Streams) != len(cfg.Clusters) {
			return nil, fmt.Errorf("core: %d streams for %d clusters", len(cfg.Streams), len(cfg.Clusters))
		}
		jobs = cfg.Streams[i]
		if err := validateStream(i, jobs, cfg.Clusters[i].Nodes); err != nil {
			return nil, err
		}
	} else {
		seed := cfg.streamSeed(i)
		key := workload.StreamKey{Model: *model, Seed: seed, Horizon: cfg.Horizon}
		jobs = cfg.Workloads.Jobs(key, func() []workload.Job {
			return model.GenerateWindow(rng.New(seed), cfg.Horizon)
		})
	}
	return jobs, nil
}

const (
	refNodes           = 128
	calibrationSeed    = 0xCA11B8A7E
	calibrationSamples = 200000
)

// calibrationKey identifies one calibration problem: the target load
// plus the runtime floor/cap, the only Config fields the reference
// model depends on.
type calibrationKey struct {
	targetLoad, minRuntime, maxRuntime float64
}

// calibrationCache memoizes calibratedScale across runs. Calibration
// draws calibrationSamples jobs from a fixed-seed reference model, so
// its result is a pure function of the key and the cached value is
// bit-identical to a fresh computation — experiment matrices rerun the
// same few load points hundreds of times and were paying the full
// sampling cost every run. Concurrent misses may compute the scale
// twice; both arrive at the same value.
var calibrationCache sync.Map // calibrationKey -> float64

func calibratedScale(targetLoad, minRuntime, maxRuntime float64) float64 {
	key := calibrationKey{targetLoad, minRuntime, maxRuntime}
	if v, ok := calibrationCache.Load(key); ok {
		return v.(float64)
	}
	ref := workload.NewModel(refNodes)
	if minRuntime > 0 {
		ref.MinRuntime = minRuntime
	}
	if maxRuntime > 0 {
		ref.MaxRuntime = maxRuntime
	}
	scale := ref.CalibrateClampedCached(calibrationSeed, refNodes, targetLoad, calibrationSamples)
	calibrationCache.Store(key, scale)
	return scale
}

// slab carves one object kind out of per-run chunks: one allocation
// per chunk instead of one per object.
type slab[T any] struct {
	size int // chunk length
	free []T
}

// take carves n zero values. The three-index slice pins the capacity
// so appends can never spill into a neighbour's values; n larger than
// a chunk gets its own allocation.
func (s *slab[T]) take(n int) []T {
	if n > s.size {
		return make([]T, n)
	}
	if len(s.free) < n {
		s.free = make([]T, s.size)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// freeList recycles one object kind within a run: objects put back are
// handed out again before the slab carves new ones. get returns them
// as they were put back, so the caller sets every field.
type freeList[T any] struct {
	slab[T]
	idle []*T
	made int // objects carved fresh; recycled ones are not counted
}

func newFreeList[T any](chunk int) freeList[T] {
	return freeList[T]{slab: slab[T]{size: chunk}}
}

func (l *freeList[T]) get() *T {
	if n := len(l.idle); n > 0 {
		p := l.idle[n-1]
		l.idle = l.idle[:n-1]
		return p
	}
	l.made++
	return &l.take(1)[0]
}

func (l *freeList[T]) put(p *T) { l.idle = append(l.idle, p) }

func (e *engine) newRequest() *sched.Request {
	r := e.reqs.get()
	*r = sched.Request{}
	return r
}

// newGridJob brings job id, cluster home's job j, into the system.
func (e *engine) newGridJob(id int64, home int, j *workload.Job) *gridJob {
	gj := e.gjs.get()
	*gj = gridJob{
		eng: e,
		rec: JobRecord{
			ID:        id,
			Home:      home,
			Submit:    j.Arrival,
			Nodes:     j.Nodes,
			Runtime:   j.Runtime,
			Estimate:  j.Estimate,
			Predicted: math.NaN(),
		},
		copies:  gj.copies[:0],
		targets: gj.targets[:0],
		slot:    len(e.live),
	}
	e.live = append(e.live, gj)
	return gj
}

// newMsg carves one control message addressed to gj's copy at target;
// the job stays in the system until the message lands (landMsg).
func (e *engine) newMsg(gj *gridJob, target int) *ctlMsg {
	m := e.msgs.get()
	m.gj, m.target = gj, target
	gj.refs++
	return m
}

// landMsg recycles a control message whose action has run.
func (e *engine) landMsg(m *ctlMsg) {
	gj := m.gj
	m.gj = nil
	e.msgs.put(m)
	e.release(gj)
}

// release drops one of gj's references and retires the job at the
// last.
func (e *engine) release(gj *gridJob) {
	gj.refs--
	if gj.refs == 0 {
		e.retire(gj)
	}
}

// overrun is one late loser's capacity cost, kept with its job's ID so
// collect can sum the run's overruns in job order.
type overrun struct {
	job int64
	cpu float64
}

// settle completes gj's record from its copies, whose states are final
// once the job has retired or the run has stopped: under a positive
// ControlLatency the winner that onStartLatent left provisional and the
// late losers, and the predicted wait.
func (e *engine) settle(gj *gridJob) {
	if e.cfg.ControlLatency > 0 && gj.winner != nil {
		gj.rec.Start = gj.winner.Start
		gj.rec.Winner = gj.winner.Cluster().Index
		if e.inj == nil {
			for _, c := range gj.copies {
				if c != gj.winner && c.State == sched.Done {
					e.overruns = append(e.overruns, overrun{job: gj.rec.ID, cpu: c.Runtime * float64(c.Nodes)})
				}
			}
		}
	}
	if e.cfg.Predict {
		pred := math.Inf(1)
		for _, c := range gj.copies {
			if rsv := c.Reserved; !math.IsNaN(rsv) {
				if w := rsv - c.Submit; w < pred {
					pred = w
				}
			}
		}
		if !math.IsInf(pred, 1) {
			gj.rec.Predicted = pred
		}
	}
}

// retire takes a job whose last reference is gone out of the system:
// its record goes to its slot in e.jobs, and its requests and the grid
// job itself go back to their free lists.
func (e *engine) retire(gj *gridJob) {
	e.settle(gj)
	if gj.winner == nil || gj.rec.End == 0 {
		panic(fmt.Sprintf("core: job %d left the system without running", gj.rec.ID))
	}
	e.jobs[gj.rec.ID] = gj.rec
	last := e.live[len(e.live)-1]
	last.slot = gj.slot
	e.live[gj.slot] = last
	e.live[len(e.live)-1] = nil
	e.live = e.live[:len(e.live)-1]
	for _, c := range gj.copies {
		if e.poison {
			c.Submit, c.Start, c.End, c.Reserved = math.NaN(), math.NaN(), math.NaN(), math.NaN()
			c.Runtime, c.Estimate, c.Nodes = math.NaN(), math.NaN(), -1
			c.Owner = nil
		}
		e.reqs.put(c)
	}
	if e.poison {
		gj.rec.Submit, gj.rec.Start, gj.rec.End = math.NaN(), math.NaN(), math.NaN()
		gj.rec.Runtime, gj.rec.Estimate, gj.rec.Nodes = math.NaN(), math.NaN(), -1
		gj.eng = nil
	}
	e.gjs.put(gj)
}

// arriveAction is the DES action of an arrival deferred by an outage.
func arriveAction(a any) {
	gj := a.(*gridJob)
	gj.eng.arrive(gj)
	gj.eng.release(gj)
}

// publisher periodically captures one cluster's load into the grid
// information service. Captures run at prioPublish, after the
// instant's coalesced scheduling pass, so each snapshot reflects the
// settled queue; the chain rearms itself until the horizon.
type publisher struct {
	eng      *engine
	cluster  int
	interval float64
}

func publishAction(a any) {
	p := a.(*publisher)
	e := p.eng
	c := e.clusters[p.cluster]
	now := e.sim.Now()
	e.gisSvc.Publish(p.cluster, now, gis.Load{
		QueueLen:   c.QueueLen(),
		QueuedWork: c.QueuedWork(),
		FreeNodes:  c.Free(),
	})
	if next := now + p.interval; next <= e.cfg.Horizon {
		e.sim.ScheduleAfter(p.interval, prioPublish, publishAction, p)
	}
}

// arrivalFeeder walks one cluster's job stream in arrival order,
// keeping a single pending arrival event per cluster and bringing each
// job into the system as it arrives.
type arrivalFeeder struct {
	eng  *engine
	jobs []workload.Job // the cluster's stream, nondecreasing in Arrival
	home int
	base int64 // ID of jobs[0]
	next int
}

// feederAction fires one arrival and schedules the cluster's next one.
// The next event is scheduled before arrive runs so its insertion
// order matches the old pre-scheduled arrivals as closely as possible.
func feederAction(a any) {
	f := a.(*arrivalFeeder)
	e := f.eng
	j := &f.jobs[f.next]
	id := f.base + int64(f.next)
	f.next++
	if f.next < len(f.jobs) {
		e.sim.ScheduleFn(f.jobs[f.next].Arrival, e.arrivalPrio(), feederAction, f)
	}
	e.arrive(e.newGridJob(id, f.home, j))
}

// arrivalPrio is the priority of arrival events: the seed engine's 0
// when control messages are instantaneous, prioArrival under a
// positive ControlLatency (see the priority taxonomy above).
func (e *engine) arrivalPrio() int {
	if e.cfg.ControlLatency > 0 {
		return prioArrival
	}
	return 0
}

// ctlMsg is one in-flight control message addressed to the copy of gj
// at cluster target: a remote submit (latent or fault-delayed) or a
// latent cancel.
type ctlMsg struct {
	gj     *gridJob
	target int
}

// delayedSubmitAction delivers a fault-delayed remote submit.
func delayedSubmitAction(a any) {
	m := a.(*ctlMsg)
	e := m.gj.eng
	e.deliverSubmit(m.gj, m.target)
	e.landMsg(m)
}

// latentSubmitAction delivers a remote submit after the control-plane
// latency. Unlike the fault-delay path there is no mootness check: a
// winner's cancel reaches this cluster no earlier than the copy itself
// (the cancel left at a start time >= the job's submission, on the
// same latency), so the copy is enqueued and the in-flight broadcast
// cancels it — or fails to, if a pass starts it first (an overrun).
func latentSubmitAction(a any) {
	m := a.(*ctlMsg)
	e := m.gj.eng
	e.submitCopy(m.gj, m.target)
	e.landMsg(m)
}

// cancelMsgAction lands a cancel broadcast after the control-plane
// latency. The addressed copy may already be running (then the cancel
// fails and the copy overruns), already canceled by an earlier
// broadcast, or gone entirely (lost to faults); only a successful
// cancel counts a loser.
func cancelMsgAction(a any) {
	m := a.(*ctlMsg)
	e := m.gj.eng
	for _, c := range m.gj.copies {
		if c.Cluster().Index != m.target {
			continue
		}
		e.cancel(m.gj, c)
		break
	}
	e.landMsg(m)
}

// delayedCancelAction delivers a fault-delayed loser cancel. By the
// time it lands the copy may already be running — then the cancel
// fails and the copy runs to completion as an orphan (counted at its
// start).
func delayedCancelAction(a any) {
	r := a.(*sched.Request)
	gj := r.Owner.(*gridJob)
	gj.eng.cancel(gj, r)
	gj.eng.release(gj)
}

// cancel withdraws gj's pending copy c, if it still is pending, and
// counts a loser.
func (e *engine) cancel(gj *gridJob, c *sched.Request) {
	if c.Cluster().Cancel(c) {
		// Cancel latency in virtual time: how long the losing copy
		// occupied its queue before the cancel reached it.
		e.cLosers.Inc()
		e.hCancelLatency.Observe(e.sim.Now() - c.Submit)
		e.release(gj)
	}
}

// arrive submits a job's request(s) at its arrival time. The job's
// shape (home cluster, nodes, runtime, estimate) rides in gj.rec.
func (e *engine) arrive(gj *gridJob) {
	n := len(e.clusters)
	home := gj.rec.Home
	if until, down := e.inj.Down(home, e.sim.Now()); down {
		// The home daemon is unreachable: the user keeps retrying, so
		// the submission lands when the outage lifts. The job's Submit
		// time stays at the first attempt — the wait counts against
		// its stretch.
		e.faults.SubmitsDeferred++
		e.cFSubmitsDefer.Inc()
		gj.refs++
		e.sim.ScheduleFn(until, 0, arriveAction, gj)
		return
	}
	redundant := e.cfg.Scheme != SchemeNone && n > 1 &&
		(e.cfg.RedundantFraction >= 1 || e.src.Bernoulli(e.cfg.RedundantFraction))
	targets := append(e.targets[:0], home)
	if redundant {
		want := e.cfg.Scheme.Copies(n) - 1
		targets = e.route.appendRemotes(targets, e.src, e.cfg.Routing, e.cfg.Clusters, home, gj.rec.Nodes, want, e.view, e.sim.Now())
	}
	e.targets = targets
	gj.rec.Redundant = redundant && len(targets) > 1
	gj.rec.Copies = len(targets)
	e.cJobs.Inc()
	if gj.rec.Redundant {
		e.cJobsRedundant.Inc()
	}
	e.cCopies.Add(int64(len(targets)))
	e.cCopiesRemote.Add(int64(len(targets) - 1))

	lat := e.cfg.ControlLatency
	if lat > 0 {
		if cap(gj.targets) < len(targets) {
			gj.targets = e.ints.take(len(targets))
		}
		gj.targets = append(gj.targets[:0], targets...)
	}
	if cap(gj.copies) < len(targets) {
		gj.copies = e.copies.take(len(targets))[:0]
	}
	for _, t := range targets {
		if t != home {
			// Remote copies ride the control plane: they can be lost
			// outright, dropped into an outage, or delivered late.
			if lost, delay := e.inj.SubmitFate(); lost {
				e.faults.SubmitsLost++
				e.cFSubmitsLost.Inc()
				gj.rec.Copies--
				continue
			} else if delay > 0 {
				// A fault delay stacks on top of the base latency.
				e.faults.SubmitsDelayed++
				e.sim.ScheduleFn(e.sim.Now()+lat+delay, 0, delayedSubmitAction, e.newMsg(gj, t))
				continue
			}
			if _, down := e.inj.Down(t, e.sim.Now()); down {
				e.faults.SubmitsLost++
				e.cFSubmitsLost.Inc()
				gj.rec.Copies--
				continue
			}
			if lat > 0 {
				e.sim.ScheduleAfter(lat, prioDeliver, latentSubmitAction, e.newMsg(gj, t))
				continue
			}
		}
		e.submitCopy(gj, t)
	}
}

// submitCopy enqueues one copy of gj at cluster t; the job stays in
// the system until the copy is Done or Canceled.
func (e *engine) submitCopy(gj *gridJob, t int) {
	est := gj.rec.Estimate
	if t != gj.rec.Home && e.cfg.InflateRemote > 0 {
		est *= 1 + e.cfg.InflateRemote
	}
	r := e.newRequest()
	r.JobID = gj.rec.ID
	r.Owner = gj
	r.Nodes = gj.rec.Nodes
	r.Runtime = gj.rec.Runtime
	r.Estimate = est
	gj.copies = append(gj.copies, r)
	gj.refs++
	e.clusters[t].Submit(r)
}

// deliverSubmit lands a fault-delayed remote submit. A copy arriving
// after the job already has a winner is moot and is discarded; one
// arriving into an outage window is dropped.
func (e *engine) deliverSubmit(gj *gridJob, t int) {
	if gj.winner != nil {
		e.faults.MootSubmits++
		gj.rec.Copies--
		return
	}
	if _, down := e.inj.Down(t, e.sim.Now()); down {
		e.faults.SubmitsLost++
		e.cFSubmitsLost.Inc()
		gj.rec.Copies--
		return
	}
	e.submitCopy(gj, t)
}

// onStart fires when any request begins execution: the first copy to
// start wins, and all other copies are canceled immediately (the
// paper's callback protocol; no network delay is simulated, per
// Section 3.1.2).
func (e *engine) onStart(r *sched.Request) {
	gj, _ := r.Owner.(*gridJob)
	if gj == nil {
		panic("core: start callback for unknown request")
	}
	if e.cfg.ControlLatency > 0 {
		e.onStartLatent(gj, r)
		return
	}
	if gj.winner != nil {
		// With faults on, a copy whose cancel was lost or delivered
		// late is an orphan: it kept its queue slot and now consumes
		// real capacity, running to completion.
		if e.inj != nil {
			e.faults.OrphanStarts++
			e.faults.OrphanCPUSeconds += r.Runtime * float64(r.Nodes)
			e.cOrphans.Inc()
			e.hOrphanRuntime.Observe(r.Runtime)
			return
		}
		panic(fmt.Sprintf("core: job %d started twice (clusters %s and %s)",
			gj.rec.ID, gj.winner.Cluster().Name, r.Cluster().Name))
	}
	gj.winner = r
	gj.rec.Start = r.Start
	gj.rec.Winner = r.Cluster().Index
	for _, c := range gj.copies {
		if c == r {
			continue
		}
		if lost, delay := e.inj.CancelFate(); lost {
			// The cancel message never arrives: the copy is orphaned.
			e.faults.CancelsLost++
			e.cFCancelsLost.Inc()
			continue
		} else if delay > 0 {
			e.faults.CancelsDelayed++
			e.cFCancelsDelayed.Inc()
			gj.refs++
			e.sim.ScheduleFn(e.sim.Now()+delay, 0, delayedCancelAction, c)
			continue
		}
		e.cancel(gj, c)
	}
}

// onStartLatent handles a start under a positive ControlLatency.
// Cancels take the latency to arrive, so several copies can start
// before hearing of each other; the winner is the lexicographically
// least (start time, cluster index) start — a rule that does not
// depend on the order same-instant starts fire in — resolved finally
// when the job settles. Each winner-improving start broadcasts cancels
// to the job's other target clusters. (A non-improving start would
// only re-broadcast no-ops: the first winner's cancels, sent no later,
// already covered every copy.)
func (e *engine) onStartLatent(gj *gridJob, r *sched.Request) {
	if w := gj.winner; w != nil {
		if e.inj != nil {
			// With faults on, any non-first start is an orphan: its
			// cancel was lost, delayed, or simply still in flight.
			e.faults.OrphanStarts++
			e.faults.OrphanCPUSeconds += r.Runtime * float64(r.Nodes)
			e.cOrphans.Inc()
			e.hOrphanRuntime.Observe(r.Runtime)
			return
		}
		if r.Start > w.Start || (r.Start == w.Start && r.Cluster().Index > w.Cluster().Index) {
			// A late loser: it started before its cancel arrived and
			// now runs to completion. Accounted as an overrun when the
			// job settles.
			return
		}
	}
	gj.winner = r
	lat := e.cfg.ControlLatency
	for _, t := range gj.targets {
		if t == r.Cluster().Index {
			continue
		}
		if lost, delay := e.inj.CancelFate(); lost {
			e.faults.CancelsLost++
			e.cFCancelsLost.Inc()
			continue
		} else if delay > 0 {
			e.faults.CancelsDelayed++
			e.cFCancelsDelayed.Inc()
			e.sim.ScheduleFn(e.sim.Now()+lat+delay, prioCancel, cancelMsgAction, e.newMsg(gj, t))
			continue
		}
		e.sim.ScheduleAfter(lat, prioCancel, cancelMsgAction, e.newMsg(gj, t))
	}
}

// onFinish fires when a copy completes: the winner, or a copy that
// started without winning and ran to completion.
func (e *engine) onFinish(r *sched.Request) {
	gj, _ := r.Owner.(*gridJob)
	if gj == nil {
		panic("core: finish callback for unknown request")
	}
	switch {
	case gj.winner == r:
		gj.rec.End = r.End
	case e.inj != nil:
		// An orphan ran to completion; its capacity cost was charged
		// when it started.
	case e.cfg.ControlLatency > 0:
		// An overrun completing; charged when the job settles.
	default:
		panic("core: finish callback for non-winning request")
	}
	e.release(gj)
}

// collect turns the run into a Result, verifying that every job ran
// exactly once. Jobs still in the system — only a run stopped before
// its last event has any — are settled as retire would; those whose
// winner had finished are recorded like retired ones.
func (e *engine) collect() (*Result, error) {
	res := &Result{
		Events:  e.sim.Processed(),
		Faults:  e.faults,
		Routing: e.routing,
	}
	for _, gj := range e.live {
		e.settle(gj)
		if gj.rec.End != 0 {
			e.jobs[gj.rec.ID] = gj.rec
		}
	}
	// Jobs settle in no particular order; the sum is defined in (job
	// ID, copy) order, which the stable sort restores.
	slices.SortStableFunc(e.overruns, func(a, b overrun) int { return cmp.Compare(a.job, b.job) })
	for _, o := range e.overruns {
		res.Overruns.Starts++
		res.Overruns.CPUSeconds += o.cpu
	}
	jobs := e.jobs[:0]
	for id := range e.jobs {
		rec := &e.jobs[id]
		if rec.End == 0 {
			if e.cfg.StopAtHorizon {
				res.Unfinished++
				continue
			}
			return nil, fmt.Errorf("core: job %d never ran", id)
		}
		if rec.End > res.MakeSpan {
			res.MakeSpan = rec.End
		}
		jobs = append(jobs, *rec)
	}
	res.Jobs = jobs
	for _, c := range e.clusters {
		res.Clusters = append(res.Clusters, ClusterResult{
			Name:  c.Name,
			Nodes: c.Nodes(),
			Stats: c.Stats(),
		})
	}
	return res, nil
}
