// Package invariant is the simulator's independent auditor: it consumes
// a finished core.Result and asserts properties that must hold for the
// event loop to be trusted — causality of every per-job timeline,
// liveness below saturation, cluster capacity never exceeded, work
// conservation (no fully idle cluster while eligible work waits),
// CPU-time ledger balance between the scheduler's busy accounting and
// the engine's useful-plus-orphaned work, and bitwise determinism of
// repeated runs. Violations are reported as structured Findings, the
// currency of the FINDINGS.md discipline; the `validate` registry
// experiment runs this suite (plus the analytical twins in
// invariant/twin) in CI.
package invariant

import (
	"fmt"
	"math"
	"sort"

	"redreq/internal/core"
	"redreq/internal/workload"
)

// Finding is one detected invariant violation.
type Finding struct {
	// Invariant names the violated property: "causality", "liveness",
	// "capacity", "conservation", "ledger", "eligibility", "staleness",
	// or "determinism".
	Invariant string
	// Job is the offending job ID, or -1 when the finding is not
	// job-scoped; Cluster likewise.
	Job     int64
	Cluster int
	// Detail describes the violation.
	Detail string
}

func (f Finding) String() string {
	s := f.Invariant
	if f.Job >= 0 {
		s += fmt.Sprintf(" job %d", f.Job)
	}
	if f.Cluster >= 0 {
		s += fmt.Sprintf(" cluster %d", f.Cluster)
	}
	return s + ": " + f.Detail
}

// maxFindings bounds the report: a broken run would otherwise emit one
// finding per job. The truncation itself is reported.
const maxFindings = 32

// Context carries what the checker needs to know about the run beyond
// the Result itself.
type Context struct {
	// Nodes is the per-cluster node count, in platform order.
	Nodes []int
	// StopAtHorizon marks a truncated run: records cover only jobs
	// that completed inside the window, so the conservation, liveness,
	// and ledger checks (which need the full population) are skipped.
	StopAtHorizon bool
	// Faulty marks a run with an active fault plan: orphan copies
	// consumed capacity invisibly to the job records, so the
	// conservation check is skipped and the ledger check includes the
	// orphan terms.
	Faulty bool
	// ControlLatency is the run's cross-cluster control latency: a
	// remote winner only becomes pending at its cluster at
	// Submit + ControlLatency (the conservation check must not expect
	// an in-flight copy to be runnable), and the ledger gains the
	// overrun terms.
	ControlLatency float64
	// Informed marks a run routed by an informed policy over the grid
	// information service, enabling the staleness audit below.
	Informed bool
	// GISInterval is the effective snapshot publish interval (see
	// core.Config.GISInterval) and GISDelay the propagation delay (the
	// control latency): no routing decision may have read a snapshot
	// older than GISInterval + GISDelay.
	GISInterval float64
	GISDelay    float64
	// Eps is the time tolerance in seconds for floating-point
	// comparisons; 0 means 1e-6.
	Eps float64
}

// FromConfig derives the checking context for a run of cfg.
func FromConfig(cfg *core.Config) Context {
	ctx := Context{
		Nodes:          make([]int, len(cfg.Clusters)),
		StopAtHorizon:  cfg.StopAtHorizon,
		Faulty:         cfg.Faults != nil && !cfg.Faults.Empty(),
		ControlLatency: cfg.ControlLatency,
		Informed:       cfg.Routing.Informed() && cfg.GISInterval() > 0 && cfg.Streams == nil,
		GISInterval:    cfg.GISInterval(),
		GISDelay:       cfg.ControlLatency,
	}
	for i, cs := range cfg.Clusters {
		ctx.Nodes[i] = cs.Nodes
	}
	return ctx
}

// checker accumulates findings up to the cap.
type checker struct {
	findings  []Finding
	truncated int
}

func (c *checker) add(f Finding) {
	if len(c.findings) >= maxFindings {
		c.truncated++
		return
	}
	c.findings = append(c.findings, f)
}

func (c *checker) addf(inv string, job int64, cluster int, format string, args ...any) {
	c.add(Finding{Invariant: inv, Job: job, Cluster: cluster, Detail: fmt.Sprintf(format, args...)})
}

// Check audits res against every invariant the context permits and
// returns all findings (nil when the run is clean).
func Check(ctx Context, res *core.Result) []Finding {
	eps := ctx.Eps
	if eps == 0 {
		eps = 1e-6
	}
	c := &checker{}
	c.causality(ctx, res, eps)
	c.liveness(ctx, res)
	c.sweep(ctx, res, eps)
	c.ledger(ctx, res, eps)
	c.eligibility(ctx, res)
	c.staleness(ctx, res, eps)
	if c.truncated > 0 {
		c.findings = append(c.findings, Finding{
			Invariant: "truncated", Job: -1, Cluster: -1,
			Detail: fmt.Sprintf("%d further findings suppressed", c.truncated),
		})
	}
	return c.findings
}

// causality checks every job's timeline: submit <= start <= complete,
// execution span equal to the recorded runtime, and structural sanity
// of the winner, node count, copy count, and estimate.
func (c *checker) causality(ctx Context, res *core.Result, eps float64) {
	for i := range res.Jobs {
		j := &res.Jobs[i]
		switch {
		case j.Submit < 0:
			c.addf("causality", j.ID, -1, "submit at %v < 0", j.Submit)
		case j.Start < j.Submit-eps:
			c.addf("causality", j.ID, -1, "start %v before submit %v", j.Start, j.Submit)
		case j.End < j.Start-eps:
			c.addf("causality", j.ID, -1, "completion %v before start %v", j.End, j.Start)
		}
		if j.Runtime <= 0 {
			c.addf("causality", j.ID, -1, "non-positive runtime %v", j.Runtime)
		} else if span := j.End - j.Start; math.Abs(span-j.Runtime) > eps*(1+j.Runtime) {
			c.addf("causality", j.ID, -1, "execution span %v != runtime %v", span, j.Runtime)
		}
		if j.Estimate < j.Runtime-eps {
			c.addf("causality", j.ID, -1, "estimate %v below runtime %v", j.Estimate, j.Runtime)
		}
		if j.Winner < 0 || j.Winner >= len(ctx.Nodes) {
			c.addf("causality", j.ID, -1, "winner cluster %d out of range", j.Winner)
		} else if j.Nodes < 1 || j.Nodes > ctx.Nodes[j.Winner] {
			c.addf("causality", j.ID, j.Winner, "%d nodes on a %d-node cluster", j.Nodes, ctx.Nodes[j.Winner])
		}
		if j.Copies < 1 {
			c.addf("causality", j.ID, -1, "%d surviving copies", j.Copies)
		}
	}
}

// liveness checks that below saturation every admitted job completed:
// a full (non-truncated) run must leave nothing unfinished, and the
// recorded makespan must match the last completion.
func (c *checker) liveness(ctx Context, res *core.Result) {
	if ctx.StopAtHorizon {
		return
	}
	if res.Unfinished != 0 {
		c.addf("liveness", -1, -1, "%d jobs admitted but never completed", res.Unfinished)
	}
	var last float64
	for i := range res.Jobs {
		if e := res.Jobs[i].End; e > last {
			last = e
		}
	}
	if len(res.Jobs) > 0 && last != res.MakeSpan {
		c.addf("liveness", -1, -1, "makespan %v != last completion %v", res.MakeSpan, last)
	}
}

// sweepEvent is one start/end/submit transition at one cluster.
type sweepEvent struct {
	t    float64
	kind int // 0 end, 1 submit, 2 start: processed in this order at equal times
	job  int64
	n    int
}

// sweep replays each cluster's winner timeline as a sweep line and
// checks capacity (busy nodes never exceed the cluster's size) and
// work conservation (no interval with zero busy nodes while a job that
// eventually wins there sits in its queue). The conservation check is
// the "modulo backfill holes" fragment that holds under FCFS, EASY,
// and CBF alike: partial idleness can be legitimate (a backfill hole
// protects the head reservation), full idleness with eligible work is
// not, since any pending request fits an empty cluster. It needs the
// full copy lifecycle to be visible, so it is skipped for truncated
// and faulty runs, and for runs with overruns (an overrun copy runs on
// a non-winner cluster, busying nodes invisibly to the winner records);
// capacity can only be under-estimated from winner records, so it is
// always sound to check.
func (c *checker) sweep(ctx Context, res *core.Result, eps float64) {
	conserve := !ctx.StopAtHorizon && !ctx.Faulty && res.Overruns.Starts == 0
	events := make([][]sweepEvent, len(ctx.Nodes))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Winner < 0 || j.Winner >= len(ctx.Nodes) {
			continue // already reported by causality
		}
		ev := events[j.Winner]
		ev = append(ev,
			sweepEvent{t: j.Start, kind: 2, job: j.ID, n: j.Nodes},
			sweepEvent{t: j.End, kind: 0, job: j.ID, n: j.Nodes})
		if conserve {
			// A remote winner's copy is in flight for ControlLatency
			// after submission; it only joins the queue on delivery.
			pend := j.Submit
			if j.Winner != j.Home {
				pend += ctx.ControlLatency
			}
			ev = append(ev, sweepEvent{t: pend, kind: 1, job: j.ID, n: j.Nodes})
		}
		events[j.Winner] = ev
	}
	for ci, ev := range events {
		sort.Slice(ev, func(a, b int) bool {
			if ev[a].t != ev[b].t {
				return ev[a].t < ev[b].t
			}
			if ev[a].kind != ev[b].kind {
				return ev[a].kind < ev[b].kind
			}
			return ev[a].job < ev[b].job
		})
		busy, pending := 0, 0
		capViolated, idleViolated := false, false
		for k := 0; k < len(ev); k++ {
			e := ev[k]
			switch e.kind {
			case 0:
				busy -= e.n
			case 1:
				pending++
			case 2:
				busy += e.n
				pending--
			}
			if busy > ctx.Nodes[ci] && !capViolated {
				capViolated = true
				c.addf("capacity", e.job, ci, "%d busy nodes on a %d-node cluster at t=%v", busy, ctx.Nodes[ci], e.t)
			}
			// Inspect the gap up to the next event time: a fully idle
			// cluster with a pending eventual winner must start it at
			// this very timestamp (the pass event runs at the same
			// virtual time), so any positive-width idle gap is a
			// conservation violation.
			if conserve && busy == 0 && pending > 0 && !idleViolated &&
				k+1 < len(ev) && ev[k+1].t > e.t+eps {
				idleViolated = true
				c.addf("conservation", e.job, ci, "cluster fully idle for %vs from t=%v while %d eventual winner(s) waited",
					ev[k+1].t-e.t, e.t, pending)
			}
		}
	}
}

// eligibility checks that copies only went to clusters that could run
// them. Per-copy placements are not recorded, but the copy count bounds
// them: a non-redundant job has exactly its home copy (and must win at
// home), and a redundant job can hold at most one copy per eligible
// remote cluster (large enough, not home) plus the home copy — and, in
// a fault-free run with at least one eligible remote, at least two
// (every routing policy sends to every eligible remote the scheme asks
// for before clamping).
func (c *checker) eligibility(ctx Context, res *core.Result) {
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Redundant {
			if j.Copies != 1 || j.Winner != j.Home {
				c.addf("eligibility", j.ID, j.Winner, "non-redundant job with %d copies, winner %d, home %d",
					j.Copies, j.Winner, j.Home)
			}
			continue
		}
		eligible := 0
		for ci, n := range ctx.Nodes {
			if ci != j.Home && n >= j.Nodes {
				eligible++
			}
		}
		if j.Copies > 1+eligible {
			c.addf("eligibility", j.ID, -1, "%d copies with only %d eligible remote cluster(s)",
				j.Copies, eligible)
		}
		if !ctx.Faulty && eligible > 0 && j.Copies < 2 {
			c.addf("eligibility", j.ID, -1, "redundant job kept %d copies despite %d eligible remote(s)",
				j.Copies, eligible)
		}
	}
}

// staleness audits the information model of informed routing: the
// oldest snapshot any decision read can be at most one publish interval
// plus the propagation delay old — older means the grid information
// service served outdated state or the engine read around it.
func (c *checker) staleness(ctx Context, res *core.Result, eps float64) {
	if !ctx.Informed {
		return
	}
	bound := ctx.GISInterval + ctx.GISDelay
	if res.Routing.MaxAge > bound+eps {
		c.addf("staleness", -1, -1, "observed snapshot age %v exceeds bound %v (interval %v + delay %v)",
			res.Routing.MaxAge, bound, ctx.GISInterval, ctx.GISDelay)
	}
}

// ledger balances the request and CPU-time bookkeeping across engine
// and schedulers. Every identity needs the full population, so the
// whole check is skipped for truncated runs.
//
//   - submitted copies  = surviving copies recorded per job
//   - started requests  = winners + orphan starts + overrun starts
//   - finished requests = started requests (everything runs to
//     completion once started)
//   - canceled requests = loser copies - orphan starts - overruns
//   - scheduler busy node-seconds = useful + orphaned + overrun work
//
// Overruns are the ControlLatency analogue of orphans: copies that
// started before the winner's cancel landed (core.Result.Overruns).
func (c *checker) ledger(ctx Context, res *core.Result, eps float64) {
	if ctx.StopAtHorizon {
		return
	}
	var submitted, started, finished, canceled int
	var busy float64
	for ci := range res.Clusters {
		st := &res.Clusters[ci].Stats
		submitted += st.Submitted
		started += st.Started
		finished += st.Finished
		canceled += st.Canceled
		busy += st.BusyCPUSeconds
	}
	var copies, losers int
	var useful float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		copies += j.Copies
		losers += j.Copies - 1
		useful += j.Runtime * float64(j.Nodes)
	}
	f := res.Faults
	o := res.Overruns
	if submitted != copies {
		c.addf("ledger", -1, -1, "%d requests submitted, %d copies recorded", submitted, copies)
	}
	if want := len(res.Jobs) + int(f.OrphanStarts) + int(o.Starts); started != want {
		c.addf("ledger", -1, -1, "%d requests started, want %d winners + %d orphans + %d overruns",
			started, len(res.Jobs), f.OrphanStarts, o.Starts)
	}
	if finished != started {
		c.addf("ledger", -1, -1, "%d finished != %d started", finished, started)
	}
	if want := losers - int(f.OrphanStarts) - int(o.Starts); canceled != want {
		c.addf("ledger", -1, -1, "%d requests canceled, want %d losers - %d orphans - %d overruns",
			canceled, losers, f.OrphanStarts, o.Starts)
	}
	if want := useful + f.OrphanCPUSeconds + o.CPUSeconds; math.Abs(busy-want) > eps*(1+want) {
		c.addf("ledger", -1, -1, "scheduler busy ledger %v node-s != useful %v + orphaned %v + overrun %v",
			busy, useful, f.OrphanCPUSeconds, o.CPUSeconds)
	}
}

// CheckDeterminism runs cfg twice directly and once with its job
// streams drawn through a fresh workload.StreamCache (the shared-stream
// path the run memo takes), comparing all three Results bit-for-bit.
// Any divergence means the engine's output depends on something
// besides its Config — the property every paired-seed comparison and
// golden fixture rests on.
func CheckDeterminism(cfg core.Config) []Finding {
	c := &checker{}
	a, err := core.Run(cfg)
	if err != nil {
		c.addf("determinism", -1, -1, "first run failed: %v", err)
		return c.findings
	}
	b, err := core.Run(cfg)
	if err != nil {
		c.addf("determinism", -1, -1, "second run failed: %v", err)
		return c.findings
	}
	compareResults(c, "rerun", a, b)
	shared := cfg
	shared.Workloads = workload.NewStreamCache()
	m, err := core.Run(shared)
	if err != nil {
		c.addf("determinism", -1, -1, "stream-cached run failed: %v", err)
		return c.findings
	}
	compareResults(c, "stream cache", a, m)
	return c.findings
}

// feq is bitwise float equality (NaN-safe: Predicted is NaN when
// prediction is off, and NaN != NaN under ==).
func feq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func compareResults(c *checker, label string, a, b *core.Result) {
	if len(a.Jobs) != len(b.Jobs) {
		c.addf("determinism", -1, -1, "%s: %d vs %d jobs", label, len(a.Jobs), len(b.Jobs))
		return
	}
	for i := range a.Jobs {
		x, y := &a.Jobs[i], &b.Jobs[i]
		if x.ID != y.ID || x.Home != y.Home || x.Redundant != y.Redundant ||
			x.Copies != y.Copies || x.Nodes != y.Nodes || x.Winner != y.Winner ||
			!feq(x.Submit, y.Submit) || !feq(x.Runtime, y.Runtime) ||
			!feq(x.Estimate, y.Estimate) || !feq(x.Start, y.Start) ||
			!feq(x.End, y.End) || !feq(x.Predicted, y.Predicted) {
			c.addf("determinism", x.ID, -1, "%s: job record %d diverged: %+v vs %+v", label, i, *x, *y)
			return
		}
	}
	if a.Routing != b.Routing {
		c.addf("determinism", -1, -1, "%s: routing stats diverged: %+v vs %+v", label, a.Routing, b.Routing)
	}
	if a.Events != b.Events || !feq(a.MakeSpan, b.MakeSpan) ||
		a.Unfinished != b.Unfinished || a.Faults != b.Faults ||
		a.Overruns.Starts != b.Overruns.Starts || !feq(a.Overruns.CPUSeconds, b.Overruns.CPUSeconds) {
		c.addf("determinism", -1, -1, "%s: run summary diverged (%d/%v/%d/%+v vs %d/%v/%d/%+v)",
			label, a.Events, a.MakeSpan, a.Unfinished, a.Overruns, b.Events, b.MakeSpan, b.Unfinished, b.Overruns)
	}
	for i := range a.Clusters {
		if i < len(b.Clusters) && a.Clusters[i].Stats != b.Clusters[i].Stats {
			c.addf("determinism", -1, i, "%s: cluster stats diverged: %+v vs %+v",
				label, a.Clusters[i].Stats, b.Clusters[i].Stats)
		}
	}
}
