package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"redreq/internal/core"
	"redreq/internal/des"
	"redreq/internal/experiment"
	"redreq/internal/invariant"
	"redreq/internal/metrics"
	"redreq/internal/middleware"
	"redreq/internal/pbsd"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/stats"
	"redreq/internal/workload"
)

// Layer probes: short timed loops over one module's public API, on
// reference inputs derived from the seed. Every traced run executes all
// of them, whatever its workload, so every per-layer metric has a
// measured value in every traced run; the workload then overwrites the
// ones it measured in place on its own path (workload.layers).
//
// A probe gives a layer's unit cost from outside. What core.Run spends
// inside des, sched and core is not observable from here: unit cost
// times the exact counts is an estimate, printed as one.

// probeRounds is how often a probe's loop is repeated; the median round
// is reported.
const probeRounds = 3

// medianRound calls f probeRounds times and returns the median reading.
func medianRound(f func(round int) float64) float64 {
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		rounds[r] = f(r)
	}
	return median(rounds)
}

// perIter times rounds of n calls of f (numbered across rounds) and
// returns the median round's nanoseconds per call.
func perIter(n int, f func(i int)) float64 {
	return medianRound(func(r int) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(r*n + i)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// prober accumulates probe readings and correctness failures.
type prober struct {
	p   params
	out map[string]float64
	bad []string
}

func (pr *prober) fail(format string, args ...any) {
	pr.bad = append(pr.bad, "probe: "+fmt.Sprintf(format, args...))
}

// runProbes executes every layer probe and returns their readings and
// any correctness failures.
func runProbes(p params) (map[string]float64, []string) {
	pr := &prober{p: p, out: make(map[string]float64)}
	pr.workload()
	pr.des()
	pr.sched()
	pr.core()
	pr.registry()
	pr.middleware()
	pr.pbsd()
	return pr.out, pr.bad
}

func (pr *prober) workload() {
	model := calibratedModel(workload.Exact)
	var jobs int
	ns := perIter(100, func(i int) {
		jobs += len(model.GenerateWindow(rng.New(pr.p.seed+uint64(i)), simHorizon))
	})
	perStream := float64(jobs) / (100 * probeRounds)
	pr.out["workload.gen_jobs_per_s"] = perStream / ns * 1e9

	ref := workload.NewModel(simNodes)
	ref.MinRuntime, ref.MaxRuntime = simMinRuntime, simMaxRuntime
	pr.out["workload.calibrate_ms"] = perIter(1, func(i int) {
		ref.CalibrateClamped(rng.New(pr.p.seed+uint64(i)), simNodes, simLoad, calibrationSamples)
	}) / 1e6
}

// holdState drives the classic hold model: a fixed population of events,
// each of which reschedules itself a random delay ahead when it fires.
type holdState struct {
	sim  *des.Simulation
	src  *rng.Source
	left int
}

func holdAction(a any) {
	h := a.(*holdState)
	if h.left > 0 {
		h.left--
		h.sim.ScheduleFn(h.sim.Now()+h.src.Exponential(1), 0, holdAction, h)
	}
}

func nopAction(any) {}

func (pr *prober) des() {
	const population, fired = 1000, 300000
	pr.out["des.events_per_s"] = 1e9 / perIter(1, func(i int) {
		h := &holdState{sim: des.New(), src: rng.New(pr.p.seed + uint64(i)), left: fired - population}
		for k := 0; k < population; k++ {
			h.sim.ScheduleFn(h.src.Exponential(1), 0, holdAction, h)
		}
		h.sim.Run()
		if got := h.sim.Processed(); got != fired {
			pr.fail("des hold model fired %d events, want %d", got, fired)
		}
	}) * fired

	// A cancel is O(1) when issued; its cost is paid when the dead event
	// is reaped at the head of the queue, so time both.
	const canceled = 100000
	pr.out["des.cancel_ns"] = medianRound(func(r int) float64 {
		sim := des.New()
		src := rng.New(pr.p.seed + uint64(r))
		evs := make([]*des.Event, canceled)
		for k := range evs {
			evs[k] = sim.ScheduleFn(src.Exponential(1000), 0, nopAction, nil)
		}
		t0 := time.Now()
		for _, e := range evs {
			sim.Cancel(e)
		}
		sim.Run()
		ns := float64(time.Since(t0)) / canceled
		if sim.Processed() != 0 {
			pr.fail("des ran %d canceled events", sim.Processed())
		}
		return ns
	})
}

// passCost holds a cluster's queue at depth behind a job that occupies
// all but one node, and times a submit plus a cancel of one more
// request: each triggers one scheduling pass over the whole queue. It
// returns microseconds per pass.
func (pr *prober) passCost(alg sched.Algorithm, depth, pairs int) float64 {
	sim := des.New()
	cl := sched.NewCluster(sim, "probe", 0, sched.Config{Nodes: simNodes, Alg: alg})
	submit := func(nodes int, est float64) *sched.Request {
		r := &sched.Request{Nodes: nodes, Runtime: est, Estimate: est}
		cl.Submit(r)
		sim.Step()
		return r
	}
	submit(simNodes-1, 1e9)
	src := rng.New(pr.p.seed)
	for i := 0; i < depth; i++ {
		submit(2+src.IntN(simNodes-2), 600+float64(src.IntN(7200)))
	}
	passes0 := cl.Stats().Passes
	reqs := make([]sched.Request, pairs*probeRounds)
	ns := perIter(pairs, func(i int) {
		r := &reqs[i]
		r.Nodes, r.Runtime, r.Estimate = 2, 900, 900
		cl.Submit(r)
		sim.Step()
		cl.Cancel(r)
		sim.Step()
	})
	if got, want := cl.Stats().Passes-passes0, 2*len(reqs); got != want {
		pr.fail("sched %v depth %d: %d passes for %d submit+cancel pairs", alg, depth, got, len(reqs))
	}
	if cl.QueueLen() != depth {
		pr.fail("sched %v: queue depth drifted to %d, want %d", alg, cl.QueueLen(), depth)
	}
	return ns / 2 / 1e3
}

func (pr *prober) sched() {
	pr.out["sched.easy_pass_us_d100"] = pr.passCost(sched.EASY, 100, 3000)
	pr.out["sched.easy_pass_us_d1000"] = pr.passCost(sched.EASY, 1000, 600)
	pr.out["sched.cbf_pass_us_d100"] = pr.passCost(sched.CBF, 100, 3000)
	pr.out["sched.cbf_pass_us_d1000"] = pr.passCost(sched.CBF, 1000, 600)

	// A 1000-segment availability profile: a staircase of reservations.
	const segments = 1000
	prof := sched.NewProfile(0, simNodes)
	src := rng.New(pr.p.seed)
	for i := 0; i < segments/2; i++ {
		start := float64(i) * 100
		prof.AddBusy(start, start+50, 1+src.IntN(simNodes/2))
	}
	var sink float64
	pr.out["sched.profile_anchor_ns"] = perIter(20000, func(i int) {
		sink += prof.FindAnchor(float64(i%segments)*50, 300, simNodes*3/4)
	})
	pr.out["sched.profile_addbusy_ns"] = perIter(20000, func(i int) {
		start := float64(i%segments)*50 + 25
		prof.AddBusy(start, start+300, 1)
		prof.AddBusy(start, start+300, -1)
	}) / 2
	if math.IsNaN(sink) {
		pr.fail("profile anchors are NaN")
	}
	if err := prof.Validate(simNodes); err != nil {
		pr.fail("profile invalid after probe: %v", err)
	}
}

func (pr *prober) core() {
	// One reference replication of sim_easy_all's configuration.
	ref := &simWorkload{p: params{seed: pr.p.seed}, kind: simEasyAll, reps: 1}
	if err := ref.setup(); err != nil {
		pr.fail("reference replication: %v", err)
		return
	}
	t0 := time.Now()
	if _, err := ref.run(nil); err != nil {
		pr.fail("reference replication: %v", err)
		return
	}
	pr.out["core.run_ms"] = float64(time.Since(t0)) / 1e6
	for k, v := range simCountLayers(ref.totals) {
		pr.out[k] = v
	}
	res, cfg := ref.timed0, ref.config(0)

	var sink float64
	pr.out["metrics.from_result_ms"] = perIter(5, func(int) {
		sink += metrics.FromResult(res, nil).AvgStretch
	}) / 1e6
	ctx := invariant.FromConfig(&cfg)
	pr.out["invariant.check_ms"] = perIter(2, func(int) {
		if f := invariant.Check(ctx, res); len(f) > 0 {
			pr.fail("reference replication: invariant: %v", f[0])
		}
	}) / 1e6
	sk := stats.NewSketch(metrics.DigestAlpha)
	pr.out["stats.sketch_add_ns"] = perIter(len(res.Jobs), func(i int) {
		sk.Add(res.Jobs[i%len(res.Jobs)].Stretch())
	})
	fpCfg := cfg
	fpCfg.Streams = nil
	var fp core.Fingerprint
	pr.out["core.fingerprint_us"] = perIter(2000, func(i int) {
		fpCfg.Seed = uint64(i)
		fp = fpCfg.Fingerprint()
	}) / 1e3
	if sink < 1 || fp == (core.Fingerprint{}) {
		pr.fail("reference replication: average stretch %v, fingerprint %x", sink, fp[:4])
	}

	// The sharded engine against the sequential one on the regime it
	// targets (many clusters, positive control latency). On two cores
	// this is a diagnostic, not a scaling curve.
	clusters := make([]core.ClusterSpec, 64)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: 32}
	}
	wide := core.Config{
		Clusters: clusters, Alg: sched.EASY, Scheme: core.SchemeR2, RedundantFraction: 1,
		Seed: pr.p.seed, Horizon: 1800, EstMode: workload.Exact,
		TargetLoad: 0.85, MinRuntime: 30, MaxRuntime: 7200, ControlLatency: 60,
	}
	timeShards := func(shards int) float64 {
		return perIter(1, func(int) {
			c := wide
			c.Shards = shards
			if _, err := core.Run(c); err != nil {
				pr.fail("shards=%d: %v", shards, err)
			}
		})
	}
	pr.out["core.shards2_speedup"] = timeShards(1) / timeShards(2)
}

func (pr *prober) registry() {
	w, err := newRegistryWorkload(pr.p)
	if err != nil {
		pr.fail("%v", err)
		return
	}
	var ps passStats
	var rr runResult
	err = rr.inChunks(1, 1, func(int, int) (int, int, error) {
		var err error
		ps, err = w.pass(experiment.Quick().Reps, nil, 0)
		return int(ps.sims), 0, err
	})
	if err != nil {
		pr.fail("reference registry pass: %v", err)
		return
	}
	if want := pr.p.pins["experiment.sims_per_pass"]; ps.sims != want {
		pr.fail("reference registry pass scheduled %d simulations, golden.json pins %d", ps.sims, want)
	}
	for k, v := range passLayers(ps) {
		pr.out[k] = v
	}
	pr.out["experiment.pool_busy_frac"] = rr.busyFrac(workers)

	// Rendering: one matrix report in all three encodings.
	rep, err := w.specs[0].Report(w.options(1))
	if err != nil {
		pr.fail("render: %v", err)
		return
	}
	pr.out["report.render_ms"] = perIter(200, func(int) {
		err := rep.Render(io.Discard)
		if err == nil {
			err = rep.WriteCSV(io.Discard)
		}
		if err == nil {
			err = rep.WriteJSON(io.Discard)
		}
		if err != nil {
			pr.fail("render: %v", err)
		}
	}) / 1e6
}

// batchEnvelope builds the r-way SubmitBatch envelope a client sends,
// with fixed-width ids so its size is the same for every n.
func batchEnvelope(n int) *middleware.Envelope {
	jobs := make([]middleware.SubmitJob, gridCopies)
	for i := range jobs {
		jobs[i] = middleware.SubmitJob{
			OpID: fmt.Sprintf("probe-op-%08d-%d", n, i),
			Name: "job-0badcafe", Nodes: 4, Walltime: 3600,
			Arguments: []string{"--input", "data.bin"},
		}
	}
	return &middleware.Envelope{
		Header: middleware.Header{MessageID: fmt.Sprintf("probe-msg-%08d", n), Sender: "probe"},
		Body:   middleware.Body{SubmitBatch: &middleware.SubmitBatch{Jobs: jobs}},
	}
}

// handlerCost times Service.Handler().ServeHTTP on n distinct recorded
// SubmitBatch requests (distinct, or the replay cache would answer) and
// returns microseconds per request.
func (pr *prober) handlerCost(cfg middleware.ServiceConfig, n int) float64 {
	backend, err := pbsd.New(pbsd.Config{Nodes: gridNodes})
	if err != nil {
		pr.fail("%v", err)
		return 0
	}
	defer backend.Close()
	cfg.Backend = backend
	svc, err := middleware.NewService(cfg)
	if err != nil {
		pr.fail("%v", err)
		return 0
	}
	defer svc.Close()
	bodies := make([][]byte, n*probeRounds)
	for i := range bodies {
		if bodies[i], err = middleware.Marshal(batchEnvelope(i)); err != nil {
			pr.fail("%v", err)
			return 0
		}
	}
	h := svc.Handler()
	ns := perIter(n, func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/gram", bytes.NewReader(bodies[i]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("<OK>true</OK>")) {
			pr.fail("handler answered %d %.80s", rec.Code, rec.Body.String())
		}
	})
	if queued, _, _ := backend.Stat(); queued != len(bodies)*gridCopies {
		pr.fail("handler probe queued %d jobs, want %d", queued, len(bodies)*gridCopies)
	}
	return ns / 1e3
}

func (pr *prober) middleware() {
	raw, err := middleware.Marshal(batchEnvelope(0))
	if err != nil {
		pr.fail("%v", err)
		return
	}
	pr.out["middleware.envelope_bytes"] = float64(len(raw))
	if want := pr.p.pins["middleware.envelope_bytes"]; int64(len(raw)) != want {
		pr.fail("batch envelope is %d bytes, golden.json pins %d", len(raw), want)
	}
	env := batchEnvelope(0)
	pr.out["middleware.marshal_us"] = perIter(2000, func(int) {
		if _, err := middleware.Marshal(env); err != nil {
			pr.fail("%v", err)
		}
	}) / 1e3
	pr.out["middleware.unmarshal_us"] = perIter(2000, func(int) {
		if _, err := middleware.Unmarshal(bytes.NewReader(raw)); err != nil {
			pr.fail("%v", err)
		}
	}) / 1e3

	stateDir := filepath.Join(pr.p.dir, "probe-state")
	defer os.RemoveAll(stateDir)
	pr.out["middleware.handler_plain_us"] = pr.handlerCost(middleware.ServiceConfig{}, 1000)
	pr.out["middleware.handler_sec_us"] = pr.handlerCost(middleware.ServiceConfig{Security: true}, 150)
	pr.out["middleware.handler_durable_us"] = pr.handlerCost(middleware.ServiceConfig{Durable: true, StateDir: stateDir}, 100)

	// Client round trips against a plain service on loopback.
	plain, err := startGridStack(false, "probe-plain")
	if err != nil {
		pr.fail("%v", err)
		return
	}
	defer plain.close()
	pr.out["middleware.client_rtt_us"] = perIter(1500, func(int) {
		if _, _, _, err := plain.client.Stat(); err != nil {
			pr.fail("%v", err)
		}
	}) / 1e3
	const pairs = 1500
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pr.out["middleware.client_pair_us_ops1"] = perIter(pairs, func(int) {
		id, err := plain.client.Submit("job-0badcafe", 1, time.Hour)
		if err == nil {
			err = plain.client.Cancel(id)
		}
		if err != nil {
			pr.fail("%v", err)
		}
	}) / 1e3
	runtime.ReadMemStats(&ms1)
	pr.out["middleware.client_allocs_ops1"] = float64(ms1.Mallocs-ms0.Mallocs) / (pairs * probeRounds)

	// A short closed loop of r-way requests through the secured stack:
	// the reference for the spans grid_gram_r4 measures in place.
	sec, err := startGridStack(true, "probe-sec")
	if err != nil {
		pr.fail("%v", err)
		return
	}
	defer sec.close()
	pr.out["middleware.new_service_ms"] = float64(sec.newService) / 1e6
	reqs := genGridRequests(pr.p.seed, 300)
	tr := newTracer()
	rr := closedLoop(len(reqs), gridCallers, 3, tr, func(_, i int, tr *tracer) bool {
		return doGridRequest(sec.client, &reqs[i], tr, i)
	})
	if rr.failed > 0 {
		pr.fail("%d of %d reference grid requests failed", rr.failed, rr.attempted)
	}
	pr.out["middleware.submit_batch_ms"] = median(tr.durationsMS("middleware.SubmitBatch"))
	pr.out["middleware.cancel_batch_ms"] = median(tr.durationsMS("middleware.CancelBatch"))
	pr.out["middleware.transactions_per_op"] = float64(sec.svc.Transactions()) / float64(len(reqs))
}

// directPairs preloads a daemon to depth and times n submit+delete-head
// pairs through the direct API, returning nanoseconds per pair.
func (pr *prober) directPairs(cfg pbsd.Config, depth, n int) (nsPerPair float64, srv *pbsd.Server) {
	cfg.Nodes = gridNodes
	srv, err := pbsd.New(cfg)
	if err != nil {
		pr.fail("%v", err)
		return 0, nil
	}
	for i := 0; i < depth; i++ {
		if _, err := srv.Submit("preload", 1, time.Hour); err != nil {
			pr.fail("%v", err)
		}
	}
	ns := perIter(n, func(int) {
		_, err := srv.Submit("job-0badcafe", 1, time.Hour)
		if err == nil {
			_, err = srv.DeleteHead()
		}
		if err != nil {
			pr.fail("%v", err)
		}
	})
	return ns, srv
}

func (pr *prober) pbsd() {
	// Direct calls at depth, no journal.
	const n = 20000
	plainNS, srv := pr.directPairs(pbsd.Config{}, tcpDepth, n)
	if srv == nil {
		return
	}
	defer srv.Close()
	c0, s0 := srv.Counters()
	pr.out["pbsd.submit_ns"] = perIter(n, func(int) {
		if _, err := srv.Submit("job-0badcafe", 1, time.Hour); err != nil {
			pr.fail("%v", err)
		}
	})
	pr.out["pbsd.delete_head_ns"] = perIter(n, func(int) {
		if _, err := srv.DeleteHead(); err != nil {
			pr.fail("%v", err)
		}
	})
	c1, s1 := srv.Counters()
	pr.out["pbsd.cycles_per_op"] = float64(c1-c0) / (n * probeRounds)
	pr.out["pbsd.scanned_per_op"] = float64(s1-s0) / (n * probeRounds)
	var sink int
	pr.out["pbsd.stat_ns"] = perIter(200000, func(int) {
		q, _, _ := srv.Stat()
		sink += q
	})
	if sink != 200000*probeRounds*tcpDepth {
		pr.fail("direct daemon left depth %d", sink/(200000*probeRounds))
	}

	// Figure 5's bend: the paper-faithful full-scan cycle at depth 5000.
	fullNS, full := pr.directPairs(pbsd.Config{FullScanCycle: true}, 5000, 100)
	if full != nil {
		full.Close()
	}
	pr.out["pbsd.fullscan_us_per_pair_d5000"] = fullNS / 1e3

	ln, err := pbsd.Serve(srv, "127.0.0.1:0")
	if err != nil {
		pr.fail("%v", err)
		return
	}
	defer ln.Close()
	cl, err := pbsd.Dial(ln.Addr())
	if err != nil {
		pr.fail("%v", err)
		return
	}
	defer cl.Close()
	pr.out["pbsd.tcp_rtt_us"] = perIter(5000, func(int) {
		if err := cl.Ping(); err != nil {
			pr.fail("%v", err)
		}
	}) / 1e3

	// Journal disciplines: the same direct pairs with a journal, minus
	// without. These fsync on whatever holds the checkout.
	legacyDir := filepath.Join(pr.p.dir, "probe-journal-legacy")
	groupDir := filepath.Join(pr.p.dir, "probe-journal-group")
	defer os.RemoveAll(legacyDir)
	defer os.RemoveAll(groupDir)
	legacyNS, legacy := pr.directPairs(pbsd.Config{JournalDir: legacyDir}, tcpDepth, n)
	if legacy == nil {
		return
	}
	stopped := pendingIDs(legacy)
	legacy.Close()
	pr.out["pbsd.journal_legacy_us"] = (legacyNS - plainNS) / 1e3
	groupNS, group := pr.directPairs(pbsd.Config{JournalDir: groupDir, GroupCommit: true}, tcpDepth, 60)
	if group != nil {
		group.Close()
	}
	pr.out["pbsd.journal_group_us"] = (groupNS - plainNS) / 1e3

	re, linesPerS, err := reopenJournal(legacyDir)
	if err != nil {
		pr.fail("%v", err)
		return
	}
	defer re.Close()
	pr.out["pbsd.journal_replay_lines_per_s"] = linesPerS
	// A daemon reopened on the journal must recover exactly the queue
	// the stopped one held, in order.
	if re.Recovered() != tcpDepth || !slices.Equal(stopped, pendingIDs(re)) {
		pr.fail("replay recovered %d jobs (want %d), or not the stopped daemon's queue in its order", re.Recovered(), tcpDepth)
	}
}

// reopenJournal starts a daemon on an existing journal directory and
// returns it with the rate at which it replayed the log's lines.
func reopenJournal(dir string) (*pbsd.Server, float64, error) {
	log, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	t0 := time.Now()
	re, err := pbsd.New(pbsd.Config{Nodes: gridNodes, JournalDir: dir})
	if err != nil {
		return nil, 0, fmt.Errorf("reopen on the journal: %w", err)
	}
	return re, float64(bytes.Count(log, []byte{'\n'})) / time.Since(t0).Seconds(), nil
}

func pendingIDs(s *pbsd.Server) []int64 {
	pending := s.Pending()
	ids := make([]int64, len(pending))
	for i, j := range pending {
		ids[i] = j.ID
	}
	return ids
}
