// Command bench is the repository's benchmark: five workloads over the
// simulator (workload → des → sched → core → metrics/invariant →
// experiment → report) and the served stack (caller → middleware →
// pbsd), six end-to-end metrics per workload, and a separate traced run
// that gives per-layer numbers. BENCHMARK.json at the repository root
// declares the workloads, metrics and regression bounds; README.md in
// this directory explains them.
//
// The work of a run is a pinned count (replications, passes, requests,
// pairs), not a time limit: -seconds scales the count linearly from the
// amount sized for BENCHMARK.json's run_seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"redreq/internal/middleware"
	"redreq/internal/workload"
)

// defaultSeed is the experiment registry's base seed.
const defaultSeed = 20060619

const (
	specPath   = "BENCHMARK.json"
	goldenPath = "bench/golden.json"
	outDir     = "bench/out"
)

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	selfcheck bool
	sets      int
	update    bool
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: each workload in a child process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 0, "length the pinned work is scaled to (default: BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes "+outDir+"/trace-<workload>.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two alternating sets of full invocations and compare their medians with the bounds")
	flag.IntVar(&o.sets, "sets", 5, "invocations per set for -selfcheck (10 reproduces the acceptance procedure)")
	flag.BoolVar(&o.update, "update", false, "regenerate "+goldenPath+" from the default seed")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.sets < 2 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o, start))
}

// run is main without os.Exit, so deferred cleanup happens.
func run(o options, start time.Time) int {
	if err := enterRoot(); err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fatal(err)
	}
	gold, err := loadGolden(goldenPath)
	if err != nil && !o.update {
		return fatal(err)
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.seconds < 0 {
		return fatal(fmt.Errorf("-seconds %v is negative", o.seconds))
	}
	release, err := acquireLock()
	if err != nil {
		return fatal(err)
	}
	defer release()
	switch {
	case o.update:
		err = updateGolden(spec)
	case o.selfcheck:
		return selfcheck(spec, o)
	case o.workload == "":
		err = runEach(spec, o)
	default:
		if !spec.hasWorkload(o.workload) {
			return fatal(fmt.Errorf("%s declares no workload %q", specPath, o.workload))
		}
		err = runWorkload(spec, gold, o, start)
	}
	if err != nil {
		return fatal(err)
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// enterRoot changes to the directory that holds BENCHMARK.json: the
// working directory when started from the repository root, its parent
// when started inside bench/.
func enterRoot() error {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, specPath)); err == nil {
			return os.Chdir(dir)
		}
	}
	return fmt.Errorf("%s not found: run from the repository root", specPath)
}

// childArgs is the command line of one single-workload child.
func childArgs(o options, workload string, seed uint64, trace int) []string {
	return []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
	}
}

// runEach runs every workload in a fresh process of its own, so each
// starts with a clean heap, a clean resident-set high-water mark and no
// cache another workload filled.
func runEach(spec *benchSpec, o options) error {
	for _, w := range spec.Workloads {
		cmd := exec.Command(os.Args[0], childArgs(o, w.Name, o.seed, o.trace)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := runChild(cmd); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload in this process and prints its metrics,
// ending with the one-line JSON result.
func runWorkload(spec *benchSpec, gold *goldenFile, o options, start time.Time) error {
	dir, err := scratchDir(o.workload)
	if err != nil {
		return err
	}
	p := params{seed: o.seed, scale: o.seconds / float64(spec.RunSeconds), dir: dir, pins: gold.Layers}
	traced := o.trace == 1
	if traced {
		// The traced run splits the work over tracedSections sections.
		p.scale /= tracedSections
	} else if o.seed == gold.Seed && o.seconds == float64(gold.Seconds) {
		p.golden = gold.Workloads[o.workload]
	}
	w, err := newWorkload(o.workload, p)
	if err != nil {
		return err
	}
	defer w.teardown()
	// GOMAXPROCS is pinned before anything is timed; nproc is printed.
	runtime.GOMAXPROCS(gomaxprocs(o.workload))

	fs := "disk"
	if onTmpfs(dir) {
		fs = "tmpfs"
	}
	fmt.Printf("bench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s state=%s fs=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), dir, fs)

	// Set-up: the first one is timed from process start.
	runs := setupRuns
	if traced {
		runs = 1
	}
	setups := make([]float64, runs)
	for i := range setups {
		if i > 0 {
			w.teardown()
			start = time.Now()
		}
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	var untraced, sec runResult
	var tr *tracer
	if traced {
		tr = newTracer()
		untraced, sec, err = measureTraced(w, tr)
	} else {
		sec, err = measure(w, nil)
	}
	if err != nil {
		return err
	}
	bad := w.verify()

	var declared []metricSpec
	var readings map[string]float64
	if traced {
		declared = spec.PerLayer
		// The probes read the same on every workload only if they run
		// under the same GOMAXPROCS on every workload.
		runtime.GOMAXPROCS(workers)
		var probeBad []string
		readings, probeBad = runProbes(p)
		bad = append(bad, probeBad...)
		for k, v := range w.layers(tr) {
			readings[k] = v
		}
		for k, v := range callerLayers(untraced, sec, tr, gomaxprocs(o.workload)) {
			readings[k] = v
		}
		path := filepath.Join(outDir, "trace-"+o.workload+".json")
		if err := tr.write(path, o.workload, o.seed); err != nil {
			return err
		}
		printSpans(tr, path)
		printEstimate(o.workload, readings)
	} else {
		declared = spec.EndToEnd
		readings = endToEnd(sec, median(setups))
	}
	metrics, err := pairMetrics(declared, readings)
	if err != nil {
		return err
	}

	res := result{Correct: len(bad) == 0, Attempted: sec.attempted, Failed: sec.failed, Metrics: metrics}
	if !res.Correct {
		// A failed correctness check fails every op of the workload.
		res.Failed = res.Attempted
	}
	printMetrics(declared, metrics, sec, setups)
	for _, b := range bad {
		fmt.Println("  FAILED CHECK:", b)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// callerLayers are the per-layer metrics every workload's own loop
// gives: latency tails, idle share, and what tracing cost.
func callerLayers(untraced, traced runResult, tr *tracer, procs int) map[string]float64 {
	return map[string]float64{
		"caller.op_p95_ms":    percentile(traced.latMS, 95),
		"caller.op_p99_ms":    percentile(traced.latMS, 99),
		"caller.idle_frac":    1 - traced.busyFrac(procs),
		"trace.overhead_frac": 1 - traced.opsPerS()/untraced.opsPerS(),
		"trace.spans":         float64(len(tr.spans)),
	}
}

func printMetrics(declared []metricSpec, metrics map[string]metricValue, sec runResult, setups []float64) {
	// The tail is reported at the highest percentile that still has at
	// least ten samples beyond it.
	tailP, tailV := tail(sec.latMS)
	tailNote := fmt.Sprintf("p%g=%.4g ms", tailP, tailV)
	if tailP == 0 {
		tailNote = fmt.Sprintf("too few for a tail percentile, max=%.4g ms", tailV)
	}
	if len(sec.latMS) <= 8 {
		tailNote += fmt.Sprintf(", all %.0f", sec.latMS)
	}
	notes := map[string]string{
		"setup_s":   fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups),
		"ops_per_s": fmt.Sprintf("%d ops in %.3f s", sec.ok(), sec.wall().Seconds()),
		"op_p50_ms": fmt.Sprintf("n=%d latency units; %s", len(sec.latMS), tailNote),
	}
	for _, m := range declared {
		fmt.Printf("  %-36s %16.6g %-7s %s\n", m.Name, metrics[m.Name].Value, m.Unit, notes[m.Name])
	}
}

func printSpans(tr *tracer, path string) {
	fmt.Printf("  spans: %d recorded, written to %s\n", len(tr.spans), path)
	for _, s := range tr.summarize() {
		fmt.Printf("    %-32s n=%-7d p50=%.4g ms  self p50=%.4g ms\n", s.name, s.n, s.p50MS, s.selfP50)
	}
}

// printEstimate sets the probes' unit costs times the exact counts
// beside the measured core.Run time on the simulator workloads. What
// core.Run spends in des, sched and core cannot be observed from outside
// it, so this is an estimate and the remainder is the part no probe
// explains (core's fan-out and bookkeeping, cache misses the tight probe
// loops do not have).
func printEstimate(name string, r map[string]float64) {
	pass := map[string]string{"sim_easy_all": "sched.easy_pass_us_d100", "sim_cbf_phi": "sched.cbf_pass_us_d100"}[name]
	if pass == "" {
		return
	}
	// Mean jobs per replication at the model's arrival rate.
	jobs := simClusters * simHorizon / workload.NewModel(simNodes).MeanInterarrival()
	desMS := jobs * r["des.events_per_job"] / r["des.events_per_s"] * 1e3
	schedMS := jobs * r["sched.passes_per_job"] * r[pass] / 1e3
	fmt.Printf("  ESTIMATE core.run_ms: measured %.4g ms; des %.4g ms (events_per_job / des.events_per_s) + sched %.4g ms (passes_per_job x %s) = %.4g ms; unexplained remainder %.4g ms\n",
		r["core.run_ms"], desMS, schedMS, pass, desMS+schedMS, r["core.run_ms"]-desMS-schedMS)
}

// updateGolden regenerates golden.json from one untraced pass over every
// workload at the default seed and the pinned amount of work.
func updateGolden(spec *benchSpec) error {
	g := &goldenFile{
		Seed: defaultSeed, Seconds: spec.RunSeconds,
		Workloads: make(map[string]map[string]int64),
		Layers:    make(map[string]int64),
	}
	raw, err := middleware.Marshal(batchEnvelope(0))
	if err != nil {
		return err
	}
	measured := map[string]float64{"middleware.envelope_bytes": float64(len(raw))}
	for _, wl := range spec.Workloads {
		fmt.Println("update:", wl.Name)
		dir, err := scratchDir(wl.Name)
		if err != nil {
			return err
		}
		w, err := newWorkload(wl.Name, params{seed: defaultSeed, scale: 1, dir: dir})
		if err != nil {
			return err
		}
		runtime.GOMAXPROCS(gomaxprocs(wl.Name))
		err = w.setup()
		if err == nil {
			_, err = w.run(nil)
		}
		if err == nil {
			if c := w.counts(); c != nil {
				g.Workloads[wl.Name] = c
			}
			for name, v := range w.layers(newTracer()) {
				measured[name] = v
			}
		}
		w.teardown()
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
	}
	for _, name := range pinnedLayers {
		g.Layers[name] = int64(math.Round(measured[name]))
	}
	return g.write(goldenPath)
}
