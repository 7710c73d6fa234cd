// Command redsim runs the paper's experiments through the registry in
// internal/experiment and renders the results.
//
// Usage:
//
//	redsim -run table1            # one experiment, aligned tables
//	redsim -run fig4,table4       # several, in registry order as given
//	redsim -run all               # everything
//	redsim -list                  # enumerate the registry
//	redsim -run table1 -format json
//	redsim -run all -format csv -out results/
//
// Output goes to stdout in the chosen -format (aligned tables, CSV
// sections, or a JSON array of report objects); with -out DIR each
// experiment instead writes DIR/<name>.<txt|csv|json>. Progress and
// timing go to stderr. Exit status: 0 on success, 1 on runtime
// failure, 2 on usage errors.
//
// Experiments run in turn, each on a bounded worker pool, and share a
// memoization layer (identical simulation configs run once per process,
// paired-seed job streams are generated once and shared); output is
// byte-identical either way, and -cache=off disables the memo for A/B
// checks.
//
// Observability: -trace FILE aggregates run internals (DES event
// counters, per-cluster queue-depth series, redundant submit/cancel
// lifecycle, daemon/middleware latency histograms) across every
// simulation and writes a trace report — JSON when FILE ends in
// .json, CSV sections when it ends in .csv, aligned tables otherwise
// ("-" writes tables to stdout). -cpuprofile/-memprofile write pprof
// profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"redreq/internal/core"
	"redreq/internal/experiment"
	"redreq/internal/obs"
	"redreq/internal/report"
	"redreq/internal/sched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, dispatches over the
// experiment registry, and returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runNames = fs.String("run", "all", "comma-separated experiment names (see -list), or \"all\"")
		list     = fs.Bool("list", false, "list the registered experiments and exit")
		format   = fs.String("format", "table", "output format: table|csv|json")
		outDir   = fs.String("out", "", "write one file per experiment into this directory instead of stdout")
		reps     = fs.Int("reps", 10, "replications per data point (the paper uses 50)")
		workers  = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		horizon  = fs.Float64("horizon", 6*3600, "submission window in seconds")
		nodes    = fs.Int("nodes", 128, "homogeneous cluster size")
		load     = fs.Float64("load", 0.45, "calibrated offered load on the reference cluster")
		minRt    = fs.Float64("minrt", 30, "runtime floor in seconds")
		maxRt    = fs.Float64("maxrt", 36*3600, "runtime cap in seconds")
		routing  = fs.String("routing", "uniform", "remote-copy routing policy: uniform|biased|queuelen|leastwork|po2 (informed policies read the grid information service)")
		ordering = fs.String("ordering", "fcfs", "local queue ordering: fcfs|sjf|aged (FCFS is the paper's setup; CBF supports only fcfs)")
		stale    = fs.Float64("staleness", 0, "grid information service publish interval in seconds for informed routing (0 = control latency, negative = live reads)")
		sweep    = fs.String("sweep", "", "comma-separated sweep positions overriding an experiment's default axis (e.g. queue depths for -run sec4, offered rates for -run overload)")
		stackSel = fs.String("stack", "", "real-stack variant for -run overload: legacy|fast (empty = both); other experiments ignore it")
		seed     = fs.Uint64("seed", 20060619, "base seed")
		cache    = fs.String("cache", "on", "memoize identical simulation runs and job streams across experiments: on|off")
		quiet    = fs.Bool("q", false, "suppress progress and timing output")
		traceTo  = fs.String("trace", "", "write an aggregate trace report to this file (.json/.csv by extension, tables otherwise; \"-\" for stdout)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2 // the flag set already printed the error and usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "redsim: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *list {
		t := report.NewTable("", "name", "aliases", "description", "parameters")
		for _, s := range experiment.All() {
			t.AddRow(s.Name, strings.Join(s.Aliases, ","), s.Desc, s.Params)
		}
		if err := t.Render(stdout); err != nil {
			fmt.Fprintf(stderr, "redsim: %v\n", err)
			return 1
		}
		return 0
	}

	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(stderr, "redsim: unknown format %q (want table, csv, or json)\n", *format)
		return 2
	}
	switch *cache {
	case "on", "off":
	default:
		fmt.Fprintf(stderr, "redsim: unknown cache mode %q (want on or off)\n", *cache)
		return 2
	}

	for _, f := range []struct {
		name string
		v    float64
	}{{"horizon", *horizon}, {"load", *load}, {"minrt", *minRt}, {"maxrt", *maxRt}, {"staleness", *stale}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			fmt.Fprintf(stderr, "redsim: -%s %v: want a finite number\n", f.name, f.v)
			return 2
		}
	}

	specs, err := resolve(*runNames)
	if err != nil {
		fmt.Fprintf(stderr, "redsim: %v\n", err)
		fs.Usage()
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "redsim: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "redsim: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	opts := experiment.Defaults()
	opts.Reps = *reps
	opts.Workers = *workers
	opts.Horizon = *horizon
	opts.Nodes = *nodes
	opts.TargetLoad = *load
	opts.MinRuntime = *minRt
	opts.MaxRuntime = *maxRt
	pol, err := core.ParseRouting(*routing)
	if err != nil {
		fmt.Fprintf(stderr, "redsim: %v\n", err)
		return 2
	}
	opts.Routing = pol
	ord, err := sched.ParseOrdering(*ordering)
	if err != nil {
		fmt.Fprintf(stderr, "redsim: %v\n", err)
		return 2
	}
	opts.Ordering = ord
	opts.Staleness = *stale
	if *sweep != "" {
		if opts.Sweep, err = parseSweep(*sweep); err != nil {
			fmt.Fprintf(stderr, "redsim: %v\n", err)
			return 2
		}
	}
	switch *stackSel {
	case "", "legacy", "fast":
		opts.Stack = *stackSel
	default:
		fmt.Fprintf(stderr, "redsim: unknown stack %q (want legacy or fast)\n", *stackSel)
		return 2
	}
	opts.BaseSeed = *seed
	if *cache == "on" {
		opts.Cache = core.NewMemo()
	}
	if *traceTo != "" {
		opts.Trace = obs.New()
	}
	if !*quiet {
		// Workers report concurrently and may arrive out of order: the
		// line only moves forward, so it ends at total/total.
		var mu sync.Mutex
		shown := 0
		opts.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done <= shown {
				return
			}
			shown = done
			fmt.Fprintf(stderr, "\r%d/%d simulations", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "redsim: %v\n", err)
			return 1
		}
	}

	// Experiments run one after another over one shared memo, each
	// report emitted as soon as its experiment finishes; every
	// simulation is reduced to a small summary by the worker that ran
	// it, so no experiment's job records are held in memory.
	var jsonReports []*report.Report
	err = experiment.Reports(specs, opts, func(i int, rep *report.Report, elapsed time.Duration) error {
		if !*quiet {
			fmt.Fprintf(stderr, "(%s: %s, %d reps)\n", specs[i].Name, elapsed.Round(time.Second), opts.Reps)
		}
		// The experiment's memory is garbage now: collect it and hand
		// it back to the OS, so that the process peaks at its largest
		// experiment rather than at what the heap keeps mapped across
		// all of them.
		debug.FreeOSMemory()
		switch {
		case *outDir != "":
			return writeReportFile(*outDir, *format, rep)
		case *format == "table":
			return rep.Render(stdout)
		case *format == "csv":
			return rep.WriteCSV(stdout)
		default: // json: a single array once every experiment has run
			jsonReports = append(jsonReports, rep)
			return nil
		}
	})
	if err != nil {
		fmt.Fprintf(stderr, "redsim: %v\n", err)
		return 1
	}
	if *outDir == "" && *format == "json" {
		if err := report.WriteJSON(stdout, jsonReports...); err != nil {
			fmt.Fprintf(stderr, "redsim: %v\n", err)
			return 1
		}
	}
	if !*quiet && opts.Cache != nil {
		st := opts.Cache.Stats()
		fmt.Fprintf(stderr, "cache: results %d hit / %d miss / %d inflight, streams %d hit / %d miss\n",
			st.Hit, st.Miss, st.Inflight, st.StreamHit, st.StreamMiss)
	}
	opts.Cache.Publish(opts.Trace)

	if *traceTo != "" {
		if err := writeTrace(*traceTo, opts.Trace, stdout); err != nil {
			fmt.Fprintf(stderr, "redsim: trace: %v\n", err)
			return 1
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "redsim: memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "redsim: memprofile: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}
	return 0
}

// parseSweep parses the -sweep override into sweep positions.
func parseSweep(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("bad sweep position %q (want non-negative numbers)", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// resolve maps the -run value to registry specs, preserving order and
// dropping duplicates; "all" anywhere selects the full registry.
func resolve(names string) ([]*experiment.Spec, error) {
	var out []*experiment.Spec
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if strings.EqualFold(name, "all") {
			return experiment.All(), nil
		}
		s, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return out, nil
}

// writeReportFile writes one experiment's report into dir as
// <name>.<txt|csv|json>.
func writeReportFile(dir, format string, rep *report.Report) error {
	ext := map[string]string{"table": "txt", "csv": "csv", "json": "json"}[format]
	f, err := os.Create(filepath.Join(dir, rep.Name+"."+ext))
	if err != nil {
		return err
	}
	var werr error
	switch format {
	case "table":
		werr = rep.Render(f)
	case "csv":
		werr = rep.WriteCSV(f)
	default:
		werr = rep.WriteJSON(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeTrace emits the aggregate trace report; the format follows the
// destination's extension (JSON for .json, CSV sections for .csv,
// aligned tables otherwise), with "-" meaning stdout.
func writeTrace(dest string, tr *obs.Trace, stdout io.Writer) error {
	snap := tr.Snapshot()
	w := stdout
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch {
	case strings.HasSuffix(dest, ".json"):
		return report.WriteTraceJSON(w, snap)
	case strings.HasSuffix(dest, ".csv"):
		return report.WriteTraceCSV(w, snap)
	default:
		return report.RenderTrace(w, snap)
	}
}
