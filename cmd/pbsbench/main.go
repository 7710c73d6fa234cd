// Command pbsbench reproduces Figure 5 and probes the daemon's
// overload regime. It first saturates the pbsd batch scheduler daemon
// closed-loop with job submissions and head-of-queue deletions at
// increasing queue sizes (sustained capacity, the Figure 5 shape) and
// derives the Section 4.1 redundancy bound r < iat * throughput. It
// then drives the daemon open-loop over its TCP protocol at a swept
// request rate × redundancy factor r against a preloaded queue, where a
// closed loop would politely slow down instead of exposing the overload
// response (see internal/loadgen for both schedules). SIGINT drains
// in-flight requests and flushes partial results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"redreq/internal/loadgen"
	"redreq/internal/pbsd"
	"redreq/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, runs the saturation
// sweep and the open-loop overload sweep, and returns the process exit
// code. Canceling ctx (SIGINT in main) stops gracefully and flushes
// partial results.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sizes    = fs.String("sizes", "", "comma-separated queue sizes (default 0,1000,2500,5000,10000,15000,20000)")
		clients  = fs.Int("clients", 4, "concurrent saturating clients (closed-loop sweep)")
		dur      = fs.Duration("dur", 2*time.Second, "measurement window per point")
		tcp      = fs.Bool("tcp", true, "measure through the TCP protocol (false = direct API)")
		fast     = fs.Bool("fast", false, "saturation sweep: measure the incremental scheduling mode instead of the paper-faithful full scan (Figure 5 needs the default)")
		iat      = fs.Float64("iat", 5.01, "mean job interarrival time in seconds for the bound")
		boundQ   = fs.Int("bound", 10000, "queue size at which to evaluate the redundancy bound")
		rates    = fs.String("rates", "10,40", "comma-separated offered rates (pairs/s) for the open-loop sweep; empty skips it")
		redund   = fs.String("r", "1,4", "comma-separated redundancy factors for the open-loop sweep")
		arrivals = fs.String("arrivals", "poisson", "arrival law for the open-loop sweep: poisson|uniform")
		inflight = fs.Int("inflight", 64, "open-loop: max in-flight logical requests")
		deadline = fs.Duration("deadline", time.Second, "open-loop: per-request deadline")
		qsize    = fs.Int("qsize", 1000, "open-loop: preloaded queue depth")
	)
	if err := fs.Parse(argv); err != nil {
		return 2 // the flag set already printed the error and usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pbsbench: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	var qs []int
	if *sizes != "" {
		for _, f := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(stderr, "pbsbench: bad size %q\n", f)
				return 2
			}
			qs = append(qs, v)
		}
	}
	var sweepRates []float64
	var rs []int
	law := loadgen.Poisson
	if *rates != "" {
		var err error
		if sweepRates, err = loadgen.ParseRates(*rates); err != nil {
			fmt.Fprintf(stderr, "pbsbench: %v\n", err)
			return 2
		}
		if rs, err = loadgen.ParseRedundancies(*redund); err != nil {
			fmt.Fprintf(stderr, "pbsbench: %v\n", err)
			return 2
		}
		if law, err = loadgen.ParseArrival(*arrivals); err != nil {
			fmt.Fprintf(stderr, "pbsbench: %v\n", err)
			return 2
		}
	}

	// The closed-loop capacity sweep: a fresh daemon per queue size,
	// -clients callers each on its own protocol connection (or on the
	// direct API). An interrupt drains the point in flight, keeps its
	// partial reading and skips the rest.
	if len(qs) == 0 {
		qs = pbsd.DefaultQueueSizes
	}
	conns := 0
	if *tcp {
		conns = *clients
	}
	var results []capacityPoint
	for _, q := range qs {
		if ctx.Err() != nil {
			break
		}
		p, err := measureCapacity(ctx, pbsd.Config{Nodes: 16, FullScanCycle: !*fast}, q, conns, *clients, *dur)
		if err != nil {
			fmt.Fprintf(stderr, "pbsbench: %v\n", err)
			return 1
		}
		results = append(results, p)
	}
	title := "Figure 5: daemon throughput vs queue size (maximum-churn submit + delete-head)"
	if *fast {
		title = "daemon throughput vs queue size, incremental scheduling mode (NOT the Figure 5 configuration)"
	}
	t := report.NewTable(title,
		"queue size", "pairs/s", "ops/s", "avg jobs scanned/cycle")
	for _, r := range results {
		// A pair is two operations: one submit, one delete.
		t.AddRow(fmt.Sprintf("%d", r.queueSize),
			report.Cell(r.pairRate, 1), report.Cell(2*r.pairRate, 1), report.Cell(r.avgScan, 0))
	}
	if err := t.Render(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Section 4.1 bound at the requested queue size (paper: 6
	// pairs/s at 10,000 pending -> r < 30 at iat = 5 s).
	if len(results) > 0 {
		at := results[len(results)-1]
		for _, r := range results {
			if r.queueSize == *boundQ {
				at = r
			}
		}
		bound := pbsd.LoadBound(at.pairRate, *iat)
		fmt.Fprintf(stdout, "\nSection 4.1 bound: at a %d-deep queue the daemon sustains %.1f submit+cancel pairs/s;\n",
			at.queueSize, at.pairRate)
		fmt.Fprintf(stdout, "with iat = %.2f s the scheduler tolerates r < %d redundant requests per job.\n", *iat, bound)
	}
	if loadgen.Interrupted(ctx, stdout) {
		return 0
	}
	if len(sweepRates) == 0 {
		return 0
	}

	// Open-loop overload sweep: one daemon preloaded to -qsize, hit
	// over TCP at rate × r. Each copy is a full submit + delete-head
	// pair, so r multiplies the protocol work per logical request.
	err := openLoopSweep(ctx, stdout, sweepConfig{
		qsize: *qsize, rates: sweepRates, rs: rs, law: law,
		dur: *dur, inflight: *inflight, deadline: *deadline,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pbsbench: %v\n", err)
		return 1
	}
	return 0
}

// capacityPoint is one row of the Figure 5 table.
type capacityPoint struct {
	queueSize         int
	pairRate, avgScan float64
}

// measureCapacity reads one daemon's closed-loop ceiling at one queue
// depth.
func measureCapacity(ctx context.Context, cfg pbsd.Config, queueSize, conns, clients int, dur time.Duration) (capacityPoint, error) {
	ch, err := pbsd.NewChurn(cfg, queueSize, conns)
	if err != nil {
		return capacityPoint{}, err
	}
	defer ch.Close()
	res, err := loadgen.Ceiling(ctx, clients, dur, ch.Pair)
	return capacityPoint{queueSize, res.Goodput, ch.AvgScan()}, err
}

type sweepConfig struct {
	qsize    int
	rates    []float64
	rs       []int
	law      loadgen.Arrival
	dur      time.Duration
	inflight int
	deadline time.Duration
}

func openLoopSweep(ctx context.Context, stdout io.Writer, cfg sweepConfig) error {
	// One incremental-mode daemon preloaded to -qsize, with a pool of
	// protocol connections sized for the worst-case copy concurrency.
	poolSize := min(cfg.inflight*slices.Max(cfg.rs), 256)
	ch, err := pbsd.NewChurn(pbsd.Config{Nodes: 16}, cfg.qsize, poolSize)
	if err != nil {
		return err
	}
	defer ch.Close()

	t := report.NewTable(fmt.Sprintf("overload response (open-loop rate × redundancy, queue preloaded to %d)", cfg.qsize),
		"rate", "r", "offered/s", "goodput/s", "p50 s", "p95 s", "p99 s", "loss %", "errors")
sweep:
	for _, rate := range cfg.rates {
		for _, r := range cfg.rs {
			res, err := loadgen.Run(ctx, loadgen.Config{
				Rate:        rate,
				Arrivals:    cfg.law,
				Duration:    cfg.dur,
				Redundancy:  r,
				MaxInFlight: cfg.inflight,
				Deadline:    cfg.deadline,
				Do:          func(ctx context.Context, _ loadgen.Request) error { return ch.Pair(ctx) },
				Classify:    classifyDaemonErr,
			})
			if err != nil {
				return err
			}
			t.AddRow(report.Cell(rate, 0), fmt.Sprintf("%d", r),
				report.Cell(res.OfferedRate, 1), report.Cell(res.Goodput, 1),
				report.Cell(res.P50, 3), report.Cell(res.P95, 3), report.Cell(res.P99, 3),
				report.Cell(100*res.ErrorRate(), 1), res.ErrorSummary())
			if res.Interrupted {
				break sweep
			}
		}
	}
	if err := t.Render(stdout); err != nil {
		return err
	}
	loadgen.Interrupted(ctx, stdout)
	return nil
}

// classifyDaemonErr buckets protocol-level failures for the report.
func classifyDaemonErr(err error) string {
	switch {
	case errors.Is(err, pbsd.ErrBusy):
		return "busy"
	case errors.Is(err, pbsd.ErrLate):
		return "late"
	}
	return ""
}
