// Command grambench reproduces the Section 4.2 middleware analysis:
// it measures (a) raw SOAP-style marshalling throughput of the [20]
// benchmark payload (30,000 {int,int,double} records, >450 KB),
// (b) the sustained capacity of the middleware stack in each service
// mode via open-loop saturation, and (c) the stack's overload response
// across a swept request rate × redundancy factor r — the regime where
// the paper's r < iat * rate bound binds.
//
// All measurements are open-loop (see internal/loadgen): arrivals fire
// on a target-rate schedule regardless of how the stack is coping, so
// offered load keeps climbing past the knee instead of a closed loop
// politely slowing down with the server. SIGINT drains in-flight
// requests and flushes whatever partial results exist.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"redreq/internal/loadgen"
	"redreq/internal/middleware"
	"redreq/internal/pbsd"
	"redreq/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses argv, runs the
// measurements, and returns the process exit code. Canceling ctx
// (SIGINT in main) stops the current measurement gracefully and
// flushes partial results.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("grambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dur       = fs.Duration("dur", 2*time.Second, "measurement window per point")
		iat       = fs.Float64("iat", 5.01, "mean job interarrival time in seconds for the bound")
		items     = fs.Int("items", 30000, "records in the marshalling payload")
		probeRate = fs.Float64("proberate", 2000, "offered rate for the capacity probes (must exceed capacity)")
		rates     = fs.String("rates", "5,20,80", "comma-separated offered rates (pairs/s) for the overload sweep")
		redund    = fs.String("r", "1,2,4", "comma-separated redundancy factors for the overload sweep")
		arrivals  = fs.String("arrivals", "poisson", "arrival law: poisson|uniform")
		inflight  = fs.Int("inflight", 256, "max in-flight logical requests (arrivals past it are dropped)")
		deadline  = fs.Duration("deadline", 2*time.Second, "per-request deadline")
		durable   = fs.Bool("durable", false, "overload sweep: durable per-transaction state")
		security  = fs.Bool("security", false, "overload sweep: message-level security")
		batch     = fs.Bool("batch", false, "overload sweep: batch each logical request's r copies into single SubmitBatch/CancelBatch envelopes over a pooled pre-warmed client")
	)
	if err := fs.Parse(argv); err != nil {
		return 2 // the flag set already printed the error and usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "grambench: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	law, err := loadgen.ParseArrival(*arrivals)
	if err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 2
	}
	sweepRates, err := loadgen.ParseRates(*rates)
	if err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 2
	}
	rs, err := loadgen.ParseRedundancies(*redund)
	if err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 2
	}

	// (a) Raw marshalling, the gSOAP-style measurement of [20].
	payload := middleware.NewTripleArray(*items)
	size := 0
	marshal, err := loadgen.Ceiling(ctx, 1, *dur, func(context.Context) (err error) {
		size, err = middleware.RoundTripTriples(payload)
		return err
	})
	if err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "raw marshal+unmarshal of %d-record payload (%d KB): %.1f round-trips/s\n",
		*items, size/1024, marshal.Goodput)
	if loadgen.Interrupted(ctx, stdout) {
		return 0
	}

	gen := genConfig{law: law, dur: *dur, inflight: *inflight, deadline: *deadline}

	// (b) Capacity per service mode: offer far more than the stack can
	// take and read its capacity off the goodput — the open-loop
	// equivalent of the old closed-loop saturation.
	t := report.NewTable("middleware capacity (open-loop saturation, submit+cancel pairs)",
		"mode", "pairs/s", "p95 s", "loss %", "bound r (iat)")
	modes := []struct {
		name              string
		durable, security bool
	}{
		{"in-memory", false, false},
		{"durable (state file + fsync per tx)", true, false},
		{"full GRAM-like (durable + message security)", true, true},
	}
	for _, m := range modes {
		res, err := measure(ctx, m.durable, m.security, *probeRate, 1, gen)
		if err != nil {
			fmt.Fprintf(stderr, "grambench: %v\n", err)
			return 1
		}
		t.AddRow(m.name, report.Cell(res.Goodput, 1), report.Cell(res.P95, 3),
			report.Cell(100*res.ErrorRate(), 1),
			fmt.Sprintf("%d", pbsd.LoadBound(res.Goodput, *iat)))
		if res.Interrupted {
			break
		}
	}
	if err := t.Render(stdout); err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 1
	}
	if loadgen.Interrupted(ctx, stdout) {
		return 0
	}

	// (c) Overload response of one chosen mode: offered rate × r. Every
	// copy is a full independent transaction — the redundant work the
	// paper indicts — so r multiplies the load on the stack.
	mode := "in-memory"
	if *durable && *security {
		mode = "full GRAM-like"
	} else if *durable {
		mode = "durable"
	} else if *security {
		mode = "security"
	}
	if *batch {
		mode += ", batched"
	}
	ot := report.NewTable(fmt.Sprintf("overload response (%s mode, open-loop rate × redundancy)", mode),
		"rate", "r", "offered/s", "goodput/s", "p50 s", "p95 s", "p99 s", "loss %", "errors")
	gen.batch = *batch
sweep:
	for _, rate := range sweepRates {
		for _, r := range rs {
			res, err := measure(ctx, *durable, *security, rate, r, gen)
			if err != nil {
				fmt.Fprintf(stderr, "grambench: %v\n", err)
				return 1
			}
			ot.AddRow(report.Cell(rate, 0), fmt.Sprintf("%d", r),
				report.Cell(res.OfferedRate, 1), report.Cell(res.Goodput, 1),
				report.Cell(res.P50, 3), report.Cell(res.P95, 3), report.Cell(res.P99, 3),
				report.Cell(100*res.ErrorRate(), 1), res.ErrorSummary())
			if res.Interrupted {
				break sweep
			}
		}
	}
	if err := ot.Render(stdout); err != nil {
		fmt.Fprintf(stderr, "grambench: %v\n", err)
		return 1
	}
	if loadgen.Interrupted(ctx, stdout) {
		return 0
	}
	fmt.Fprintf(stdout, "\nThe paper measures ~0.5 submit+cancel pairs/s for GT4 WS-GRAM, giving r < 3;\n")
	fmt.Fprintf(stdout, "the shape to check is marshalling >> middleware transactions, the derived bound\n")
	fmt.Fprintf(stdout, "r < iat * pair-rate for whichever layer is slowest, and goodput collapsing as\n")
	fmt.Fprintf(stdout, "r multiplies the offered rate past the capacity knee.\n")
	return 0
}

// genConfig carries the loadgen knobs shared by every measurement.
type genConfig struct {
	law      loadgen.Arrival
	dur      time.Duration
	inflight int
	deadline time.Duration
	// batch collapses each logical request's r copies into one
	// SubmitBatch plus one CancelBatch envelope on a pooled pre-warmed
	// client, instead of r independent submit+cancel round trips.
	batch bool
}

// measure drives one open-loop point — rate logical pairs/s, r copies
// each — through a fresh middleware stack in the given mode.
func measure(ctx context.Context, durable, security bool, rate float64, r int, gen genConfig) (loadgen.Result, error) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		return loadgen.Result{}, err
	}
	defer backend.Close()
	stateDir := ""
	if durable {
		stateDir, err = os.MkdirTemp("", "grambench-state")
		if err != nil {
			return loadgen.Result{}, err
		}
		defer os.RemoveAll(stateDir)
	}
	svc, err := middleware.NewService(middleware.ServiceConfig{
		Durable:  durable,
		Security: security,
		StateDir: stateDir,
		Backend:  backend,
	})
	if err != nil {
		return loadgen.Result{}, err
	}
	defer svc.Close()
	ep, err := middleware.Start(svc, "127.0.0.1:0")
	if err != nil {
		return loadgen.Result{}, err
	}
	defer ep.Close()

	cl := middleware.NewClientOptions(ep.URL, "grambench", middleware.ClientOptions{
		Timeout: gen.deadline,
	})
	cfg := loadgen.Config{
		Rate:        rate,
		Arrivals:    gen.law,
		Duration:    gen.dur,
		Redundancy:  r,
		MaxInFlight: gen.inflight,
		Deadline:    gen.deadline,
		Classify:    middleware.ErrorClass,
	}
	if gen.batch {
		if err := cl.Warm(ctx, 16); err != nil {
			return loadgen.Result{}, err
		}
		cfg.DoBatch = func(ctx context.Context, _, copies int) error { return cl.BatchPair(ctx, copies) }
	} else {
		cfg.Do = func(ctx context.Context, _ loadgen.Request) error { return cl.Pair(ctx) }
	}
	return loadgen.Run(ctx, cfg)
}
