// Package loadgen is the one load driver of the real-stack
// measurements (`redsim -run sec4|overload` and examples/gridservice).
// Run offers logical requests on one of two schedules, chosen by
// Config.Rate, and accounts them the same way.
//
// Closed loop (Rate == 0): MaxInFlight callers each start their next
// request the moment the previous one finishes — the paper's Figure 5
// method ("processes that continuously submit new jobs and delete the
// job at the head of the queue"). Nothing is dropped and the completed
// rate IS the system's ceiling at that concurrency, which is the one
// number Section 4 needs per layer: r < iat × pairs/s. Use it to read a
// capacity. It cannot take the system past the knee: when the server
// slows down, a closed loop slows its own offered rate in sympathy
// (double the service time and the offered rate halves), hiding
// exactly the overload regime where the Section 4 bounds bind.
//
// Open loop (Rate > 0): arrivals fire on a target-rate schedule
// (Poisson or uniform) regardless of how the previous requests are
// faring, so offered load keeps climbing while goodput saturates and
// latency grows without bound — the regime where redundancy's
// r-multiplier on request rate does its damage. Use it to see what
// happens above the capacity a closed loop measured. MaxInFlight then
// bounds concurrently executing logical requests, and arrivals past the
// bound are *dropped and counted*, never queued — queueing would close
// the loop.
//
// On either schedule the engine launches Redundancy copies of each
// logical request, applies a per-request deadline, and accounts latency
// percentiles and classified errors. Copies run to completion
// independently: a logical request succeeds when at least one copy
// succeeds, and its latency is the time from its scheduled arrival
// (open loop: scheduled, not actual, so generator lag under overload is
// charged to the system — the standard correction for coordinated
// omission; closed loop: the moment its caller became free) to its
// first success. Cancel-on-first-win is deliberately NOT the
// generator's job: cancel disciplines are a property of the system
// under test (client hedging, server-side cancellation), and a harness
// that silently canceled loser copies would under-charge the stack for
// exactly the redundant work the paper indicts.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"redreq/internal/obs"
)

// Arrival is the interarrival law of the open-loop schedule (a closed
// loop has no arrival clock and ignores it).
type Arrival int

const (
	// Poisson draws exponential interarrivals (memoryless, the
	// classic open-loop benchmark assumption and the paper's job
	// arrival model).
	Poisson Arrival = iota
	// Uniform spaces arrivals exactly 1/Rate apart (deterministic,
	// for tests and worst-case burst-free baselines).
	Uniform
)

func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// Request identifies one copy of one logical request handed to Do.
type Request struct {
	// Seq is the logical request index (0-based, in arrival order).
	Seq int
	// Copy is the redundant copy index, 0 <= Copy < Redundancy.
	Copy int
}

// Config configures one run.
type Config struct {
	// Rate selects the schedule. Positive: open loop at that target
	// arrival rate of logical requests per second. Zero: closed loop,
	// no arrival clock — MaxInFlight callers each start their next
	// request when their previous one finishes. Negative is an error.
	Rate float64
	// Arrivals is the open-loop interarrival law (default Poisson).
	Arrivals Arrival
	// Duration is the offered window: no request starts after it
	// elapses; in-flight requests are then drained.
	Duration time.Duration
	// Redundancy is the number of copies launched per logical request
	// (default 1). Each copy invokes Do independently.
	Redundancy int
	// MaxInFlight bounds concurrently executing logical requests
	// (default 512). Open loop: an arrival that finds no free slot is
	// dropped and counted — never queued, which would close the loop.
	// Closed loop: it is the number of callers, so set it to the
	// concurrency whose ceiling is wanted (Figure 5's "clients").
	MaxInFlight int
	// Deadline, when positive, bounds each logical request: every
	// copy's context expires Deadline after the scheduled arrival.
	Deadline time.Duration
	// Seed seeds the open-loop interarrival draw (0 uses a fixed
	// default).
	Seed uint64
	// Do performs one copy. A nil error is a success. Do must respect
	// ctx: it is canceled at the deadline and on run interruption.
	// Exactly one of Do and DoBatch must be set.
	Do func(ctx context.Context, req Request) error
	// DoBatch, when set instead of Do, performs ALL copies of one
	// logical request in a single call — for systems under test that
	// batch the r-way fan-out into one round trip (SubmitBatch). A nil
	// error means at least one copy landed. Latency is still charged
	// from the scheduled arrival. Note the accounting difference from
	// Do: per-copy outcomes are the callee's to fold, so Result.Copies
	// still counts copies launched, but there is no per-copy
	// first-success race — the batch answers as a unit.
	DoBatch func(ctx context.Context, seq, copies int) error
	// Classify, when non-nil, buckets a failed logical request's error
	// into a named class for Result.Errors (e.g. "busy", "late").
	// Deadline expiries are pre-classified as "deadline"; everything
	// else defaults to "error".
	Classify func(error) string
}

// Result is the accounting of one run.
type Result struct {
	// Offered is the number of logical requests generated, and Copies
	// the number of request copies actually launched.
	Offered int
	Copies  int
	// Dropped counts open-loop arrivals discarded at the MaxInFlight
	// bound — client-side shedding under overload. A closed loop never
	// drops: Offered == OK + Failed.
	Dropped int
	// OK counts logical requests with at least one successful copy;
	// Failed counts those whose every copy failed.
	OK     int
	Failed int
	// Errors buckets failed logical requests by Classify class
	// ("deadline" for deadline expiries, "error" by default).
	Errors map[string]int
	// Elapsed is the wall-clock span from the start of the run to full
	// drain.
	Elapsed time.Duration
	// OfferedRate is Offered per second and Goodput OK per second of
	// the same window. Open loop: the offered window (the configured
	// Duration, or the interrupted fraction of it), so requests that
	// finish past its edge still count against the rate that was
	// offered. Closed loop: the measured span Elapsed (start to last
	// completion) — every request was started inside it and none was
	// dropped, so Goodput is the sustained completion rate.
	OfferedRate float64
	Goodput     float64
	// P50/P95/P99/Mean/Max summarize successful logical-request
	// latency in seconds, measured from scheduled arrival (closed
	// loop: from the moment its caller started it) to first copy
	// success. Mean and Max are exact; the percentiles are within 1 %
	// of an order statistic (obs.Histogram), so the run keeps no
	// per-request sample.
	P50, P95, P99, Mean, Max float64
	// Interrupted reports that the run's context was canceled before
	// the full Duration: the result covers the partial window.
	Interrupted bool
}

// ErrorRate returns the fraction of offered logical requests that
// produced no success (failed every copy, or dropped at the bound).
func (r Result) ErrorRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Failed+r.Dropped) / float64(r.Offered)
}

// Run executes one measurement on the schedule Config.Rate selects.
// Canceling ctx stops new requests, drains in-flight ones, and returns
// the partial result with Interrupted set — it is not an error.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if (cfg.Do == nil) == (cfg.DoBatch == nil) {
		return Result{}, errors.New("loadgen: exactly one of Config.Do and Config.DoBatch is required")
	}
	if cfg.Rate < 0 || math.IsNaN(cfg.Rate) {
		return Result{}, fmt.Errorf("loadgen: Rate must be positive (open loop) or zero (closed loop), got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("loadgen: Duration must be positive, got %v", cfg.Duration)
	}
	if cfg.Redundancy < 1 {
		cfg.Redundancy = 1
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 512
	}

	e := &engine{cfg: cfg, res: Result{Errors: make(map[string]int)}, latency: obs.NewHistogram()}
	start := time.Now()
	if cfg.Rate > 0 {
		e.openLoop(ctx, start)
	} else {
		e.closedLoop(ctx, start)
	}
	e.wg.Wait()

	res := e.res
	res.Elapsed = time.Since(start)
	window := cfg.Duration.Seconds()
	if res.Interrupted || cfg.Rate == 0 {
		window = res.Elapsed.Seconds()
	}
	if window > 0 {
		res.OfferedRate = float64(res.Offered) / window
		res.Goodput = float64(res.OK) / window
	}
	if e.latency.Count() > 0 {
		res.P50, res.P95, res.P99 = e.latency.Quantile(0.50), e.latency.Quantile(0.95), e.latency.Quantile(0.99)
		res.Mean, res.Max = e.latency.Mean(), e.latency.Max()
	}
	return res, nil
}

// Ceiling reads a system's sustained capacity the way the paper's
// Figure 5 does: callers closed-loop callers run pair back to back for
// window, and Result.Goodput is the pairs/s they completed. A failed
// pair is an error wrapping the first failure — a ceiling read off a
// failing system is not a ceiling — unless the run was interrupted,
// whose partial Result stands.
func Ceiling(ctx context.Context, callers int, window time.Duration, pair func(context.Context) error) (Result, error) {
	if callers < 1 {
		return Result{}, fmt.Errorf("loadgen: Ceiling needs at least one caller, got %d", callers)
	}
	var (
		once  sync.Once
		first error
	)
	res, err := Run(ctx, Config{
		Duration:    window,
		MaxInFlight: callers,
		Do: func(ctx context.Context, _ Request) error {
			err := pair(ctx)
			if err != nil {
				once.Do(func() { first = err })
			}
			return err
		},
	})
	if err == nil && res.Failed > 0 && !res.Interrupted {
		err = fmt.Errorf("loadgen: %d of %d pairs failed, first: %w", res.Failed, res.Offered, first)
	}
	return res, err
}

type engine struct {
	cfg Config
	wg  sync.WaitGroup

	mu      sync.Mutex
	res     Result
	latency *obs.Histogram // successful logical-request latencies, seconds
}

// openLoop fires arrivals on the target-rate schedule until the window
// closes or ctx is canceled; an arrival that finds every slot taken is
// dropped.
func (e *engine) openLoop(ctx context.Context, start time.Time) {
	seed := e.cfg.Seed
	if seed == 0 {
		seed = 0x10adcafe
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	slots := make(chan struct{}, e.cfg.MaxInFlight)

	next := start // first arrival fires immediately
	deadline := start.Add(e.cfg.Duration)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for next.Before(deadline) {
		timer.Reset(time.Until(next))
		select {
		case <-ctx.Done():
			e.interrupt()
			return
		case <-timer.C:
		}
		seq := e.offer()
		select {
		case slots <- struct{}{}:
			e.wg.Add(1)
			go func(seq int, scheduled time.Time) {
				defer e.wg.Done()
				defer func() { <-slots }()
				e.logical(ctx, seq, scheduled)
			}(seq, next)
		default:
			e.mu.Lock()
			e.res.Dropped++
			e.mu.Unlock()
		}
		next = next.Add(e.interarrival(rng))
	}
}

// closedLoop starts MaxInFlight callers; each issues its next logical
// request the moment its previous one finishes, until the window closes
// or ctx is canceled.
func (e *engine) closedLoop(ctx context.Context, start time.Time) {
	deadline := start.Add(e.cfg.Duration)
	e.wg.Add(e.cfg.MaxInFlight)
	for i := 0; i < e.cfg.MaxInFlight; i++ {
		go func() {
			defer e.wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if ctx.Err() != nil {
					e.interrupt()
					return
				}
				e.logical(ctx, e.offer(), now)
			}
		}()
	}
}

// offer counts one generated logical request and returns its Seq.
func (e *engine) offer() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.res.Offered++
	return e.res.Offered - 1
}

func (e *engine) interrupt() {
	e.mu.Lock()
	e.res.Interrupted = true
	e.mu.Unlock()
}

// interarrival draws the gap to the next arrival.
func (e *engine) interarrival(rng *rand.Rand) time.Duration {
	mean := 1 / e.cfg.Rate
	gap := mean
	if e.cfg.Arrivals == Poisson {
		gap = rng.ExpFloat64() * mean
	}
	// Floor the gap at ~1µs so a pathological draw cannot wedge the
	// scheduler in a zero-sleep spin.
	if gap < 1e-6 {
		gap = 1e-6
	}
	return time.Duration(gap * float64(time.Second))
}

// logical runs every copy of one logical request and folds the
// outcome into the result.
func (e *engine) logical(ctx context.Context, seq int, scheduled time.Time) {
	if e.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, scheduled.Add(e.cfg.Deadline))
		defer cancel()
	}

	r := e.cfg.Redundancy
	var (
		err  error
		done time.Time // first success
	)
	switch {
	case e.cfg.DoBatch != nil:
		// Batched fan-out: one call carries all r copies; the batch
		// answers as a unit, so its completion time is the latency.
		err = e.cfg.DoBatch(ctx, seq, r)
		done = time.Now()
	case r == 1:
		// A lone copy runs on the caller's goroutine: a closed loop
		// charges the harness's own per-request cost to the system.
		err = e.cfg.Do(ctx, Request{Seq: seq})
		done = time.Now()
	default:
		done, err = e.fanOut(ctx, seq, r)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.res.Copies += r
	if err != nil {
		e.res.Failed++
		e.res.Errors[e.classify(ctx, err)]++
		return
	}
	e.res.OK++
	lat := done.Sub(scheduled).Seconds()
	if lat < 0 {
		lat = 0
	}
	e.latency.Observe(lat)
}

// fanOut launches r independent copies and waits for all of them: it
// returns the time of the earliest success, or the first error when
// every copy failed.
func (e *engine) fanOut(ctx context.Context, seq, r int) (time.Time, error) {
	type outcome struct {
		err error
		at  time.Time
	}
	ch := make(chan outcome, r)
	for c := 0; c < r; c++ {
		c := c
		go func() {
			err := e.cfg.Do(ctx, Request{Seq: seq, Copy: c})
			ch <- outcome{err, time.Now()}
		}()
	}
	var (
		firstOK  time.Time
		firstErr error
	)
	for c := 0; c < r; c++ {
		o := <-ch
		if o.err == nil {
			if firstOK.IsZero() || o.at.Before(firstOK) {
				firstOK = o.at
			}
		} else if firstErr == nil {
			firstErr = o.err
		}
	}
	if !firstOK.IsZero() {
		return firstOK, nil
	}
	return time.Time{}, firstErr
}

// classify buckets a failed logical request's primary error.
func (e *engine) classify(ctx context.Context, err error) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) ||
		errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if e.cfg.Classify != nil {
		if class := e.cfg.Classify(err); class != "" {
			return class
		}
	}
	return "error"
}

// ErrorClasses returns the result's error classes sorted by name, for
// deterministic reporting.
func (r Result) ErrorClasses() []string {
	keys := make([]string, 0, len(r.Errors))
	for k := range r.Errors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ErrorSummary renders the error classes plus client-side drops as
// space-separated "class:count" pairs in deterministic order, or "-"
// when the run was clean — the compact errors cell of the overload
// tables.
func (r Result) ErrorSummary() string {
	var b strings.Builder
	for _, class := range r.ErrorClasses() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", class, r.Errors[class])
	}
	if r.Dropped > 0 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "dropped:%d", r.Dropped)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}
