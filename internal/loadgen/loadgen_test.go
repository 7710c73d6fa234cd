package loadgen

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A uniform schedule at a known rate must offer ~rate*duration logical
// requests and, with an instant Do, succeed on all of them.
func TestUniformScheduleOffersTargetRate(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Rate:     200,
		Arrivals: Uniform,
		Duration: 250 * time.Millisecond,
		Do:       func(context.Context, Request) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200/s over 250 ms = 50 scheduled arrivals; allow slack for a
	// loaded CI machine (the scheduler never skips arrivals, but the
	// final ones can slip past the window edge).
	if res.Offered < 35 || res.Offered > 55 {
		t.Fatalf("Offered = %d, want ~50", res.Offered)
	}
	if res.OK != res.Offered || res.Failed != 0 || res.Dropped != 0 {
		t.Fatalf("OK/Failed/Dropped = %d/%d/%d, want all offered OK", res.OK, res.Failed, res.Dropped)
	}
	if res.Goodput <= 0 || res.OfferedRate <= 0 {
		t.Fatalf("rates not computed: %+v", res)
	}
	if res.Interrupted {
		t.Fatal("uninterrupted run marked Interrupted")
	}
}

// The concurrency bound must shed arrivals, not queue them: with one
// slot and a Do that outlives the whole window, every arrival after
// the first is dropped.
func TestMaxInFlightDropsInsteadOfQueueing(t *testing.T) {
	block := make(chan struct{})
	var started atomic.Int32
	res, err := Run(context.Background(), Config{
		Rate:        500,
		Arrivals:    Uniform,
		Duration:    100 * time.Millisecond,
		MaxInFlight: 1,
		Deadline:    150 * time.Millisecond,
		Do: func(ctx context.Context, _ Request) error {
			started.Add(1)
			select {
			case <-block:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	close(block)
	if err != nil {
		t.Fatal(err)
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("Do started %d times, want 1 (bound = 1)", got)
	}
	if res.Dropped != res.Offered-1 {
		t.Fatalf("Dropped = %d of %d offered, want all but one", res.Dropped, res.Offered)
	}
	if res.ErrorRate() <= 0 {
		t.Fatal("drops must count toward the error rate")
	}
}

// A logical request succeeds when any one of its redundant copies
// succeeds; the copy count must reflect all launches.
func TestRedundantCopiesFirstSuccessWins(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Rate:       100,
		Arrivals:   Uniform,
		Duration:   50 * time.Millisecond,
		Redundancy: 3,
		Do: func(_ context.Context, req Request) error {
			if req.Copy == 2 {
				return nil // only the last copy succeeds
			}
			return errors.New("copy failed")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != res.Offered || res.Failed != 0 {
		t.Fatalf("OK = %d of %d offered (Failed %d), want all OK via copy 2", res.OK, res.Offered, res.Failed)
	}
	if res.Copies != 3*res.Offered {
		t.Fatalf("Copies = %d, want %d (3 per logical request)", res.Copies, 3*res.Offered)
	}
}

// Deadline expiries are classified "deadline"; other failures flow
// through Classify.
func TestDeadlineAndClassification(t *testing.T) {
	errBusy := errors.New("busy")
	res, err := Run(context.Background(), Config{
		Rate:     100,
		Arrivals: Uniform,
		Duration: 60 * time.Millisecond,
		Deadline: 10 * time.Millisecond,
		Do: func(ctx context.Context, req Request) error {
			if req.Seq%2 == 0 {
				<-ctx.Done() // wait out the deadline
				return ctx.Err()
			}
			return errBusy
		},
		Classify: func(err error) string {
			if errors.Is(err, errBusy) {
				return "busy"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 0 || res.Failed != res.Offered {
		t.Fatalf("OK/Failed = %d/%d of %d, want all failed", res.OK, res.Failed, res.Offered)
	}
	if res.Errors["deadline"] == 0 || res.Errors["busy"] == 0 {
		t.Fatalf("Errors = %v, want both deadline and busy classes", res.Errors)
	}
	if got := res.Errors["deadline"] + res.Errors["busy"]; got != res.Failed {
		t.Fatalf("classified %d of %d failures", got, res.Failed)
	}
}

// Canceling the run context stops new requests and drains in-flight
// work on either schedule: the partial result is returned with
// Interrupted set, not an error.
func TestInterruptDrainsAndReturnsPartial(t *testing.T) {
	for name, cfg := range map[string]Config{
		"open":   {Rate: 200, Arrivals: Uniform},
		"closed": {MaxInFlight: 4},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(40 * time.Millisecond)
			cancel()
		}()
		var inflight atomic.Int32
		cfg.Duration = 10 * time.Second // the cancel, not the window, ends the run
		cfg.Do = func(context.Context, Request) error {
			inflight.Add(1)
			defer inflight.Add(-1)
			time.Sleep(5 * time.Millisecond)
			return nil
		}
		res, err := Run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Interrupted {
			t.Errorf("%s: canceled run not marked Interrupted", name)
		}
		if res.OK == 0 || res.OK != res.Offered {
			t.Errorf("%s: in-flight requests not drained to completion: %+v", name, res)
		}
		if res.Elapsed >= 5*time.Second {
			t.Errorf("%s: run did not stop on cancel (elapsed %v)", name, res.Elapsed)
		}
		if got := inflight.Load(); got != 0 {
			t.Errorf("%s: %d requests still in flight after Run returned", name, got)
		}
	}
}

// Latency percentiles must be monotone and cover the injected floor.
func TestLatencyPercentiles(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Rate:     100,
		Arrivals: Poisson,
		Seed:     7,
		Duration: 100 * time.Millisecond,
		Do: func(context.Context, Request) error {
			time.Sleep(2 * time.Millisecond)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 < 0.002 {
		t.Fatalf("P50 = %g s below the 2 ms service floor", res.P50)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > res.Max {
		t.Fatalf("percentiles not monotone: p50 %g p95 %g p99 %g max %g", res.P50, res.P95, res.P99, res.Max)
	}
}

// DoBatch replaces the per-copy fan-out with one call carrying the
// whole redundancy group: every call must see copies == r, the copy
// accounting must still reflect r per logical request, and failures
// flow through Classify exactly like Do failures.
func TestDoBatchCarriesRedundancyGroup(t *testing.T) {
	errBusy := errors.New("busy")
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{
		Rate:       100,
		Arrivals:   Uniform,
		Duration:   60 * time.Millisecond,
		Redundancy: 3,
		DoBatch: func(_ context.Context, seq, copies int) error {
			calls.Add(1)
			if copies != 3 {
				t.Errorf("DoBatch copies = %d, want 3", copies)
			}
			if seq%2 == 1 {
				return errBusy
			}
			return nil
		},
		Classify: func(err error) string {
			if errors.Is(err, errBusy) {
				return "busy"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(res.Offered) {
		t.Fatalf("DoBatch called %d times for %d offered requests", got, res.Offered)
	}
	if res.Copies != 3*res.Offered {
		t.Fatalf("Copies = %d, want %d (3 per logical request)", res.Copies, 3*res.Offered)
	}
	if res.OK+res.Failed != res.Offered || res.OK == 0 || res.Failed == 0 {
		t.Fatalf("OK/Failed = %d/%d of %d, want a mix", res.OK, res.Failed, res.Offered)
	}
	if res.Errors["busy"] != res.Failed {
		t.Fatalf("Errors = %v, want %d busy", res.Errors, res.Failed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Rate: 1, Duration: time.Second}); err == nil {
		t.Error("nil Do accepted")
	}
	nop := func(context.Context, Request) error { return nil }
	if _, err := Run(context.Background(), Config{Rate: -1, Duration: time.Second, Do: nop}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Run(context.Background(), Config{Rate: 1, Do: nop}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(context.Background(), Config{Do: nop}); err == nil {
		t.Error("closed loop with zero duration accepted")
	}
	// Do and DoBatch are mutually exclusive ways to issue a request.
	batch := func(context.Context, int, int) error { return nil }
	if _, err := Run(context.Background(), Config{Rate: 1, Duration: time.Second, Do: nop, DoBatch: batch}); err == nil {
		t.Error("both Do and DoBatch accepted")
	}

	// Rate == 0 is the closed loop, and with MaxInFlight unset its
	// callers are the default window of 512: hold every request until
	// that many are in Do at once.
	var (
		inflight atomic.Int32
		once     sync.Once
	)
	full := make(chan struct{})
	res, err := Run(context.Background(), Config{
		Duration: 200 * time.Millisecond,
		Deadline: 5 * time.Second,
		Do: func(ctx context.Context, _ Request) error {
			defer inflight.Add(-1)
			if inflight.Add(1) == 512 {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
				time.Sleep(time.Millisecond)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatalf("closed loop (Rate 0) rejected: %v", err)
	}
	if res.Failed != 0 || res.OK < 512 {
		t.Fatalf("default window never filled with 512 callers: %+v", res)
	}
}

// The closed loop's callers are its only source of concurrency: never
// more than MaxInFlight requests in Do, none dropped, and every offered
// request accounted as OK or Failed.
func TestClosedLoopBoundsConcurrencyAndDropsNothing(t *testing.T) {
	var inflight, maxSeen atomic.Int32
	res, err := Run(context.Background(), Config{
		Duration:    100 * time.Millisecond,
		MaxInFlight: 3,
		Do: func(_ context.Context, req Request) error {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for {
				if m := maxSeen.Load(); n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			if req.Seq%4 == 0 {
				return errors.New("every fourth fails")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != 3 {
		t.Errorf("peak concurrency %d, want exactly the 3 callers", got)
	}
	if res.Dropped != 0 {
		t.Errorf("closed loop dropped %d requests", res.Dropped)
	}
	if res.OK == 0 || res.Failed == 0 || res.Offered != res.OK+res.Failed {
		t.Errorf("Offered %d != OK %d + Failed %d (want a mix)", res.Offered, res.OK, res.Failed)
	}
	if res.Copies != res.Offered {
		t.Errorf("Copies = %d, want one per offered request (%d)", res.Copies, res.Offered)
	}
	if res.Interrupted {
		t.Error("uninterrupted run marked Interrupted")
	}
	// Rates are taken over the measured span, start to last completion.
	if want := float64(res.OK) / res.Elapsed.Seconds(); res.Goodput != want {
		t.Errorf("Goodput = %g, want OK/Elapsed = %g", res.Goodput, want)
	}
}

// The defining closed-loop property (and the reason it cannot overload
// a system): the offered rate follows the service time. Each caller
// issues its next request the moment the previous one returns, so the
// offered rate times the mean service time is the number of callers,
// less only the harness's own time between requests. The service time
// is what each Do took, measured inside Do, so a sleep that overshoots
// on a loaded machine moves both sides alike.
func TestClosedLoopOfferedRateFollowsServiceTime(t *testing.T) {
	const callers = 2
	for _, service := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond} {
		var mu sync.Mutex
		var busy time.Duration
		res, err := Run(context.Background(), Config{
			Duration:    300 * time.Millisecond,
			MaxInFlight: callers,
			Do: func(context.Context, Request) error {
				begin := time.Now()
				time.Sleep(service)
				took := time.Since(begin)
				mu.Lock()
				busy += took
				mu.Unlock()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		mean := busy.Seconds() / float64(res.Offered)
		// Every Do runs inside the measured span, so the share cannot
		// pass 1; a caller idling between requests pulls it down.
		share := res.OfferedRate * mean / callers
		t.Logf("%v sleeps: %d requests, measured mean %.2f ms, offered %.1f/s, %.3f of the callers' time in Do", service, res.Offered, mean*1e3, res.OfferedRate, share)
		if share < 0.8 || share > 1+1e-9 {
			t.Errorf("%v sleeps: %.3f of the callers' time in Do, want 0.8 to 1", service, share)
		}
	}
}

// Ceiling reports what failed instead of a rate read off a failing
// system, and an interrupted read is a partial result, not an error.
func TestCeilingFailsLoudly(t *testing.T) {
	_, err := Ceiling(context.Background(), 2, 20*time.Millisecond, func(context.Context) error {
		time.Sleep(time.Millisecond)
		return errors.New("backend gone")
	})
	if err == nil || !strings.Contains(err.Error(), "backend gone") {
		t.Errorf("Ceiling over a failing pair = %v, want an error naming the failure", err)
	}
	if _, err := Ceiling(context.Background(), 0, time.Second, func(context.Context) error { return nil }); err == nil {
		t.Error("Ceiling with no callers accepted (would silently run the default window)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Ceiling(ctx, 2, time.Second, func(ctx context.Context) error { return ctx.Err() })
	if err != nil || !res.Interrupted {
		t.Errorf("interrupted Ceiling = %+v, %v; want a partial result", res, err)
	}
}
