// Tests for the client's overload machinery: circuit-breaker state
// transitions across a blackhole window and the context-interruptible
// backoff regression.

package middleware

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"redreq/internal/fault"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
)

// Unit-level state machine under a fake clock: trip on consecutive
// transport failures, reject while open, probe after the cooldown,
// reopen on a failed probe, close on a successful one.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := obs.New()
	b := newBreaker(BreakerOptions{Threshold: 2, Cooldown: time.Second},
		func() time.Time { return now }, tr)
	te := &TransportError{Op: "post", Err: errors.New("refused")}

	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	b.report(te)
	if got := b.State(); got != "closed" {
		t.Fatalf("state after 1 failure = %q, want closed (threshold 2)", got)
	}
	b.report(te)
	if got := b.State(); got != "open" {
		t.Fatalf("state after 2 failures = %q, want open", got)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}

	// Cooldown elapses: exactly one probe gets through.
	now = now.Add(time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("probe rejected after cooldown: %v", err)
	}
	if got := b.State(); got != "half-open" {
		t.Fatalf("state during probe = %q, want half-open", got)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second caller admitted while a probe is in flight")
	}
	// Failed probe reopens and restarts the cooldown.
	b.report(te)
	if got := b.State(); got != "open" {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker admitted a call right after a failed probe")
	}

	// Second probe succeeds: closed again, and the counters tell the
	// whole story.
	now = now.Add(time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.report(nil)
	if got := b.State(); got != "closed" {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	snap := tr.Snapshot()
	if got := snap.Counter("gram.breaker.open"); got != 2 {
		t.Fatalf("gram.breaker.open = %d, want 2", got)
	}
	if got := snap.Counter("gram.breaker.halfopen"); got != 2 {
		t.Fatalf("gram.breaker.halfopen = %d, want 2", got)
	}
	if got := snap.Counter("gram.breaker.close"); got != 1 {
		t.Fatalf("gram.breaker.close = %d, want 1", got)
	}
	if got := snap.Counter("gram.breaker.rejected"); got != 3 {
		t.Fatalf("gram.breaker.rejected = %d, want 3", got)
	}
}

// Only transport-class failures open the breaker: BUSY, LATE, and
// service faults prove the endpoint alive and reset the failure run.
func TestBreakerIgnoresApplicationErrors(t *testing.T) {
	b := newBreaker(BreakerOptions{Threshold: 2}, nil, nil)
	te := &TransportError{Op: "post", Err: errors.New("reset")}
	b.report(te)
	b.report(&StatusError{Code: 503, Body: "BUSY"}) // endpoint alive: run resets
	b.report(te)
	if got := b.State(); got != "closed" {
		t.Fatalf("state = %q after busy-interrupted failures, want closed", got)
	}
	b.report(&StatusError{Code: 429, Body: "LATE"})
	b.report(&ServiceError{Reason: "no such job"})
	if got := b.State(); got != "closed" {
		t.Fatalf("state = %q after application errors, want closed", got)
	}
	b.report(te)
	b.report(te)
	if got := b.State(); got != "open" {
		t.Fatalf("state = %q after 2 consecutive transport failures, want open", got)
	}
}

// The acceptance scenario: a blackhole window at the fault proxy opens
// the breaker after Threshold timed-out attempts, calls then fail fast
// WITHOUT touching the network, and once the window lifts a half-open
// probe closes the breaker again.
func TestBreakerBlackholeWindow(t *testing.T) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	svc, err := NewService(ServiceConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	var blackhole atomic.Bool
	proxy := &fault.Proxy{
		Backend: ep.URL[len("http://"):],
		Decide: func(int) fault.Verdict {
			if blackhole.Load() {
				return fault.Blackhole
			}
			return fault.Forward
		},
	}
	addr, err := proxy.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tr := obs.New()
	c := NewClientOptions("http://"+addr, "breaker", ClientOptions{
		Timeout: 100 * time.Millisecond,
		Breaker: BreakerOptions{Threshold: 3, Cooldown: 50 * time.Millisecond},
		// Keep-alive reuse would dodge the proxy's per-connection
		// verdict; force every attempt through a fresh connection.
		Transport: &http.Transport{DisableKeepAlives: true},
		Trace:     tr,
	})

	// Healthy endpoint: calls flow, breaker stays closed.
	if _, err := c.Submit("warm", 1, time.Hour); err != nil {
		t.Fatalf("submit through healthy proxy: %v", err)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("breaker = %q after success, want closed", got)
	}

	// Blackhole window: each attempt burns the full 100 ms timeout
	// until the third failure trips the breaker.
	blackhole.Store(true)
	for i := 0; i < 3; i++ {
		var te *TransportError
		if _, err := c.Submit("wedged", 1, time.Hour); !errors.As(err, &te) {
			t.Fatalf("submit %d into blackhole: err = %T %v, want *TransportError", i, err, err)
		}
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("breaker = %q after %d timeouts, want open", c.BreakerState(), 3)
	}

	// While open: fail fast, no network. The proxy connection count
	// must not move, and the call must return in well under the
	// 100 ms attempt timeout.
	seen := proxy.Connections()
	t0 := time.Now()
	if _, err := c.Submit("rejected", 1, time.Hour); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submit while open: err = %v, want ErrCircuitOpen", err)
	}
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Fatalf("open-breaker call took %v, want instant fail-fast", d)
	}
	if got := proxy.Connections(); got != seen {
		t.Fatalf("open-breaker call touched the network: %d connections, had %d", got, seen)
	}

	// Window lifts; after the cooldown the next call is the half-open
	// probe, it succeeds, and the breaker closes.
	blackhole.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Submit("probe", 1, time.Hour); err != nil {
		t.Fatalf("probe after blackhole window: %v", err)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("breaker = %q after successful probe, want closed", got)
	}
	snap := tr.Snapshot()
	if got := snap.Counter("gram.breaker.open"); got != 1 {
		t.Fatalf("gram.breaker.open = %d, want 1", got)
	}
	if got := snap.Counter("gram.breaker.halfopen"); got != 1 {
		t.Fatalf("gram.breaker.halfopen = %d, want 1", got)
	}
	if got := snap.Counter("gram.breaker.close"); got != 1 {
		t.Fatalf("gram.breaker.close = %d, want 1", got)
	}
	if got := snap.Counter("gram.breaker.rejected"); got != 1 {
		t.Fatalf("gram.breaker.rejected = %d, want 1", got)
	}
}

// Regression: the default backoff sleep must be interruptible by the
// call context. With a 10 s retry base, a caller canceling after 50 ms
// must get its error back immediately, not after the backoff expires.
func TestBackoffSleepInterruptibleByContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "BUSY", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClientOptions(srv.URL, "cancel", ClientOptions{
		Retries:   3,
		RetryBase: 10 * time.Second,
		RetryMax:  10 * time.Second,
		// Sleep left nil deliberately: this exercises the default,
		// context-interruptible wait.
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := c.SubmitContext(ctx, "j", 1, time.Hour)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("canceled submit succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	// Generous bound: far below the 5 s+ the first backoff alone would
	// take if the sleep ignored the context.
	if elapsed > 2*time.Second {
		t.Fatalf("canceled call took %v — backoff sleep is not interruptible", elapsed)
	}
}

// End-to-end LATE: the admission-control drop surfaces as 429 with
// ErrLate — distinct from ErrBusy — and the gram.late counter records
// it.
func TestServiceAnswersLateOnAdmissionDrop(t *testing.T) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16, AdmitBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	tr := obs.New()
	svc, err := NewService(ServiceConfig{Backend: backend, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	c := NewClient(ep.URL, "late")
	// Prime the queue and the daemon's drain EWMA so the next submit
	// estimates over the (1 ns) budget.
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("p", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := backend.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := backend.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit("late", 1, time.Hour)
	if !errors.Is(err, ErrLate) {
		t.Fatalf("submit past the budget: err = %T %v, want ErrLate", err, err)
	}
	if errors.Is(err, ErrBusy) {
		t.Fatal("429 LATE must not also match ErrBusy")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 429 {
		t.Fatalf("err = %T %v, want *StatusError{429}", err, err)
	}
	if !retryable(err) {
		t.Fatal("LATE must be retryable (back off and try again)")
	}
	snap := tr.Snapshot()
	if got := snap.Counter("gram.late"); got != 1 {
		t.Fatalf("gram.late = %d, want 1", got)
	}
	if got := snap.Counter("gram.shed"); got != 0 {
		t.Fatalf("gram.shed = %d, want 0 (LATE is not BUSY)", got)
	}
}
