// Client side of the middleware service.

package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"redreq/internal/obs"
)

// ClientOptions tunes a Client's timeout and retry behavior. The zero
// value gives the defaults documented on each field.
type ClientOptions struct {
	// Timeout bounds each individual attempt (dial through response
	// body); 0 uses 30 s. The per-call context, if any, bounds the
	// whole call including backoff sleeps.
	Timeout time.Duration
	// Retries is the number of additional attempts after a retryable
	// failure (transport errors and BUSY shedding; service faults and
	// malformed responses are never retried). 0 disables retries.
	Retries int
	// RetryBase is the backoff before the first retry; it doubles per
	// attempt up to RetryMax. Defaults: 100 ms base, 5 s cap.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Jitter draws the backoff jitter factor in [0,1): each sleep is
	// uniformly spread over [d/2, d) to decorrelate clients hammering
	// a shed endpoint. Nil uses math/rand. Inject a constant for
	// deterministic tests.
	Jitter func() float64
	// Sleep performs the backoff wait; nil waits on a timer that the
	// call context interrupts, so a canceled caller never sits out a
	// multi-second backoff. Inject a fake clock to assert backoff
	// timing without real delays (an injected Sleep is not
	// interruptible — tests control it).
	Sleep func(time.Duration)
	// Breaker arms a circuit breaker over transport-class failures so
	// a dead or blackholed endpoint fails fast instead of burning a
	// timeout per attempt. The zero value disables it; see
	// BreakerOptions.
	Breaker BreakerOptions
	// Now overrides the breaker's clock (tests).
	Now func() time.Time
	// PoolSize sizes the client's idle HTTP connection pool (keep-alives
	// on). net/http's zero-value Transport caps idle connections at 2
	// per host — the classic fan-out bottleneck: past two concurrent
	// workers, every extra request pays a fresh TCP handshake. 0 uses
	// 64. Ignored when Transport is set.
	PoolSize int
	// Transport overrides the HTTP transport (tests, or sharing one
	// pool across clients). Nil builds a pooled transport sized by
	// PoolSize.
	Transport http.RoundTripper
	// Trace, when non-nil, counts retries (gram.client.retries),
	// attempt timeouts (gram.client.timeouts) and BUSY shed responses
	// observed (gram.client.busy), plus the breaker transitions
	// documented in breaker.go (gram.breaker.*).
	Trace *obs.Trace
}

// Client submits and cancels jobs through a middleware endpoint.
type Client struct {
	base string
	http *http.Client
	opt  ClientOptions
	seq  atomic.Int64
	name string
	// nonce makes message IDs unique per client INSTANCE: the ID is
	// the service's idempotency key, and two clients sharing a sender
	// name (or one recreated after a crash) must not collide on
	// "<sender>-1" and replay each other's responses.
	nonce uint64

	breaker *breaker

	cRetries  *obs.Counter
	cTimeouts *obs.Counter
	cBusy     *obs.Counter
}

// NewClient builds a client with default options: 30 s per-attempt
// timeout, no retries — the behavior callers of the original
// fixed-timeout client got.
func NewClient(baseURL, sender string) *Client {
	return NewClientOptions(baseURL, sender, ClientOptions{})
}

// NewClientOptions builds a client with explicit options.
func NewClientOptions(baseURL, sender string, opt ClientOptions) *Client {
	if opt.Timeout <= 0 {
		opt.Timeout = 30 * time.Second
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = 100 * time.Millisecond
	}
	if opt.RetryMax <= 0 {
		opt.RetryMax = 5 * time.Second
	}
	if opt.Jitter == nil {
		opt.Jitter = rand.Float64
	}
	if opt.PoolSize <= 0 {
		opt.PoolSize = 64
	}
	transport := opt.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        opt.PoolSize,
			MaxIdleConnsPerHost: opt.PoolSize,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Client{
		base:  baseURL,
		http:  &http.Client{Timeout: opt.Timeout, Transport: transport},
		opt:   opt,
		name:  sender,
		nonce: rand.Uint64(),
	}
	c.breaker = newBreaker(opt.Breaker, opt.Now, opt.Trace)
	if tr := opt.Trace; tr != nil {
		c.cRetries = tr.Counter("gram.client.retries")
		c.cTimeouts = tr.Counter("gram.client.timeouts")
		c.cBusy = tr.Counter("gram.client.busy")
	}
	return c
}

// BreakerState reports the circuit breaker's current state for
// diagnostics: "closed", "open", "half-open", or "disabled".
func (c *Client) BreakerState() string { return c.breaker.State() }

// backoff returns the jittered exponential backoff before retry
// attempt n (1-based): base*2^(n-1) capped at RetryMax, spread over
// [d/2, d).
func (c *Client) backoff(n int) time.Duration {
	d := c.opt.RetryBase << uint(n-1)
	if d <= 0 || d > c.opt.RetryMax {
		d = c.opt.RetryMax
	}
	return d/2 + time.Duration(c.opt.Jitter()*float64(d/2))
}

// sleep waits out a backoff, or returns early with the context's error
// if the caller gives up first — a canceled call must not sit out a
// multi-second backoff before noticing. An injected Sleep (fake clock)
// runs to completion, then the context is still checked.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.opt.Sleep != nil {
		c.opt.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// call runs one operation with retries. The envelope — and with it
// the MessageID — is built once, before the retry loop: the message
// ID doubles as the idempotency key, so a retried submit whose first
// attempt actually reached the service is deduplicated there instead
// of double-enqueueing.
func (c *Client) call(ctx context.Context, body Body) (*Response, error) {
	env := &Envelope{
		Header: Header{
			MessageID: c.mintID(),
			Sender:    c.name,
		},
		Body: body,
	}
	raw, err := Marshal(env)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.cRetries.Inc()
			if err := c.sleep(ctx, c.backoff(attempt)); err != nil {
				return nil, &TransportError{Op: "post", Err: err}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, &TransportError{Op: "post", Err: err}
		}
		// The breaker gates every attempt: while open, calls fail fast
		// with ErrCircuitOpen instead of burning a timeout against a
		// dead endpoint. ErrCircuitOpen is final for this call — retry
		// loops spinning on an open breaker would defeat its purpose.
		if err := c.breaker.allow(); err != nil {
			return nil, err
		}
		resp, err := c.attempt(ctx, raw)
		c.breaker.report(err)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var te *TransportError
		if errors.As(err, &te) && te.Timeout() {
			c.cTimeouts.Inc()
		}
		if errors.Is(err, ErrBusy) {
			c.cBusy.Inc()
		}
		if attempt >= c.opt.Retries || !retryable(err) {
			return nil, lastErr
		}
	}
}

// attempt performs one HTTP exchange.
func (c *Client) attempt(ctx context.Context, raw []byte) (*Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/gram", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/xml")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, &TransportError{Op: "post", Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &TransportError{Op: "read response", Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	r, err := parseResponse(string(data))
	if err != nil {
		return nil, &DecodeError{Err: err}
	}
	if !r.OK {
		return nil, &ServiceError{Reason: r.Error}
	}
	return r, nil
}

// Submit sends a SubmitJob operation and returns the job ID.
func (c *Client) Submit(name string, nodes int, walltime time.Duration) (int64, error) {
	return c.SubmitContext(context.Background(), name, nodes, walltime)
}

// SubmitContext is Submit bounded by a caller context, which cancels
// in-flight attempts and remaining retries.
func (c *Client) SubmitContext(ctx context.Context, name string, nodes int, walltime time.Duration) (int64, error) {
	r, err := c.call(ctx, Body{Submit: &SubmitJob{
		Name: name, Nodes: nodes, Walltime: walltime.Seconds(),
		Arguments: []string{"--input", "data.bin"},
	}})
	if err != nil {
		return 0, err
	}
	return r.JobID, nil
}

// Cancel sends a CancelJob operation.
func (c *Client) Cancel(id int64) error {
	return c.CancelContext(context.Background(), id)
}

// CancelContext is Cancel bounded by a caller context.
func (c *Client) CancelContext(ctx context.Context, id int64) error {
	_, err := c.call(ctx, Body{Cancel: &CancelJob{JobID: id}})
	return err
}

// Stat queries daemon state through the middleware.
func (c *Client) Stat() (queued, running, free int, err error) {
	return c.StatContext(context.Background())
}

// StatContext is Stat bounded by a caller context.
func (c *Client) StatContext(ctx context.Context) (queued, running, free int, err error) {
	r, err := c.call(ctx, Body{Status: &JobStatus{}})
	if err != nil {
		return 0, 0, 0, err
	}
	return r.Queued, r.Running, r.Free, nil
}

// Warm pre-opens n keep-alive connections to the endpoint so the
// first burst of real traffic finds a hot pool instead of paying n
// TCP handshakes at once. Each prober holds its response body open
// until all n connections exist — otherwise the pool would satisfy
// every probe from one recycled connection.
func (c *Client) Warm(ctx context.Context, n int) error {
	if n < 1 {
		return nil
	}
	var (
		wg   sync.WaitGroup
		hold sync.WaitGroup
		werr atomic.Pointer[error]
	)
	hold.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
			if err != nil {
				werr.CompareAndSwap(nil, &err)
				hold.Done()
				return
			}
			resp, err := c.http.Do(req)
			if err != nil {
				e := error(&TransportError{Op: "warm", Err: err})
				werr.CompareAndSwap(nil, &e)
				hold.Done()
				return
			}
			hold.Done()
			hold.Wait()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if p := werr.Load(); p != nil {
		return *p
	}
	return nil
}

// BatchJob describes one submission inside a SubmitBatch call.
type BatchJob struct {
	Name     string
	Nodes    int
	Walltime time.Duration
}

// Err converts one batch entry's outcome into the error the
// equivalent single-operation call would have returned: ErrBusy or
// ErrLate for shed entries, a ServiceError for failures, nil for
// success.
func (r BatchResult) Err() error {
	switch r.Shed {
	case "busy":
		return ErrBusy
	case "late":
		return ErrLate
	}
	if !r.OK {
		return &ServiceError{Reason: r.Error}
	}
	return nil
}

// mintID returns a fresh "<sender>-<nonce in hex>-<seq>" key, the
// MessageID of an envelope or the OpID of a batch entry. Keys are
// unique per client instance so retried batches deduplicate at the
// service without colliding across clients.
func (c *Client) mintID() string {
	var buf [64]byte
	b := append(append(buf[:0], c.name...), '-')
	b = append(strconv.AppendUint(b, c.nonce, 16), '-')
	return string(strconv.AppendInt(b, c.seq.Add(1), 10))
}

// SubmitBatch submits n jobs in one round trip — the r-way redundant
// fan-out of the paper collapsed into a single envelope. The reply is
// one BatchResult per job, in order; inspect each with Err. OpIDs are
// minted before the retry loop, so a retried batch replays entries
// that landed and re-attempts only the ones that were shed.
func (c *Client) SubmitBatch(jobs []BatchJob) ([]BatchResult, error) {
	return c.SubmitBatchContext(context.Background(), jobs)
}

// SubmitBatchContext is SubmitBatch bounded by a caller context.
func (c *Client) SubmitBatchContext(ctx context.Context, jobs []BatchJob) ([]BatchResult, error) {
	ops := make([]SubmitJob, len(jobs))
	for i, j := range jobs {
		ops[i] = SubmitJob{
			OpID: c.mintID(),
			Name: j.Name, Nodes: j.Nodes, Walltime: j.Walltime.Seconds(),
			Arguments: []string{"--input", "data.bin"},
		}
	}
	r, err := c.call(ctx, Body{SubmitBatch: &SubmitBatch{Jobs: ops}})
	if err != nil {
		return nil, err
	}
	if len(r.Batch) != len(jobs) {
		return nil, &DecodeError{Err: fmt.Errorf("middleware: batch answered %d results for %d operations", len(r.Batch), len(jobs))}
	}
	return r.Batch, nil
}

// CancelBatch withdraws n jobs in one round trip (the loser-cancel
// side of a redundant submit), with the same per-entry status and
// idempotency contract as SubmitBatch.
func (c *Client) CancelBatch(ids []int64) ([]BatchResult, error) {
	return c.CancelBatchContext(context.Background(), ids)
}

// CancelBatchContext is CancelBatch bounded by a caller context.
func (c *Client) CancelBatchContext(ctx context.Context, ids []int64) ([]BatchResult, error) {
	ops := make([]CancelJob, len(ids))
	for i, id := range ids {
		ops[i] = CancelJob{OpID: c.mintID(), JobID: id}
	}
	r, err := c.call(ctx, Body{CancelBatch: &CancelBatch{Ops: ops}})
	if err != nil {
		return nil, err
	}
	if len(r.Batch) != len(ids) {
		return nil, &DecodeError{Err: fmt.Errorf("middleware: batch answered %d results for %d operations", len(r.Batch), len(ids))}
	}
	return r.Batch, nil
}

// Pair is the unit of work of the paper's load measurements (Section
// 4.2, Figure 5): submit one one-node job and cancel it again, two
// transactions through the full stack.
func (c *Client) Pair(ctx context.Context) error {
	id, err := c.SubmitContext(ctx, "pair", 1, time.Hour)
	if err != nil {
		return err
	}
	return c.CancelContext(ctx, id)
}

// BatchPair is Pair for an r-way redundant request in two round trips:
// all copies submitted in one SubmitBatch envelope, then every copy
// that landed canceled in one CancelBatch envelope. It fails with the
// first entry error when no copy landed or a cancel was refused.
func (c *Client) BatchPair(ctx context.Context, copies int) error {
	jobs := make([]BatchJob, copies)
	for i := range jobs {
		jobs[i] = BatchJob{Name: "pair", Nodes: 1, Walltime: time.Hour}
	}
	subs, err := c.SubmitBatchContext(ctx, jobs)
	if err != nil {
		return err
	}
	ids := make([]int64, 0, len(subs))
	var firstErr error
	for _, r := range subs {
		if e := r.Err(); e == nil {
			ids = append(ids, r.JobID)
		} else if firstErr == nil {
			firstErr = e
		}
	}
	if len(ids) == 0 {
		return firstErr
	}
	cans, err := c.CancelBatchContext(ctx, ids)
	if err != nil {
		return err
	}
	for _, r := range cans {
		if e := r.Err(); e != nil {
			return e
		}
	}
	return nil
}
