// Run memoization: experiment matrices repeat identical (config, seed)
// runs — the NONE baseline alone recurs across table1, table2, fig4,
// inflate, loadsweep, and faults — and Run is deterministic in its
// Config, so each distinct fingerprint needs to execute exactly once
// per process. Memo provides that with single-flight semantics. It
// keeps what the caller reduced each run to, never the Result: the
// goroutine that ran the simulation builds the summary, and the
// Result's job records become garbage as soon as it has. Memo also
// owns the stream cache the engine uses underneath, so even distinct
// configs on paired seeds share their generated job streams.

package core

import (
	"sync"

	"redreq/internal/obs"
	"redreq/internal/workload"
)

// memoKey identifies one cached run. Traced and untraced runs are
// kept apart even though their summaries are identical: a traced
// entry must also retain the run's private trace for replay on hits,
// and an untraced caller should never pay for one.
type memoKey struct {
	fp     Fingerprint
	traced bool
}

// memoEntry is one cached (possibly in-flight) run. ready is closed
// once val/err/trace are valid.
type memoEntry struct {
	ready chan struct{}
	val   any
	err   error
	trace *obs.Trace
}

func (e *memoEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Memo is a single-flight cache of per-run summaries keyed by
// Config.Fingerprint (see RunCached). Concurrent requests for one
// fingerprint block until the first finishes; completed summaries are
// shared read-only. Entries are small and never evicted. Safe for
// concurrent use; a nil Memo runs everything directly.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry

	workloads *workload.StreamCache

	hit, miss, inflight obs.Counter
}

// NewMemo returns an empty cache with its own stream cache.
func NewMemo() *Memo {
	return &Memo{
		entries:   make(map[memoKey]*memoEntry),
		workloads: workload.NewStreamCache(),
	}
}

// RunCached returns summarize applied to the Result of cfg, executing
// cfg at most once per fingerprint across all callers of m; later
// callers receive the summary the first one built. The key is the
// config alone, so every caller of one Memo must pass a summarize of
// the same type T and the same meaning. Configs with explicit Streams
// bypass the cache (their content is not fingerprinted), as does a
// nil m. On a traced hit the cached run's trace is merged into
// cfg.Trace, so aggregate traces look exactly as if the run had
// executed again.
func RunCached[T any](m *Memo, cfg Config, summarize func(*Result) T) (T, error) {
	var zero T
	if m == nil || cfg.Streams != nil {
		res, err := Run(cfg)
		if err != nil {
			return zero, err
		}
		return summarize(res), nil
	}
	v, err := m.run(cfg, func(res *Result) any { return summarize(res) })
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// run is RunCached's untyped single-flight body.
func (m *Memo) run(cfg Config, summarize func(*Result) any) (any, error) {
	key := memoKey{fp: cfg.Fingerprint(), traced: cfg.Trace != nil}

	m.mu.Lock()
	if e := m.entries[key]; e != nil {
		if e.done() {
			m.hit.Inc()
		} else {
			m.inflight.Inc()
		}
		m.mu.Unlock()
		<-e.ready
		if key.traced && e.err == nil {
			cfg.Trace.Merge(e.trace)
		}
		return e.val, e.err
	}
	// Failed entries stay too, so a persistently bad config does not
	// re-run per request.
	e := &memoEntry{ready: make(chan struct{})}
	m.entries[key] = e
	m.miss.Inc()
	m.mu.Unlock()

	// Run with a private trace so the cached trace holds exactly this
	// run's internals, independent of whatever the first caller does
	// with its own trace afterwards.
	run := cfg
	run.Workloads = m.workloads
	if key.traced {
		run.Trace = obs.New()
	}
	res, err := Run(run)
	if err == nil {
		e.val = summarize(res)
	}
	e.err = err
	if key.traced {
		e.trace = run.Trace
	}
	close(e.ready)

	if key.traced && e.err == nil {
		cfg.Trace.Merge(e.trace)
	}
	return e.val, e.err
}

// MemoStats are the cache's counters so far.
type MemoStats struct {
	// Hit counts requests served from a completed entry; Inflight
	// counts requests that waited on a computation another caller had
	// already started (the config still ran only once); Miss counts
	// computations actually executed.
	Hit, Miss, Inflight int64
	// Entries is the number of cached runs, in flight or done.
	Entries int
	// StreamHit and StreamMiss are the underlying workload stream
	// cache's counters.
	StreamHit, StreamMiss int64
}

// Stats returns a snapshot of the cache counters.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	entries := len(m.entries)
	m.mu.Unlock()
	sh, sm := m.workloads.Stats()
	return MemoStats{
		Hit:       m.hit.Value(),
		Miss:      m.miss.Value(),
		Inflight:  m.inflight.Value(),
		Entries:   entries,
		StreamHit: sh, StreamMiss: sm,
	}
}

// Publish adds the cache.result.{hit,miss,inflight} counters (and the
// stream cache's cache.workload.* counters) to the trace.
func (m *Memo) Publish(tr *obs.Trace) {
	if m == nil {
		return
	}
	tr.Counter("cache.result.hit").Add(m.hit.Value())
	tr.Counter("cache.result.miss").Add(m.miss.Value())
	tr.Counter("cache.result.inflight").Add(m.inflight.Value())
	m.workloads.Publish(tr)
}
