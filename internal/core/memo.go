// Whole-result memoization: experiment matrices repeat identical
// (config, seed) runs — the NONE baseline alone recurs across table1,
// table2, fig4, inflate, loadsweep, and faults — and Run is
// deterministic in its Config, so each distinct fingerprint needs to
// execute exactly once per process. Memo provides that with
// single-flight semantics and owns the stream cache the engine uses
// underneath, so even distinct configs on paired seeds share their
// generated job streams.

package core

import (
	"sync"

	"redreq/internal/obs"
	"redreq/internal/workload"
)

// memoMaxJobs bounds the cache by total retained JobRecords (the
// dominant memory of a Result) rather than entry count, since results
// vary from hundreds to hundreds of thousands of jobs. At roughly 100
// bytes per record the default caps retained results near 200 MB.
// Overridable in tests.
var memoMaxJobs = 2 << 20

// memoKey identifies one cached run. Traced and untraced runs are
// kept apart even though their Results are identical: a traced entry
// must also retain the run's private trace for replay on hits, and an
// untraced caller should never pay for one.
type memoKey struct {
	fp     Fingerprint
	traced bool
}

// memoEntry is one cached (possibly in-flight) run. ready is closed
// once res/err/trace are valid.
type memoEntry struct {
	ready chan struct{}
	res   *Result
	err   error
	trace *obs.Trace
	jobs  int
}

func (e *memoEntry) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Memo is a single-flight whole-Result cache keyed by
// Config.Fingerprint. Concurrent requests for one fingerprint block
// until the first finishes; completed results are shared read-only
// (every consumer in this repo only reads Results). Entries are
// evicted oldest-first once the retained job records exceed
// memoMaxJobs. Safe for concurrent use; a nil Memo runs everything
// directly.
type Memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	order   []memoKey
	jobs    int

	workloads *workload.StreamCache

	hit, miss, inflight obs.Counter
}

// NewMemo returns an empty result cache with its own stream cache.
func NewMemo() *Memo {
	return &Memo{
		entries:   make(map[memoKey]*memoEntry),
		workloads: workload.NewStreamCache(),
	}
}

// Run returns the Result for cfg, executing it at most once per
// fingerprint across all callers. Configs with explicit Streams
// bypass the cache (their content is not fingerprinted), as does a
// nil receiver. On a traced hit the cached run's trace is merged into
// cfg.Trace, so aggregate traces look exactly as if the run had
// executed again.
func (m *Memo) Run(cfg Config) (*Result, error) {
	if m == nil || cfg.Streams != nil {
		return Run(cfg)
	}
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
		return e.res, e.err
	}
	e := &memoEntry{ready: make(chan struct{})}
	m.entries[key] = e
	m.order = append(m.order, key)
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
	e.res, e.err = Run(run)
	if key.traced {
		e.trace = run.Trace
	}
	if e.res != nil {
		e.jobs = len(e.res.Jobs)
	}
	// Charge the entry before publishing it: an entry only becomes
	// evictable once done, so storing first keeps a concurrent store's
	// eviction scan from uncharging an entry that was never charged.
	m.store(e)
	close(e.ready)

	if key.traced && e.err == nil {
		cfg.Trace.Merge(e.trace)
	}
	return e.res, e.err
}

// store charges the completed entry against the size budget and
// evicts oldest-first until the budget holds again. In-flight entries
// and the entry just stored are never evicted; failed entries are
// kept (they hold no jobs) so a persistently bad config does not
// re-run per request.
func (m *Memo) store(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs += e.jobs
	for m.jobs > memoMaxJobs {
		idx := -1
		for i, k := range m.order {
			old := m.entries[k]
			if old == nil || (old != e && old.done()) {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		k := m.order[idx]
		if old := m.entries[k]; old != nil {
			delete(m.entries, k)
			m.jobs -= old.jobs
		}
		m.order = append(m.order[:idx], m.order[idx+1:]...)
	}
}

// MemoStats are the cache's counters so far.
type MemoStats struct {
	// Hit counts requests served from a completed entry; Inflight
	// counts requests that waited on a computation another caller had
	// already started (the config still ran only once); Miss counts
	// computations actually executed.
	Hit, Miss, Inflight int64
	// Entries and Jobs describe current retention.
	Entries, Jobs int
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
	entries, jobs := len(m.entries), m.jobs
	m.mu.Unlock()
	sh, sm := m.workloads.Stats()
	return MemoStats{
		Hit:       m.hit.Value(),
		Miss:      m.miss.Value(),
		Inflight:  m.inflight.Value(),
		Entries:   entries,
		Jobs:      jobs,
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
