package core

import (
	"math"
	"sync"
	"testing"

	"redreq/internal/fault"
	"redreq/internal/obs"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// memoTestConfig is a small but non-trivial run: two clusters, a
// redundant scheme, a few hundred jobs.
func memoTestConfig() Config {
	return Config{
		Clusters: []ClusterSpec{{Nodes: 32}, {Nodes: 32}},
		Alg:      sched.EASY, Scheme: SchemeR2, RedundantFraction: 1,
		Routing: RouteUniform, Seed: 7, Horizon: 900,
		EstMode: workload.Exact, TargetLoad: 0.45,
		MinRuntime: 30, MaxRuntime: 7200,
	}
}

// TestFingerprintSensitivity checks that the fingerprint is stable
// under copies and changes for every semantically meaningful field —
// and does not change for the excluded attachments.
func TestFingerprintSensitivity(t *testing.T) {
	base := memoTestConfig()
	fp := base.Fingerprint()
	if other := memoTestConfig(); other.Fingerprint() != fp {
		t.Fatal("identical configs produced different fingerprints")
	}

	mutations := map[string]func(*Config){
		"Clusters.Nodes":        func(c *Config) { c.Clusters = []ClusterSpec{{Nodes: 64}, {Nodes: 32}} },
		"Clusters.MeanIAT":      func(c *Config) { c.Clusters = []ClusterSpec{{Nodes: 32, MeanIAT: 9}, {Nodes: 32}} },
		"Clusters.len":          func(c *Config) { c.Clusters = c.Clusters[:1] },
		"Alg":                   func(c *Config) { c.Alg = sched.CBF },
		"Scheme":                func(c *Config) { c.Scheme = SchemeAll },
		"RedundantFraction":     func(c *Config) { c.RedundantFraction = 0.5 },
		"Routing":               func(c *Config) { c.Routing = RouteBiased },
		"Seed":                  func(c *Config) { c.Seed = 8 },
		"Horizon":               func(c *Config) { c.Horizon = 1800 },
		"EstMode":               func(c *Config) { c.EstMode = workload.Phi },
		"InflateRemote":         func(c *Config) { c.InflateRemote = 0.1 },
		"TargetLoad":            func(c *Config) { c.TargetLoad = 0.9 },
		"MinRuntime":            func(c *Config) { c.MinRuntime = 60 },
		"Predict":               func(c *Config) { c.Predict = true },
		"DisableCancelBackfill": func(c *Config) { c.DisableCancelBackfill = true },
		"DisableCompression":    func(c *Config) { c.DisableCompression = true },
		"CompressOnCancel":      func(c *Config) { c.CompressOnCancel = true },
		"RuntimeScale":          func(c *Config) { c.RuntimeScale = 2 },
		"MaxRuntime":            func(c *Config) { c.MaxRuntime = 3600 },
		"StopAtHorizon":         func(c *Config) { c.StopAtHorizon = true },
		"ControlLatency":        func(c *Config) { c.ControlLatency = 20 },
		"Faults":                func(c *Config) { c.Faults = &fault.Plan{CancelLoss: 0.5} },
		"Faults.Outages":        func(c *Config) { c.Faults = &fault.Plan{Outages: []fault.Outage{{Cluster: 0, Start: 1, End: 2}}} },
	}
	seen := map[Fingerprint]string{fp: "base"}
	for name, mutate := range mutations {
		cfg := memoTestConfig()
		mutate(&cfg)
		got := cfg.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("mutating %s collided with %s", name, prev)
		}
		seen[got] = name
	}

	// Attachments that never change the Result must not change the
	// fingerprint; an empty fault plan is equivalent to no plan.
	for name, mutate := range map[string]func(*Config){
		"Trace":        func(c *Config) { c.Trace = obs.New() },
		"Workloads":    func(c *Config) { c.Workloads = workload.NewStreamCache() },
		"empty Faults": func(c *Config) { c.Faults = &fault.Plan{} },
	} {
		cfg := memoTestConfig()
		mutate(&cfg)
		if cfg.Fingerprint() != fp {
			t.Errorf("setting %s changed the fingerprint", name)
		}
	}
}

// TestFingerprintShardInvariance checks a latent-control config keeps
// one content address however it is executed: copies and traced runs
// share its fingerprint, while the control-plane latency, which does
// change what Run computes, is part of it.
func TestFingerprintShardInvariance(t *testing.T) {
	cfg := smallConfig(4, SchemeR2)
	cfg.ControlLatency = 10
	base := cfg.Fingerprint()
	for name, mutate := range map[string]func(*Config){
		"copy":      func(c *Config) {},
		"Trace":     func(c *Config) { c.Trace = obs.New() },
		"Workloads": func(c *Config) { c.Workloads = workload.NewStreamCache() },
	} {
		c := cfg
		mutate(&c)
		if c.Fingerprint() != base {
			t.Fatalf("%s changed the fingerprint", name)
		}
	}
	c := cfg
	c.ControlLatency = 20
	if c.Fingerprint() == base {
		t.Fatal("ControlLatency did not change the fingerprint")
	}
}

// wholeResult is the identity summary: it keeps the whole Result, so
// the tests below can compare what the cache serves with a direct run
// field by field.
func wholeResult(r *Result) *Result { return r }

// TestMemoMatchesRun checks a cached result is identical to a direct
// run, and that repeats are served from cache.
func TestMemoMatchesRun(t *testing.T) {
	cfg := memoTestConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo()
	got1, err := RunCached(m, cfg, wholeResult)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := RunCached(m, cfg, wholeResult)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != got2 {
		t.Error("second Run did not return the cached *Result")
	}
	if len(got1.Jobs) != len(want.Jobs) || got1.Events != want.Events || got1.MakeSpan != want.MakeSpan {
		t.Errorf("cached result differs from direct run: %d/%d jobs, %d/%d events",
			len(got1.Jobs), len(want.Jobs), got1.Events, want.Events)
	}
	for i := range want.Jobs {
		g, w := got1.Jobs[i], want.Jobs[i]
		// Predicted is NaN when prediction is off; NaN breaks struct
		// equality, so compare it separately.
		samePred := g.Predicted == w.Predicted || (math.IsNaN(g.Predicted) && math.IsNaN(w.Predicted))
		g.Predicted, w.Predicted = 0, 0
		if g != w || !samePred {
			t.Fatalf("job %d differs: %+v vs %+v", i, got1.Jobs[i], want.Jobs[i])
		}
	}
	st := m.Stats()
	if st.Miss != 1 || st.Hit != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

// TestMemoSingleFlight hammers one config from many goroutines: the
// simulation must execute exactly once, everyone must get the same
// *Result, and inflight must account for the waiters that piled onto
// the first computation.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo()
	cfg := memoTestConfig()
	const callers = 16
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunCached(m, cfg, wholeResult)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result", i)
		}
	}
	st := m.Stats()
	if st.Miss != 1 {
		t.Errorf("config ran %d times, want exactly 1", st.Miss)
	}
	if st.Hit+st.Inflight != callers-1 {
		t.Errorf("hit(%d) + inflight(%d) = %d, want %d", st.Hit, st.Inflight, st.Hit+st.Inflight, callers-1)
	}
	if st.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Entries)
	}
}

// TestMemoTracedHit checks traced hits replay the cached run's trace:
// two traced requests observe identical counter totals.
func TestMemoTracedHit(t *testing.T) {
	m := NewMemo()
	run := func() int64 {
		cfg := memoTestConfig()
		cfg.Trace = obs.New()
		if _, err := RunCached(m, cfg, wholeResult); err != nil {
			t.Fatal(err)
		}
		for _, c := range cfg.Trace.Snapshot().Counters {
			if c.Name == "core.jobs" {
				return c.Value
			}
		}
		t.Fatal("trace has no core.jobs counter")
		return 0
	}
	first := run()
	second := run()
	if first == 0 || first != second {
		t.Errorf("traced hit replayed core.jobs=%d, first run saw %d", second, first)
	}
	if st := m.Stats(); st.Miss != 1 || st.Hit != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", st)
	}
}

// TestMemoStreamsBypass checks explicit-stream configs never touch
// the cache.
func TestMemoStreamsBypass(t *testing.T) {
	m := NewMemo()
	cfg := Config{
		Clusters: []ClusterSpec{{Nodes: 8}},
		Alg:      sched.EASY, Scheme: SchemeNone, Routing: RouteUniform,
		Horizon: 100, EstMode: workload.Exact,
		Streams: [][]workload.Job{{{Arrival: 1, Nodes: 1, Runtime: 10, Estimate: 10}}},
	}
	for i := 0; i < 2; i++ {
		if _, err := RunCached(m, cfg, wholeResult); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Hit != 0 || st.Miss != 0 || st.Entries != 0 {
		t.Errorf("explicit streams touched the cache: %+v", st)
	}
}
