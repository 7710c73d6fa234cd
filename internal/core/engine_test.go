package core

import (
	"math"
	"testing"

	"redreq/internal/sched"
	"redreq/internal/workload"
)

// smallConfig is a fast configuration for unit tests: a few clusters,
// a short submission window.
func smallConfig(n int, scheme Scheme) Config {
	clusters := make([]ClusterSpec, n)
	for i := range clusters {
		clusters[i] = ClusterSpec{Nodes: 32}
	}
	return Config{
		Clusters:          clusters,
		Alg:               sched.EASY,
		Scheme:            scheme,
		RedundantFraction: 1,
		Routing:           RouteUniform,
		Seed:              42,
		Horizon:           600, // 10 minutes of submissions
		EstMode:           workload.Exact,
		TargetLoad:        1.0,
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNone, SchemeR2, SchemeHalf, SchemeAll} {
		res, err := Run(smallConfig(4, scheme))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if len(res.Jobs) == 0 {
			t.Fatalf("%v: no jobs simulated", scheme)
		}
		for i := range res.Jobs {
			j := &res.Jobs[i]
			if j.End <= j.Start || j.Start < j.Submit {
				t.Fatalf("%v: job %d bad timeline submit=%v start=%v end=%v",
					scheme, j.ID, j.Submit, j.Start, j.End)
			}
			if s := j.Stretch(); s < 1 {
				t.Fatalf("%v: job %d stretch %v < 1", scheme, j.ID, s)
			}
			if j.Winner < 0 || j.Winner >= 4 {
				t.Fatalf("%v: job %d bad winner %d", scheme, j.ID, j.Winner)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(3, SchemeR2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		// NaN predictions compare unequal; normalize before the
		// struct comparison.
		if math.IsNaN(ja.Predicted) && math.IsNaN(jb.Predicted) {
			ja.Predicted, jb.Predicted = 0, 0
		}
		if ja != jb {
			t.Fatalf("job %d differs between identical runs:\n%+v\n%+v", i, ja, jb)
		}
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestSchemeCopies(t *testing.T) {
	cases := []struct {
		s    Scheme
		n    int
		want int
	}{
		{SchemeNone, 10, 1},
		{SchemeR2, 10, 2},
		{SchemeR3, 10, 3},
		{SchemeR4, 10, 4},
		{SchemeHalf, 10, 5},
		{SchemeHalf, 3, 2},
		{SchemeAll, 10, 10},
		{SchemeR4, 2, 2}, // clamped to platform size
		{SchemeAll, 1, 1},
	}
	for _, c := range cases {
		if got := c.s.Copies(c.n); got != c.want {
			t.Errorf("%v.Copies(%d) = %d, want %d", c.s, c.n, got, c.want)
		}
	}
}

func TestCopiesRecorded(t *testing.T) {
	cfg := smallConfig(4, SchemeAll)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Redundant {
			t.Fatalf("job %d not redundant under ALL with fraction 1", j.ID)
		}
		if j.Copies != 4 {
			t.Fatalf("job %d has %d copies, want 4", j.ID, j.Copies)
		}
	}
}

func TestRedundantFraction(t *testing.T) {
	cfg := smallConfig(4, SchemeAll)
	cfg.RedundantFraction = 0.4
	cfg.Horizon = 1800
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var red int
	for i := range res.Jobs {
		if res.Jobs[i].Redundant {
			red++
		}
	}
	frac := float64(red) / float64(len(res.Jobs))
	if frac < 0.25 || frac > 0.55 {
		t.Fatalf("redundant fraction %.2f too far from 0.4 (n=%d)", frac, len(res.Jobs))
	}
}

func TestSchemeNoneStaysLocal(t *testing.T) {
	res, err := Run(smallConfig(4, SchemeNone))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Winner != j.Home {
			t.Fatalf("job %d ran at %d but originated at %d without redundancy", j.ID, j.Winner, j.Home)
		}
		if j.Copies != 1 || j.Redundant {
			t.Fatalf("job %d has copies=%d redundant=%v under NONE", j.ID, j.Copies, j.Redundant)
		}
	}
}

func TestCancellationAccounting(t *testing.T) {
	cfg := smallConfig(4, SchemeAll)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var submitted, canceled, started int
	for _, c := range res.Clusters {
		submitted += c.Stats.Submitted
		canceled += c.Stats.Canceled
		started += c.Stats.Started
	}
	// Every request is either canceled or started (and each job
	// starts exactly once).
	if started != len(res.Jobs) {
		t.Fatalf("started %d requests, want %d (one per job)", started, len(res.Jobs))
	}
	if submitted != started+canceled {
		t.Fatalf("request accounting: submitted %d != started %d + canceled %d", submitted, started, canceled)
	}
}

func TestOverrunsOnlyWithLatency(t *testing.T) {
	cfg := smallConfig(4, SchemeAll)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overruns != (OverrunStats{}) {
		t.Fatalf("zero-latency run reported overruns: %+v", res.Overruns)
	}
	// A latency much longer than typical waits forces late losers.
	cfg.ControlLatency = 3600
	lres, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Overruns.Starts == 0 {
		t.Fatal("hour-long cancel latency produced no overruns")
	}
	if lres.Overruns.CPUSeconds <= 0 {
		t.Fatalf("overruns with non-positive CPU seconds: %+v", lres.Overruns)
	}
}

func TestHeterogeneousNodeCaps(t *testing.T) {
	cfg := Config{
		Clusters: []ClusterSpec{
			{Nodes: 16, MeanIAT: 4}, {Nodes: 256, MeanIAT: 8}, {Nodes: 64, MeanIAT: 12},
		},
		Alg: sched.EASY, Scheme: SchemeAll, RedundantFraction: 1,
		Routing: RouteUniform, Seed: 7, Horizon: 600,
		EstMode: workload.Exact, TargetLoad: 1.0,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Nodes > cfg.Clusters[j.Home].Nodes {
			t.Fatalf("job %d requests %d nodes but home cluster has %d", j.ID, j.Nodes, cfg.Clusters[j.Home].Nodes)
		}
		if j.Nodes > cfg.Clusters[j.Winner].Nodes {
			t.Fatalf("job %d ran on cluster with %d nodes but needs %d", j.ID, cfg.Clusters[j.Winner].Nodes, j.Nodes)
		}
	}
}

func TestPredictionRecorded(t *testing.T) {
	cfg := smallConfig(2, SchemeNone)
	cfg.Alg = sched.CBF
	cfg.Predict = true
	cfg.EstMode = workload.Phi
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withPred := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if math.IsNaN(j.Predicted) {
			continue
		}
		withPred++
		if j.Predicted < 0 {
			t.Fatalf("job %d negative predicted wait %v", j.ID, j.Predicted)
		}
		// CBF predictions are conservative: never below actual wait
		// (reservations only move earlier).
		if j.Predicted+1e-9 < j.Wait() {
			t.Fatalf("job %d predicted wait %v below actual %v (CBF must be conservative)",
				j.ID, j.Predicted, j.Wait())
		}
	}
	if withPred == 0 {
		t.Fatal("no predictions recorded")
	}
}

func TestInflateRemoteEstimates(t *testing.T) {
	cfg := smallConfig(4, SchemeAll)
	cfg.InflateRemote = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs still complete; winning copies on remote clusters carry
	// inflated estimates internally, which must not violate
	// estimate >= runtime anywhere (Submit would have panicked).
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	nan := math.NaN()
	bad := []Config{
		{},
		{Clusters: []ClusterSpec{{Nodes: 0}}, Horizon: 1},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 0},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, RedundantFraction: 2},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, InflateRemote: -1},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, Ordering: sched.Ordering(7)},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, Ordering: sched.OrderClass},
		// NaN slips past every comparison, +Inf past the sign checks.
		{Clusters: []ClusterSpec{{Nodes: 4, MeanIAT: nan}}, Horizon: 1},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, RedundantFraction: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, Staleness: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: math.Inf(1)},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, InflateRemote: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, TargetLoad: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, MinRuntime: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, RuntimeScale: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, MaxRuntime: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, ControlLatency: nan},
		{Clusters: []ClusterSpec{{Nodes: 4}}, Horizon: 1, ControlLatency: math.Inf(1)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d unexpectedly valid", i)
		}
	}
}
