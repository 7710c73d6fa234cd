package core

import (
	"math"
	"testing"

	"redreq/internal/sched"
	"redreq/internal/workload"
)

func TestStreamsReplay(t *testing.T) {
	stream := []workload.Job{
		{Arrival: 1, Nodes: 8, Runtime: 100, Estimate: 100},
		{Arrival: 2, Nodes: 32, Runtime: 50, Estimate: 80},
		{Arrival: 3, Nodes: 1, Runtime: 10, Estimate: 10},
	}
	cfg := Config{
		Clusters: []ClusterSpec{{Nodes: 32}},
		Alg:      sched.EASY,
		Scheme:   SchemeNone,
		Routing:  RouteUniform,
		Horizon:  100,
		Streams:  [][]workload.Job{stream},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("simulated %d jobs, want 3", len(res.Jobs))
	}
	// Deterministic tiny schedule: job 0 starts at 1, job 1 (needs
	// all nodes) at 101, job 2 backfills at 3.
	if res.Jobs[0].Start != 1 {
		t.Errorf("job 0 start = %v", res.Jobs[0].Start)
	}
	if res.Jobs[1].Start != 101 {
		t.Errorf("job 1 start = %v", res.Jobs[1].Start)
	}
	if res.Jobs[2].Start != 3 {
		t.Errorf("job 2 start = %v (should backfill)", res.Jobs[2].Start)
	}
}

func TestStreamsValidation(t *testing.T) {
	base := Config{
		Clusters: []ClusterSpec{{Nodes: 16}},
		Alg:      sched.EASY,
		Routing:  RouteUniform,
		Horizon:  100,
	}
	cases := [][][]workload.Job{
		{{{Arrival: 1, Nodes: 32, Runtime: 10, Estimate: 10}}}, // too wide
		{{{Arrival: 1, Nodes: 4, Runtime: 10, Estimate: 5}}},   // estimate < runtime
		{{{Arrival: -1, Nodes: 4, Runtime: 10, Estimate: 10}}}, // negative arrival
		{{}, {}}, // stream count mismatch
	}
	for i, streams := range cases {
		cfg := base
		cfg.Streams = streams
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStopAtHorizon(t *testing.T) {
	cfg := smallConfig(2, SchemeNone)
	cfg.TargetLoad = 3 // heavy overload: many jobs cannot finish
	cfg.StopAtHorizon = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished == 0 {
		t.Fatal("expected unfinished jobs under overload with a cutoff")
	}
	for i := range res.Jobs {
		if res.Jobs[i].End > cfg.Horizon {
			t.Fatalf("job %d finished at %v beyond the cutoff", i, res.Jobs[i].End)
		}
	}
}

func TestRunToCompletionHasNoUnfinished(t *testing.T) {
	res, err := Run(smallConfig(2, SchemeR2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfinished != 0 {
		t.Fatalf("run-to-completion left %d unfinished", res.Unfinished)
	}
}

func TestInflateRemoteKeepsLocalExact(t *testing.T) {
	// With StopAtHorizon the engine still validates inflated
	// estimates internally; here we check the recorded Estimate is
	// the local (uninflated) one.
	cfg := smallConfig(3, SchemeAll)
	cfg.InflateRemote = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgNo := smallConfig(3, SchemeAll)
	resNo, err := Run(cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(resNo.Jobs) {
		t.Fatal("job streams differ")
	}
	for i := range res.Jobs {
		if res.Jobs[i].Estimate != resNo.Jobs[i].Estimate {
			t.Fatalf("job %d recorded estimate changed under inflation", i)
		}
	}
}

func TestQueueLenSelectionRuns(t *testing.T) {
	cfg := smallConfig(4, SchemeR2)
	cfg.Routing = RouteLeastQueue
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("no jobs")
	}
}

func TestSchedulerAblationFlagsRun(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.DisableCancelBackfill = true },
		func(c *Config) { c.Alg = sched.CBF; c.DisableCompression = true },
		func(c *Config) { c.Alg = sched.CBF; c.CompressOnCancel = true },
		func(c *Config) { c.Alg = sched.FCFS },
	} {
		cfg := smallConfig(3, SchemeHalf)
		mod(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Jobs {
			if s := res.Jobs[i].Stretch(); s < 1 || math.IsNaN(s) {
				t.Fatalf("job %d stretch %v", i, s)
			}
		}
	}
}

func TestExplicitRuntimeScale(t *testing.T) {
	meanRuntime := func(scale float64) float64 {
		cfg := smallConfig(2, SchemeNone)
		cfg.TargetLoad = 0
		cfg.RuntimeScale = scale
		cfg.MinRuntime = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range res.Jobs {
			sum += res.Jobs[i].Runtime
		}
		return sum / float64(len(res.Jobs))
	}
	lo, hi := meanRuntime(0.001), meanRuntime(0.01)
	if hi < 2*lo {
		t.Fatalf("RuntimeScale not respected: mean runtime %v at 0.001 vs %v at 0.01", lo, hi)
	}
}

func TestTurnaroundAndWaitConsistency(t *testing.T) {
	res, err := Run(smallConfig(3, SchemeHalf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if math.Abs(j.Turnaround()-(j.Wait()+j.Runtime)) > 1e-6 {
			t.Fatalf("job %d: turnaround %v != wait %v + runtime %v", i, j.Turnaround(), j.Wait(), j.Runtime)
		}
	}
}
