package core

import (
	"fmt"
	"testing"

	"redreq/internal/fault"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

type lifecycleCase struct {
	name string
	cfg  Config
}

// lifecycleConfigs are the run shapes that exercise each part of a
// job's lifecycle: redundant fan-out and cancels, informed routing,
// control latency, faults, queue orderings and predictions, on ten
// 128-node clusters at load 0.9 over two hours of arrivals.
func lifecycleConfigs() []lifecycleCase {
	base := func(alg sched.Algorithm, scheme Scheme) Config {
		clusters := make([]ClusterSpec, 10)
		for i := range clusters {
			clusters[i] = ClusterSpec{Nodes: 128}
		}
		return Config{
			Clusters:          clusters,
			Alg:               alg,
			Scheme:            scheme,
			RedundantFraction: 1,
			Seed:              7,
			Horizon:           7200,
			EstMode:           workload.Exact,
			TargetLoad:        0.9,
		}
	}
	with := func(c Config, f func(*Config)) Config {
		f(&c)
		return c
	}
	return []lifecycleCase{
		{"easy-all", base(sched.EASY, SchemeAll)},
		{"cbf-none-phi", with(base(sched.CBF, SchemeNone), func(c *Config) {
			c.EstMode = workload.Phi
		})},
		{"r3-biased", with(base(sched.EASY, SchemeR3), func(c *Config) {
			c.Routing = RouteBiased
		})},
		{"r2-queuelen-latency", with(base(sched.EASY, SchemeR2), func(c *Config) {
			c.Routing = RouteLeastQueue
			c.ControlLatency = 60
			c.Staleness = 300
		})},
		{"r3-po2-live", with(base(sched.EASY, SchemeR3), func(c *Config) {
			c.Routing = RoutePowerTwo
			c.Staleness = -1
		})},
		{"r3-faults", with(base(sched.EASY, SchemeR3), func(c *Config) {
			c.Faults = &fault.Plan{SubmitLoss: 0.1, CancelLoss: 0.1, SubmitDelayMean: 30, CancelDelayMean: 30}
		})},
		{"r2-sjf", with(base(sched.EASY, SchemeR2), func(c *Config) {
			c.Ordering = sched.OrderSJF
		})},
		{"r2-aged-predict", with(base(sched.EASY, SchemeR2), func(c *Config) {
			c.Ordering = sched.OrderAged
			c.Predict = true
		})},
		{"cbf-all-predict", with(base(sched.CBF, SchemeAll), func(c *Config) {
			c.Predict = true
		})},
	}
}

// lifecycleConfig returns the lifecycle configuration of that name.
func lifecycleConfig(t *testing.T, name string) Config {
	for _, c := range lifecycleConfigs() {
		if c.name == name {
			return c.cfg
		}
	}
	t.Fatalf("no lifecycle configuration %q", name)
	return Config{}
}

// TestRetiredJobsHoldNoState runs every lifecycle configuration, plus
// faults under control latency with outages and runs stopped at the
// horizon, once as is and once with every retired Request and grid job
// poisoned. A job retires when its last copy and its last control
// message are gone; if anything still read its state after that, the
// poisoned run's Result would differ.
func TestRetiredJobsHoldNoState(t *testing.T) {
	faults := &fault.Plan{
		SubmitLoss: 0.1, CancelLoss: 0.1, SubmitDelayMean: 30, CancelDelayMean: 30,
		Outages: []fault.Outage{{Cluster: 2, Start: 1000, End: 2500}, {Cluster: -1, Start: 4000, End: 4300}},
	}
	latentStopped := lifecycleConfig(t, "r2-aged-predict")
	latentStopped.ControlLatency, latentStopped.StopAtHorizon = 60, true
	faultsLatent := lifecycleConfig(t, "r3-faults")
	faultsLatent.Faults, faultsLatent.ControlLatency, faultsLatent.Predict = faults, 30, true
	faultsStopped := lifecycleConfig(t, "r3-faults")
	faultsStopped.Faults, faultsStopped.StopAtHorizon = faults, true
	cases := append(lifecycleConfigs(),
		lifecycleCase{"r2-aged-predict-latency-stop", latentStopped},
		lifecycleCase{"r3-faults-outages-latency-predict", faultsLatent},
		lifecycleCase{"r3-faults-outages-stop", faultsStopped})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := RunRetiring(tc.cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RunRetiring(tc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d jobs recorded, %d unfinished, %d overruns, %d orphans",
				len(want.Jobs), want.Unfinished, want.Overruns.Starts, want.Faults.OrphanStarts)
			if len(got.Jobs) != len(want.Jobs) {
				t.Fatalf("poisoned run recorded %d jobs, want %d", len(got.Jobs), len(want.Jobs))
			}
			for i := range want.Jobs {
				if g, w := resultText(got.Jobs[i]), resultText(want.Jobs[i]); g != w {
					t.Fatalf("job %d differs under poisoning:\n got  %s\n want %s", i, g, w)
				}
			}
			want.Jobs, got.Jobs = nil, nil
			if g, w := resultText(*got), resultText(*want); g != w {
				t.Fatalf("result differs under poisoning:\n got  %s\n want %s", g, w)
			}
		})
	}
}

// resultText prints v with every float in the shortest form that
// parses back to the same value, so equal texts mean bit-equal floats
// (NaN payloads aside).
func resultText(v any) string { return fmt.Sprintf("%+v", v) }

// TestWorkingSetIsJobsInSystem holds a run's per-job state to the jobs
// in the system: under EASY and ALL at load 0.9 each job places ten
// copies and cancels nine almost at once, and retired jobs hand their
// Requests to later ones, so the engine creates a small fraction of the
// Requests it submits.
func TestWorkingSetIsJobsInSystem(t *testing.T) {
	res, made, err := RunRetiring(lifecycleConfig(t, "easy-all"), false)
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, c := range res.Clusters {
		submitted += c.Stats.Submitted
	}
	t.Logf("%d jobs, %d copies submitted, %d Requests created (%.1f%%)",
		len(res.Jobs), submitted, made, 100*float64(made)/float64(submitted))
	if made*5 > submitted {
		t.Errorf("engine created %d Requests for %d submitted copies, want at most 1/5 as many", made, submitted)
	}
}
