//go:build !race

// The race detector instruments allocations of its own, so the
// allocation budget is checked only in ordinary builds.

package core

import (
	"testing"

	"redreq/internal/fault"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// TestRunAllocationsPerJob holds the job lifecycle to its contract:
// no heap allocation per job or per control message. What a run still
// allocates is per-run growth — slab chunks, queue and event slices,
// the job stream, the result — which over a ~14 K-job run on 10 x 128
// nodes comes to well under a quarter of an allocation per job. One
// allocation per job anywhere in arrival, routing, messaging or
// ordering breaks the budget on the configurations that exercise it.
func TestRunAllocationsPerJob(t *testing.T) {
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
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"easy-all", func() Config { return base(sched.EASY, SchemeAll) }},
		{"cbf-none-phi", func() Config {
			c := base(sched.CBF, SchemeNone)
			c.EstMode = workload.Phi
			return c
		}},
		{"r3-biased", func() Config {
			c := base(sched.EASY, SchemeR3)
			c.Routing = RouteBiased
			return c
		}},
		{"r2-queuelen-latency", func() Config {
			c := base(sched.EASY, SchemeR2)
			c.Routing = RouteLeastQueue
			c.ControlLatency = 60
			c.Staleness = 300
			return c
		}},
		{"r3-po2-live", func() Config {
			c := base(sched.EASY, SchemeR3)
			c.Routing = RoutePowerTwo
			c.Staleness = -1
			return c
		}},
		{"r3-faults", func() Config {
			c := base(sched.EASY, SchemeR3)
			c.Faults = &fault.Plan{SubmitLoss: 0.1, CancelLoss: 0.1, SubmitDelayMean: 30, CancelDelayMean: 30}
			return c
		}},
		{"r2-sjf", func() Config {
			c := base(sched.EASY, SchemeR2)
			c.Ordering = sched.OrderSJF
			return c
		}},
		{"r2-aged-predict", func() Config {
			c := base(sched.EASY, SchemeR2)
			c.Ordering = sched.OrderAged
			c.Predict = true
			return c
		}},
		{"cbf-all-predict", func() Config {
			c := base(sched.CBF, SchemeAll)
			c.Predict = true
			return c
		}},
	}
	const budget = 0.25
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			var jobs int
			// AllocsPerRun runs once to warm the slab pools and the
			// calibration cache, then counts the mallocs of one run.
			mallocs := testing.AllocsPerRun(1, func() {
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				jobs = len(res.Jobs)
			})
			perJob := mallocs / float64(jobs)
			t.Logf("%d jobs, %.0f mallocs, %.3f per job", jobs, mallocs, perJob)
			if perJob > budget {
				t.Errorf("%.3f mallocs per job (%.0f over %d jobs), want <= %v", perJob, mallocs, jobs, budget)
			}
		})
	}
}
