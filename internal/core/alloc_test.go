//go:build !race

// The race detector instruments allocations of its own, so the
// allocation budget is checked only in ordinary builds.

package core

import "testing"

// TestRunAllocationsPerJob holds the job lifecycle to its contract:
// no heap allocation per job or per control message. What a run still
// allocates is per-run growth — the chunks its free lists and the
// simulation's events are carved from, queue slices, the job stream,
// the result — which over a ~14 K-job run on 10 x 128 nodes comes to
// well under a quarter of an allocation per job. One
// allocation per job anywhere in arrival, routing, messaging or
// ordering breaks the budget on the configurations that exercise it.
func TestRunAllocationsPerJob(t *testing.T) {
	const budget = 0.25
	for _, tc := range lifecycleConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			var jobs int
			// AllocsPerRun runs once to warm the calibration cache,
			// then counts the mallocs of one run.
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
