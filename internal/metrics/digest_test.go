package metrics

import (
	"cmp"
	"slices"
	"testing"

	"redreq/internal/core"
	"redreq/internal/sched"
	"redreq/internal/stats"
	"redreq/internal/workload"
)

func percentileOracle(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

func digestConfig() core.Config {
	clusters := make([]core.ClusterSpec, 6)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: 32}
	}
	return core.Config{
		Clusters:          clusters,
		Alg:               sched.EASY,
		Scheme:            core.SchemeR2,
		RedundantFraction: 1,
		Routing:           core.RouteUniform,
		Seed:              17,
		Horizon:           900,
		EstMode:           workload.Exact,
		TargetLoad:        1.0,
		ControlLatency:    20,
	}
}

// digestOf feeds recs to a fresh DigestCollector in order and returns
// the merged summary's fingerprint.
func digestOf(recs []*core.JobRecord) []float64 {
	dc := NewDigestCollector(0, nil)
	for _, r := range recs {
		dc.Observe(r)
	}
	g := dc.Digest()
	return g.Fingerprint()
}

// TestDigestInterleaveInvariant holds the collector to its ordering
// promise: only the order of records within one home cluster may
// matter. One run's records fed home cluster by home cluster (the order
// of Result.Jobs), in global arrival order, and round-robin across home
// clusters give the same fingerprint.
func TestDigestInterleaveInvariant(t *testing.T) {
	res, err := core.Run(digestConfig())
	if err != nil {
		t.Fatal(err)
	}
	byHome := make([]*core.JobRecord, len(res.Jobs))
	homes := make([][]*core.JobRecord, len(res.Clusters))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		byHome[i] = j
		homes[j.Home] = append(homes[j.Home], j)
	}
	arrival := slices.Clone(byHome)
	slices.SortStableFunc(arrival, func(a, b *core.JobRecord) int { return cmp.Compare(a.Submit, b.Submit) })
	var roundRobin []*core.JobRecord
	for k := 0; len(roundRobin) < len(byHome); k++ {
		for _, h := range homes {
			if k < len(h) {
				roundRobin = append(roundRobin, h[k])
			}
		}
	}
	if slices.Equal(arrival, byHome) {
		t.Fatal("arrival order equals home order: the run does not interleave its clusters")
	}
	want := digestOf(byHome)
	for name, order := range map[string][]*core.JobRecord{"arrival": arrival, "round-robin": roundRobin} {
		if got := digestOf(order); !slices.Equal(got, want) {
			t.Errorf("%s order: fingerprint %v, home order %v", name, got, want)
		}
	}
}

func TestDigestMatchesRetainedRecords(t *testing.T) {
	cfg := digestConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDigestCollector(0, nil)
	for i := range res.Jobs {
		dc.Observe(&res.Jobs[i])
	}
	g := dc.Digest()
	if g.Jobs != uint64(len(res.Jobs)) {
		t.Fatalf("digested %d jobs, want %d", g.Jobs, len(res.Jobs))
	}
	// Quantiles must bracket the exact percentiles within alpha.
	xs := Stretches(res.Jobs, nil)
	for _, p := range []float64{50, 90, 99} {
		got := g.Stretch.Quantile(p)
		exact := percentileOracle(xs, p)
		if got < exact*(1-2*DigestAlpha) || got > exact*(1+2*DigestAlpha) {
			t.Fatalf("stretch p%v = %v, exact %v (alpha %v)", p, got, exact, DigestAlpha)
		}
	}
	// A filter restricts the stream.
	fc := NewDigestCollector(0, RedundantOnly)
	for i := range res.Jobs {
		fc.Observe(&res.Jobs[i])
	}
	fg := fc.Digest()
	if fg.Jobs != fg.Redundant {
		t.Fatalf("filtered digest saw %d jobs but %d redundant", fg.Jobs, fg.Redundant)
	}
}
