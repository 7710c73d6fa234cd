package invariant

import (
	"strings"
	"testing"

	"redreq/internal/core"
	"redreq/internal/sched"
)

// testConfig is a small but non-trivial run: two clusters, redundant
// requests everywhere, EASY backfilling.
func testConfig() core.Config {
	return core.Config{
		Clusters:          []core.ClusterSpec{{Nodes: 64}, {Nodes: 64}},
		Alg:               sched.EASY,
		Scheme:            core.SchemeAll,
		RedundantFraction: 1,
		Seed:              42,
		Horizon:           1800,
		TargetLoad:        0.45,
	}
}

// cleanResult runs testConfig and fails the test on error.
func cleanResult(t *testing.T) (*core.Result, Context) {
	t.Helper()
	cfg := testConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("run produced no jobs")
	}
	return res, FromConfig(&cfg)
}

func TestCleanRunPassesAllInvariants(t *testing.T) {
	res, ctx := cleanResult(t)
	if fs := Check(ctx, res); len(fs) != 0 {
		t.Fatalf("clean run produced findings:\n%v", fs)
	}
}

func TestDeterminismClean(t *testing.T) {
	if fs := CheckDeterminism(testConfig()); len(fs) != 0 {
		t.Fatalf("deterministic config diverged:\n%v", fs)
	}
}

// wantFinding asserts that Check reports at least one finding of the
// named invariant and no findings of any other kind except those listed
// in also.
func wantFinding(t *testing.T, ctx Context, res *core.Result, invariant string, also ...string) {
	t.Helper()
	fs := Check(ctx, res)
	if len(fs) == 0 {
		t.Fatalf("corrupted result passed the %s check", invariant)
	}
	ok := map[string]bool{invariant: true, "truncated": true}
	for _, a := range also {
		ok[a] = true
	}
	seen := false
	for _, f := range fs {
		if f.Invariant == invariant {
			seen = true
		}
		if !ok[f.Invariant] {
			t.Errorf("unexpected %s finding: %v", f.Invariant, f)
		}
	}
	if !seen {
		t.Fatalf("no %s finding in %v", invariant, fs)
	}
}

func TestDetectsDroppedCompletion(t *testing.T) {
	res, ctx := cleanResult(t)
	// Pretend one job never completed: its record vanishes and the
	// engine counts it unfinished. The ledger (a started request with
	// no matching winner) and liveness both trip; makespan may shift
	// too, another liveness finding.
	last := res.Jobs[len(res.Jobs)-1]
	res.Jobs = res.Jobs[:len(res.Jobs)-1]
	res.Unfinished++
	_ = last
	wantFinding(t, ctx, res, "liveness", "ledger")
}

func TestDetectsCausalityViolation(t *testing.T) {
	res, ctx := cleanResult(t)
	// A completion before its start breaks causality; the shifted span
	// also breaks the runtime identity, and the perturbed timeline can
	// break the sweep and makespan checks.
	res.Jobs[0].End = res.Jobs[0].Start - 10
	wantFinding(t, ctx, res, "causality", "liveness", "conservation", "ledger")
}

func TestDetectsCapacityOverflow(t *testing.T) {
	res, ctx := cleanResult(t)
	// Inflate one job's width beyond its cluster: causality flags the
	// impossible request, the sweep flags the overfull interval, and
	// the CPU ledger no longer balances.
	j := &res.Jobs[0]
	j.Nodes = ctx.Nodes[j.Winner] * 2
	// The inflated width also leaves the job with copies no eligible
	// cluster could hold, an eligibility finding.
	wantFinding(t, ctx, res, "capacity", "causality", "ledger", "eligibility")
}

func TestDetectsIdleWhileWork(t *testing.T) {
	res, ctx := cleanResult(t)
	// Push one job's start (and completion, keeping the span) past the
	// makespan: its cluster sits idle-with-pending-work at least from
	// the old makespan to the new start.
	j := &res.Jobs[0]
	shift := res.MakeSpan + 1000 - j.Start
	j.Start += shift
	j.End += shift
	res.MakeSpan = j.End
	wantFinding(t, ctx, res, "conservation")
}

func TestDetectsLedgerImbalance(t *testing.T) {
	res, ctx := cleanResult(t)
	// Burn node-seconds the job records cannot account for.
	res.Clusters[0].Stats.BusyCPUSeconds += 12345
	wantFinding(t, ctx, res, "ledger")
}

func TestTruncatedRunSkipsPopulationChecks(t *testing.T) {
	cfg := testConfig()
	cfg.StopAtHorizon = true
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	ctx := FromConfig(&cfg)
	if !ctx.StopAtHorizon {
		t.Fatal("context did not pick up StopAtHorizon")
	}
	if fs := Check(ctx, res); len(fs) != 0 {
		t.Fatalf("truncated run produced findings:\n%v", fs)
	}
}

func TestFindingCap(t *testing.T) {
	res, ctx := cleanResult(t)
	if len(res.Jobs) <= maxFindings {
		t.Skipf("need more than %d jobs, have %d", maxFindings, len(res.Jobs))
	}
	for i := range res.Jobs {
		res.Jobs[i].End = res.Jobs[i].Start - 1
	}
	fs := Check(ctx, res)
	if len(fs) > maxFindings+1 {
		t.Fatalf("cap leaked: %d findings", len(fs))
	}
	tail := fs[len(fs)-1]
	if tail.Invariant != "truncated" || !strings.Contains(tail.Detail, "suppressed") {
		t.Fatalf("missing truncation marker, last finding: %v", tail)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Invariant: "capacity", Job: 7, Cluster: 1, Detail: "too full"}
	if got := f.String(); got != "capacity job 7 cluster 1: too full" {
		t.Fatalf("String() = %q", got)
	}
	f = Finding{Invariant: "ledger", Job: -1, Cluster: -1, Detail: "off by one"}
	if got := f.String(); got != "ledger: off by one" {
		t.Fatalf("String() = %q", got)
	}
}

// latentConfig is testConfig under a positive control latency, which
// exercises the overrun ledger terms and the delivery-delay term of
// the conservation sweep.
func latentConfig() core.Config {
	cfg := testConfig()
	cfg.Clusters = append(cfg.Clusters, core.ClusterSpec{Nodes: 64}, core.ClusterSpec{Nodes: 64})
	cfg.ControlLatency = 60
	return cfg
}

func TestLatentRunPassesAllInvariants(t *testing.T) {
	cfg := latentConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if res.Overruns.Starts == 0 {
		t.Fatal("latency run produced no overruns; the overrun ledger terms went unexercised")
	}
	if fs := Check(FromConfig(&cfg), res); len(fs) != 0 {
		t.Fatalf("clean latency run produced findings:\n%v", fs)
	}
}

func TestLatentLedgerDetectsTampering(t *testing.T) {
	cfg := latentConfig()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	res.Overruns.Starts++
	wantFinding(t, FromConfig(&cfg), res, "ledger")
}

// informedConfig routes over the grid information service: the
// staleness audit and the routing-stats leg of the determinism
// comparison are only live under an informed policy.
func informedConfig(pol core.Routing) core.Config {
	cfg := latentConfig()
	cfg.Scheme = core.SchemeR2
	cfg.Routing = pol
	return cfg
}

func TestInformedRunPassesAllInvariants(t *testing.T) {
	for _, pol := range []core.Routing{core.RouteLeastQueue, core.RouteLeastWork, core.RoutePowerTwo} {
		cfg := informedConfig(pol)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%v: core.Run: %v", pol, err)
		}
		ctx := FromConfig(&cfg)
		if !ctx.Informed || ctx.GISInterval != 60 || ctx.GISDelay != 60 {
			t.Fatalf("%v: context %+v did not pick up the information model", pol, ctx)
		}
		if res.Routing.Decisions == 0 {
			t.Fatalf("%v: no routing decisions recorded", pol)
		}
		if fs := Check(ctx, res); len(fs) != 0 {
			t.Fatalf("%v: clean informed run produced findings:\n%v", pol, fs)
		}
	}
}

func TestDetectsStalenessOverrun(t *testing.T) {
	cfg := informedConfig(core.RouteLeastQueue)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	res.Routing.MaxAge = cfg.ControlLatency + cfg.GISInterval() + 1
	wantFinding(t, FromConfig(&cfg), res, "staleness")
}

func TestDetectsIneligibleCopies(t *testing.T) {
	res, ctx := cleanResult(t)
	// More copies than home plus eligible remotes can hold.
	res.Jobs[0].Copies = len(ctx.Nodes) + 5
	wantFinding(t, ctx, res, "eligibility", "ledger")
}

func TestDetectsMissingRedundantCopies(t *testing.T) {
	res, ctx := cleanResult(t)
	res.Jobs[0].Copies = 1
	wantFinding(t, ctx, res, "eligibility", "ledger")
}

// TestLatentDeterminism reruns the latency and informed-routing
// configurations: both reach the cancel-broadcast and GIS snapshot
// paths, whose same-instant order rests on event priorities alone.
func TestLatentDeterminism(t *testing.T) {
	cfgs := []core.Config{latentConfig()}
	for _, pol := range []core.Routing{core.RouteLeastQueue, core.RouteLeastWork, core.RoutePowerTwo} {
		cfgs = append(cfgs, informedConfig(pol))
	}
	for _, cfg := range cfgs {
		if fs := CheckDeterminism(cfg); len(fs) != 0 {
			t.Fatalf("%v routing: reruns diverged:\n%v", cfg.Routing, fs)
		}
	}
}
