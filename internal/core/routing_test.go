package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"redreq/internal/des"
	"redreq/internal/gis"
	"redreq/internal/rng"
	"redreq/internal/sched"
)

func routeSpecs(sizes ...int) []ClusterSpec {
	out := make([]ClusterSpec, len(sizes))
	for i, n := range sizes {
		out[i] = ClusterSpec{Nodes: n}
	}
	return out
}

// snapView builds a zero-delay snapshot view with the given queue
// lengths and queued work, published at t=0 and read at t=0.
func snapView(qlens []int, work []float64, stats *RoutingStats) *loadView {
	svc := gis.New(len(qlens), 0)
	for i, q := range qlens {
		var w float64
		if work != nil {
			w = work[i]
		}
		svc.Publish(i, 0, gis.Load{QueueLen: q, QueuedWork: w})
	}
	return &loadView{svc: svc, stats: stats}
}

func TestSelectUniformExcludesHomeAndSmall(t *testing.T) {
	specs := routeSpecs(128, 16, 128, 64, 128)
	src := rng.New(1)
	for trial := 0; trial < 2000; trial++ {
		got := selectRemotes(src, RouteUniform, specs, 0, 100, 2, nil, 0)
		if len(got) != 2 {
			t.Fatalf("got %d remotes, want 2", len(got))
		}
		for _, idx := range got {
			if idx == 0 {
				t.Fatal("home cluster selected as remote")
			}
			if specs[idx].Nodes < 100 {
				t.Fatalf("cluster %d too small for a 100-node job", idx)
			}
			// Only clusters 2 and 4 qualify.
			if idx != 2 && idx != 4 {
				t.Fatalf("unexpected cluster %d", idx)
			}
		}
		if got[0] == got[1] {
			t.Fatal("duplicate remote")
		}
	}
}

func TestSelectUniformIsUniform(t *testing.T) {
	specs := routeSpecs(64, 64, 64, 64, 64)
	src := rng.New(2)
	counts := make([]int, 5)
	const trials = 40000
	for i := 0; i < trials; i++ {
		for _, idx := range selectRemotes(src, RouteUniform, specs, 0, 1, 1, nil, 0) {
			counts[idx]++
		}
	}
	if counts[0] != 0 {
		t.Fatalf("home selected %d times", counts[0])
	}
	for i := 1; i < 5; i++ {
		frac := float64(counts[i]) / trials
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("cluster %d picked %.3f of the time, want ~0.25", i, frac)
		}
	}
}

func TestSelectBiasedGeometric(t *testing.T) {
	specs := routeSpecs(64, 64, 64, 64)
	src := rng.New(3)
	counts := make([]int, 4)
	const trials = 60000
	for i := 0; i < trials; i++ {
		// Home is cluster 3 so clusters 0..2 are eligible with
		// weights 1, 1/2, 1/4 -> probabilities 4/7, 2/7, 1/7.
		for _, idx := range selectRemotes(src, RouteBiased, specs, 3, 1, 1, nil, 0) {
			counts[idx]++
		}
	}
	want := []float64{4.0 / 7, 2.0 / 7, 1.0 / 7, 0}
	for i := range want {
		frac := float64(counts[i]) / trials
		if math.Abs(frac-want[i]) > 0.02 {
			t.Errorf("cluster %d picked %.3f of the time, want ~%.3f", i, frac, want[i])
		}
	}
}

func TestSelectBiasedWithoutReplacement(t *testing.T) {
	specs := routeSpecs(8, 8, 8, 8)
	src := rng.New(4)
	for trial := 0; trial < 1000; trial++ {
		got := selectRemotes(src, RouteBiased, specs, 0, 1, 3, nil, 0)
		if len(got) != 3 {
			t.Fatalf("got %d, want all 3 remotes", len(got))
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if seen[idx] || idx == 0 {
				t.Fatalf("bad selection %v", got)
			}
			seen[idx] = true
		}
	}
}

// Live (zero-staleness) reads take *sched.Cluster state directly.
func TestSelectQueueLenPrefersShortQueuesLive(t *testing.T) {
	sim := des.New()
	clusters := make([]*sched.Cluster, 3)
	for i := range clusters {
		clusters[i] = sched.NewCluster(sim, "t", i, sched.Config{Nodes: 4, Alg: sched.FCFS})
	}
	// Fill cluster 1's queue (cluster 2 stays empty).
	sim.Schedule(0, func() {
		for k := 0; k < 5; k++ {
			clusters[1].Submit(&sched.Request{JobID: int64(k), Nodes: 4, Runtime: 1000, Estimate: 1000})
		}
	})
	sim.RunUntil(1)
	specs := routeSpecs(4, 4, 4)
	view := &loadView{live: clusters}
	src := rng.New(5)
	for trial := 0; trial < 100; trial++ {
		got := selectRemotes(src, RouteLeastQueue, specs, 0, 1, 1, view, 1)
		if len(got) != 1 || got[0] != 2 {
			t.Fatalf("selected %v, want the empty cluster 2", got)
		}
	}
}

func TestSelectQueueLenPrefersShortQueuesSnapshot(t *testing.T) {
	var stats RoutingStats
	view := snapView([]int{9, 5, 0, 2}, nil, &stats)
	specs := routeSpecs(8, 8, 8, 8)
	src := rng.New(6)
	for trial := 0; trial < 100; trial++ {
		got := selectRemotes(src, RouteLeastQueue, specs, 0, 1, 2, view, 0)
		if len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Fatalf("selected %v, want [2 3] (shortest published queues)", got)
		}
	}
	if stats.Decisions != 100 || stats.Blind != 0 {
		t.Errorf("stats = %+v, want 100 decisions, 0 blind", stats)
	}
}

// Equal queue lengths: the tie-break is the rng pre-shuffle, so two
// identically seeded sources pick identical sequences, and the
// frequencies over eligible clusters are uniform.
func TestSelectQueueLenTieBreakDeterministic(t *testing.T) {
	view := snapView([]int{3, 3, 3, 3}, nil, nil)
	specs := routeSpecs(8, 8, 8, 8)
	a, b := rng.New(7), rng.New(7)
	counts := make([]int, 4)
	const trials = 30000
	for i := 0; i < trials; i++ {
		ga := selectRemotes(a, RouteLeastQueue, specs, 0, 1, 1, view, 0)
		gb := selectRemotes(b, RouteLeastQueue, specs, 0, 1, 1, view, 0)
		if !reflect.DeepEqual(ga, gb) {
			t.Fatalf("trial %d: same seed diverged: %v vs %v", i, ga, gb)
		}
		counts[ga[0]]++
	}
	for i := 1; i < 4; i++ {
		frac := float64(counts[i]) / trials
		if math.Abs(frac-1.0/3) > 0.02 {
			t.Errorf("cluster %d picked %.3f of the time, want ~0.333 tie-break", i, frac)
		}
	}
}

func TestSelectLeastWorkPrefersLessWork(t *testing.T) {
	// Queue lengths tie; queued work differs. LeastQueue cannot tell
	// the clusters apart, LeastWork must pick the lightest.
	view := snapView([]int{2, 2, 2, 2}, []float64{0, 900, 100, 4000}, nil)
	specs := routeSpecs(8, 8, 8, 8)
	src := rng.New(8)
	for trial := 0; trial < 100; trial++ {
		got := selectRemotes(src, RouteLeastWork, specs, 0, 1, 2, view, 0)
		if len(got) != 2 || got[0] != 2 || got[1] != 1 {
			t.Fatalf("selected %v, want [2 1] (least queued work)", got)
		}
	}
}

func TestSelectPowerTwoTwoChoice(t *testing.T) {
	// Cluster 1 has the unique shortest queue among 4 eligible. A
	// sampled pair contains it with probability 1/2; when it does,
	// it wins; otherwise the better of the other three is picked.
	view := snapView([]int{0, 1, 7, 7, 7}, nil, nil)
	specs := routeSpecs(8, 8, 8, 8, 8)
	src := rng.New(9)
	counts := make([]int, 5)
	const trials = 40000
	for i := 0; i < trials; i++ {
		got := selectRemotes(src, RoutePowerTwo, specs, 0, 1, 1, view, 0)
		counts[got[0]]++
	}
	frac := float64(counts[1]) / trials
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("shortest cluster picked %.3f of the time, want ~0.5", frac)
	}
	if counts[0] != 0 {
		t.Errorf("home picked %d times", counts[0])
	}
}

func TestSelectPowerTwoWithoutReplacement(t *testing.T) {
	view := snapView([]int{0, 0, 0, 0}, nil, nil)
	specs := routeSpecs(8, 8, 8, 8)
	src := rng.New(10)
	for trial := 0; trial < 1000; trial++ {
		got := selectRemotes(src, RoutePowerTwo, specs, 0, 1, 3, view, 0)
		if len(got) != 3 {
			t.Fatalf("got %d, want all 3 remotes", len(got))
		}
		seen := map[int]bool{}
		for _, idx := range got {
			if seen[idx] || idx == 0 {
				t.Fatalf("bad selection %v", got)
			}
			seen[idx] = true
		}
	}
}

// Reads before the first snapshot is visible are blind (all keys zero)
// and counted; once a snapshot is visible its age feeds MaxAge.
func TestSelectSnapshotBlindAndAge(t *testing.T) {
	svc := gis.New(3, 60)
	svc.Publish(0, 0, gis.Load{QueueLen: 5})
	svc.Publish(1, 0, gis.Load{QueueLen: 1})
	svc.Publish(2, 0, gis.Load{QueueLen: 3})
	var stats RoutingStats
	view := &loadView{svc: svc, stats: &stats}
	specs := routeSpecs(8, 8, 8)
	src := rng.New(11)

	selectRemotes(src, RouteLeastQueue, specs, 0, 1, 1, view, 30) // before visibility
	if stats.Blind != 2 || stats.MaxAge != 0 {
		t.Fatalf("blind read stats = %+v, want Blind=2 MaxAge=0", stats)
	}
	got := selectRemotes(src, RouteLeastQueue, specs, 0, 1, 1, view, 100)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("selected %v, want cluster 1 (shortest published queue)", got)
	}
	if stats.MaxAge != 100 || stats.Decisions != 2 {
		t.Fatalf("stats = %+v, want MaxAge=100 Decisions=2", stats)
	}
}

func TestSelectNoEligible(t *testing.T) {
	specs := routeSpecs(128, 16, 16)
	src := rng.New(13)
	if got := selectRemotes(src, RouteUniform, specs, 0, 100, 3, nil, 0); got != nil {
		t.Fatalf("selected %v for a job no remote can run", got)
	}
	if got := selectRemotes(src, RouteUniform, specs, 0, 1, 0, nil, 0); got != nil {
		t.Fatalf("want=0 returned %v", got)
	}
}

func TestSelectWantClamped(t *testing.T) {
	specs := routeSpecs(64, 64)
	src := rng.New(14)
	for _, pol := range []Routing{RouteUniform, RouteBiased, RouteLeastQueue, RoutePowerTwo} {
		got := selectRemotes(src, pol, specs, 0, 1, 5, snapView([]int{0, 0}, nil, nil), 0)
		if len(got) != 1 {
			t.Fatalf("%v: got %d remotes from a 2-cluster platform", pol, len(got))
		}
	}
}

func TestRoutingInformed(t *testing.T) {
	for pol, want := range map[Routing]bool{
		RouteUniform: false, RouteBiased: false,
		RouteLeastQueue: true, RouteLeastWork: true, RoutePowerTwo: true,
	} {
		if got := pol.Informed(); got != want {
			t.Errorf("%v.Informed() = %v, want %v", pol, got, want)
		}
	}
}

func TestParseRouting(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Routing
	}{
		{"uniform", RouteUniform}, {"Biased", RouteBiased},
		{"queuelen", RouteLeastQueue}, {"queue", RouteLeastQueue}, {"leastqueue", RouteLeastQueue},
		{"leastwork", RouteLeastWork}, {"work", RouteLeastWork},
		{"po2", RoutePowerTwo}, {"power2", RoutePowerTwo}, {"powertwo", RoutePowerTwo},
	} {
		got, err := ParseRouting(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRouting(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseRouting("zigzag"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestGISIntervalResolution(t *testing.T) {
	cases := []struct {
		staleness, latency, want float64
	}{
		{0, 60, 60}, // default: ControlLatency
		{300, 60, 300},
		{-1, 60, 0}, // live reads
		{0, 0, 0},   // no latency, no default interval
	}
	for _, tc := range cases {
		cfg := Config{Staleness: tc.staleness, ControlLatency: tc.latency}
		if got := cfg.GISInterval(); got != tc.want {
			t.Errorf("GISInterval(staleness=%v latency=%v) = %v, want %v", tc.staleness, tc.latency, got, tc.want)
		}
	}
}

// selectRemotes is appendRemotes into fresh memory: the form the
// policy tests above call.
func selectRemotes(src *rng.Source, pol Routing, specs []ClusterSpec, home, nodes, want int, view *loadView, now float64) []int {
	var rs routeScratch
	return rs.appendRemotes(nil, src, pol, specs, home, nodes, want, view, now)
}

// selectRemotesRef is the allocating selector appendRemotes replaced,
// kept word for word as the reference for
// TestAppendRemotesMatchesReference.
func selectRemotesRef(src *rng.Source, pol Routing, specs []ClusterSpec, home, nodes, want int, view *loadView, now float64) []int {
	if want <= 0 {
		return nil
	}
	eligible := make([]int, 0, len(specs))
	for i, cs := range specs {
		if i != home && cs.Nodes >= nodes {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	if want > len(eligible) {
		want = len(eligible)
	}
	switch pol {
	case RouteUniform:
		src.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		return eligible[:want]
	case RouteBiased:
		// Weight cluster index i by 2^-i; draw without replacement.
		weights := make([]float64, len(eligible))
		for k, idx := range eligible {
			weights[k] = pow2neg(idx)
		}
		picked := make([]int, 0, want)
		for len(picked) < want {
			k := src.WeightedChoice(weights)
			picked = append(picked, eligible[k])
			weights[k] = 0
		}
		return picked
	case RouteLeastQueue, RouteLeastWork, RoutePowerTwo:
		if view.stats != nil {
			view.stats.Decisions++
		}
		// Read every eligible cluster's key before any draw, so the
		// read sequence (and the stats it accumulates) is identical
		// across informed policies and independent of the draws.
		keyAt := make([]float64, len(specs))
		for _, idx := range eligible {
			q, w := view.look(idx, now)
			if pol == RouteLeastWork {
				keyAt[idx] = w
			} else {
				keyAt[idx] = q
			}
		}
		if pol == RoutePowerTwo {
			return pickPowerTwoRef(src, eligible, keyAt, want)
		}
		// Smallest published key first; random tie-break via
		// pre-shuffle (the stable sort then keeps shuffle order among
		// equal keys).
		src.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		sort.SliceStable(eligible, func(a, b int) bool {
			return keyAt[eligible[a]] < keyAt[eligible[b]]
		})
		return eligible[:want]
	default:
		panic("core: unknown routing policy")
	}
}

// pickPowerTwoRef is the allocating two-choice sampler, the reference
// for pickPowerTwo.
func pickPowerTwoRef(src *rng.Source, eligible []int, keyAt []float64, want int) []int {
	picked := make([]int, 0, want)
	pool := eligible
	for len(picked) < want {
		if len(pool) == 1 {
			picked = append(picked, pool[0])
			return picked
		}
		a := src.IntN(len(pool))
		b := src.IntN(len(pool) - 1)
		if b >= a {
			b++
		}
		best := a
		if keyAt[pool[b]] < keyAt[pool[a]] ||
			(keyAt[pool[b]] == keyAt[pool[a]] && pool[b] < pool[a]) {
			best = b
		}
		picked = append(picked, pool[best])
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return picked
}

// The engine's append form must pick exactly what the allocating
// reference picks, with the same stats and the same draws, on random
// platforms, policies and published loads. Every case reuses one
// routeScratch and one destination buffer, so contents left over from
// an earlier, larger case would show.
func TestAppendRemotesMatchesReference(t *testing.T) {
	gen := rand.New(rand.NewPCG(28, 1))
	sizes := []int{16, 32, 64, 128}
	pols := []Routing{RouteUniform, RouteBiased, RouteLeastQueue, RouteLeastWork, RoutePowerTwo}
	var rs routeScratch
	var dst []int
	for trial := 0; trial < 20000; trial++ {
		n := 1 + gen.IntN(12)
		specs := make([]ClusterSpec, n)
		for i := range specs {
			specs[i].Nodes = sizes[gen.IntN(len(sizes))]
		}
		pol := pols[gen.IntN(len(pols))]
		home := gen.IntN(n)
		nodes := 1 + gen.IntN(128)
		want := gen.IntN(n + 2)
		// Small key ranges make ties frequent; a cluster that never
		// publishes is read blind.
		loads := make([]gis.Load, n)
		published := make([]bool, n)
		for i := range loads {
			loads[i] = gis.Load{QueueLen: gen.IntN(4), QueuedWork: float64(100 * gen.IntN(3))}
			published[i] = gen.IntN(5) > 0
		}
		now := float64(gen.IntN(100))
		view := func(stats *RoutingStats) *loadView {
			svc := gis.New(n, 0)
			for i, l := range loads {
				if published[i] {
					svc.Publish(i, 0, l)
				}
			}
			return &loadView{svc: svc, stats: stats}
		}
		seed := gen.Uint64()
		refSrc, newSrc := rng.New(seed), rng.New(seed)
		var refStats, newStats RoutingStats

		want0 := selectRemotesRef(refSrc, pol, specs, home, nodes, want, view(&refStats), now)
		dst = rs.appendRemotes(append(dst[:0], home), newSrc, pol, specs, home, nodes, want, view(&newStats), now)

		if dst[0] != home || !slices.Equal(dst[1:], want0) {
			t.Fatalf("trial %d (%v, specs %v, home %d, nodes %d, want %d): picked %v, reference %v",
				trial, pol, specs, home, nodes, want, dst[1:], want0)
		}
		if newStats != refStats {
			t.Fatalf("trial %d (%v): stats %+v, reference %+v", trial, pol, newStats, refStats)
		}
		if a, b := newSrc.Float64(), refSrc.Float64(); a != b {
			t.Fatalf("trial %d (%v): rng out of step after the pick (next draw %v, reference %v)", trial, pol, a, b)
		}
	}
}
