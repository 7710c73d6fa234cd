package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"redreq/internal/stats"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Counter("c").Inc()
	tr.Counter("c").Add(5)
	tr.Gauge("g").Set(3)
	tr.Gauge("g").Add(2)
	tr.Histogram("h").Observe(1.5)
	tr.Series("s").Sample(1, 2)
	tr.Merge(New())
	New().Merge(tr)
	if v := tr.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if !tr.Snapshot().Empty() {
		t.Fatal("nil trace snapshot not empty")
	}
	if !math.IsNaN(tr.Histogram("h").Mean()) {
		t.Fatal("nil histogram mean not NaN")
	}
	if pts := tr.Series("s").Points(); pts != nil {
		t.Fatalf("nil series points = %v", pts)
	}
}

func TestCounterAndGauge(t *testing.T) {
	tr := New()
	c := tr.Counter("events")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if tr.Counter("events") != c {
		t.Fatal("counter lookup not stable")
	}
	g := tr.Gauge("queue")
	g.Set(5)
	g.Set(12)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 12 {
		t.Fatalf("gauge = (%d, max %d), want (3, 12)", g.Value(), g.Max())
	}
	if v := g.Add(4); v != 7 {
		t.Fatalf("gauge add = %d, want 7", v)
	}
	if g.Max() != 12 {
		t.Fatalf("gauge max moved to %d", g.Max())
	}
}

func TestHistogram(t *testing.T) {
	tr := New()
	h := tr.Histogram("lat")
	if !math.IsNaN(h.Mean()) || !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram should summarize as NaN")
	}
	vals := []float64{0.001, 0.002, 0.004, 0.100, 2.0}
	for _, v := range vals {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 2.107; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Min() != 0.001 || h.Max() != 2.0 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// The median observation is 0.004; the sketch answers within α of it.
	if q := h.Quantile(0.5); math.Abs(q-0.004) > histAlpha*0.004 {
		t.Fatalf("p50 = %v, want 0.004 ± %v", q, histAlpha*0.004)
	}
	// The extremes are answered within α too, and never outside them.
	if q := h.Quantile(1.0); q > 2.0 || q < (1-histAlpha)*2.0 {
		t.Fatalf("p100 = %v, want in [%v, 2.0]", q, (1-histAlpha)*2.0)
	}
	if q := h.Quantile(0); q < 0.001 || q > (1+histAlpha)*0.001 {
		t.Fatalf("p0 = %v, want in [0.001, %v]", q, (1+histAlpha)*0.001)
	}
	var n int64
	for _, b := range tr.Snapshot().Hists[0].Buckets {
		n += b.Count
	}
	if n != 5 {
		t.Fatalf("buckets hold %d observations, want 5", n)
	}
}

// TestHistogramMatchesPercentile holds quantiles of random samples to
// the exact stats.Percentile: within α of it, at ranks where Percentile
// interpolates nothing, and inside [min, max].
func TestHistogramMatchesPercentile(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	draws := map[string]func() float64{
		"uniform":     func() float64 { return r.Float64() },
		"exponential": func() float64 { return r.ExpFloat64() * 0.05 },
		"decades":     func() float64 { return math.Pow(10, -6+9*r.Float64()) },
	}
	for name, draw := range draws {
		for _, n := range []int{1, 2, 3, 101, 1001, 4001} {
			h := NewHistogram()
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
				h.Observe(xs[i])
			}
			lo, hi := stats.Min(xs), stats.Max(xs)
			for _, rank := range []int{0, 1, n / 100, n / 4, n / 2, 3 * n / 4, 19 * n / 20, 99 * n / 100, n - 2, n - 1} {
				rank = min(max(rank, 0), n-1)
				q := 0.0
				if n > 1 {
					q = float64(rank) / float64(n-1)
				}
				got, want := h.Quantile(q), stats.Percentile(xs, 100*q)
				if math.Abs(got-want) > histAlpha*want*(1+1e-9) || got < lo || got > hi {
					t.Fatalf("%s, n=%d: q=%v = %v, exact %v (±%v), sample in [%v, %v]",
						name, n, q, got, want, histAlpha*want, lo, hi)
				}
			}
		}
	}
}

// TestHistogramMergeOrder merges shards in every order and requires the
// same quantiles and buckets, bit for bit.
func TestHistogramMergeOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	shards := make([]*Trace, 4)
	for i := range shards {
		shards[i] = New()
		for j := 0; j < 500; j++ {
			shards[i].Histogram("lat").Observe(r.ExpFloat64() * float64(i+1) * 0.01)
		}
	}
	summary := func(order []int) (qs []float64, bs []BucketSnap) {
		agg := New()
		for _, i := range order {
			agg.Merge(shards[i])
		}
		h := agg.Histogram("lat")
		for q := 0.0; q <= 1; q += 0.05 {
			qs = append(qs, h.Quantile(q))
		}
		return qs, agg.Snapshot().Hists[0].Buckets
	}
	wantQ, wantB := summary([]int{0, 1, 2, 3})
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			if q, b := summary(order); !slices.Equal(q, wantQ) || !slices.Equal(b, wantB) {
				t.Fatalf("merge order %v: quantiles %v buckets %v, order 0..3 gave %v and %v", order, q, b, wantQ, wantB)
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3}, 0)
}

func TestSeriesDecimation(t *testing.T) {
	tr := New()
	s := tr.Series("depth")
	const n = 3 * maxSeriesPoints
	for i := 0; i < n; i++ {
		s.Sample(float64(i), float64(i*2))
	}
	if s.Total() != n {
		t.Fatalf("total = %d, want %d", s.Total(), n)
	}
	pts := s.Points()
	if len(pts) >= maxSeriesPoints || len(pts) < maxSeriesPoints/4 {
		t.Fatalf("retained %d points, want bounded in [%d, %d)", len(pts), maxSeriesPoints/4, maxSeriesPoints)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("points not time-ordered at %d", i)
		}
	}
	// Coverage must span the full sampled range, not just a prefix.
	if pts[len(pts)-1].T < float64(n)/2 {
		t.Fatalf("decimation lost the tail: last T = %v", pts[len(pts)-1].T)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	b.Counter("only-b").Inc()
	a.Gauge("g").Set(10)
	b.Gauge("g").Set(7)
	a.Histogram("h").Observe(1)
	b.Histogram("h").Observe(3)
	a.Series("s").Sample(1, 1)
	b.Series("s").Sample(0.5, 2)
	b.Series("s").Sample(2, 3)

	a.Merge(b)
	snap := a.Snapshot()
	if got := snap.Counter("c"); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := snap.Counter("only-b"); got != 1 {
		t.Fatalf("merged only-b = %d, want 1", got)
	}
	if g := a.Gauge("g"); g.Max() != 10 {
		t.Fatalf("merged gauge max = %d, want 10", g.Max())
	}
	h := a.Histogram("h")
	if h.Count() != 2 || h.Sum() != 4 || h.Min() != 1 || h.Max() != 3 {
		t.Fatalf("merged hist = count %d sum %v min %v max %v", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	pts := a.Series("s").Points()
	if len(pts) != 3 || pts[0].T != 0.5 || pts[1].T != 1 || pts[2].T != 2 {
		t.Fatalf("merged series = %v", pts)
	}
}

// TestConcurrentAggregation models runMatrix: many replication traces
// merged into one aggregate from concurrent workers, while the
// aggregate is also being written directly and snapshotted. Run under
// -race.
func TestConcurrentAggregation(t *testing.T) {
	agg := New()
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each histogram's summary and buckets describe one state.
			for _, hs := range agg.Snapshot().Hists {
				var n int64
				for _, b := range hs.Buckets {
					n += b.Count
				}
				if n != hs.Count {
					t.Errorf("snapshot of %s: buckets hold %d, count %d", hs.Name, n, hs.Count)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWorker; r++ {
				rep := New()
				rep.Counter("jobs").Add(10)
				rep.Gauge("queue").Set(int64(w*100 + r))
				rep.Histogram("lat").Observe(float64(r+1) * 0.01)
				for i := 0; i < 50; i++ {
					rep.Series("depth").Sample(float64(i), float64(i))
				}
				agg.Merge(rep)
				agg.Counter("direct").Inc()
				agg.Histogram("direct").Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapped
	snap := agg.Snapshot()
	if got := snap.Counter("jobs"); got != workers*perWorker*10 {
		t.Fatalf("aggregate jobs = %d, want %d", got, workers*perWorker*10)
	}
	if got := snap.Counter("direct"); got != workers*perWorker {
		t.Fatalf("aggregate direct = %d, want %d", got, workers*perWorker)
	}
	if h := agg.Histogram("lat"); h.Count() != workers*perWorker {
		t.Fatalf("aggregate hist count = %d", h.Count())
	}
	if h := agg.Histogram("direct"); h.Count() != workers*perWorker || h.Min() != 1 || h.Max() != workers {
		t.Fatalf("direct hist count %d, min %v, max %v", h.Count(), h.Min(), h.Max())
	}
	if g := agg.Gauge("queue"); g.Max() != (workers-1)*100+perWorker-1 {
		t.Fatalf("aggregate gauge max = %d", g.Max())
	}
	if tot := agg.Series("depth").Total(); tot != workers*perWorker*50 {
		t.Fatalf("aggregate series total = %d", tot)
	}
}

func TestSnapshotSorted(t *testing.T) {
	tr := New()
	tr.Counter("z").Inc()
	tr.Counter("a").Inc()
	tr.Counter("m").Inc()
	snap := tr.Snapshot()
	if len(snap.Counters) != 3 {
		t.Fatalf("got %d counters", len(snap.Counters))
	}
	for i, want := range []string{"a", "m", "z"} {
		if snap.Counters[i].Name != want {
			t.Fatalf("counter %d = %q, want %q", i, snap.Counters[i].Name, want)
		}
	}
}
