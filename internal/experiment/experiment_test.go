package experiment

import (
	"sync/atomic"
	"testing"

	"redreq/internal/core"
	"redreq/internal/obs"
)

// tinyOpts keeps unit tests fast: two small clusters' worth of work.
func tinyOpts() Options {
	o := Defaults()
	o.Reps = 2
	o.Horizon = 900
	o.Nodes = 32
	return o
}

func TestRunMatrixShapeAndDeterminism(t *testing.T) {
	opts := tinyOpts()
	v := []variant{
		{Name: "a", Config: opts.base(2)},
		{Name: "b", Config: func() core.Config {
			c := opts.base(2)
			c.Scheme = core.SchemeR2
			return c
		}()},
	}
	res1, err := runMatrix(opts, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) != 2 || len(res1[0]) != opts.Reps {
		t.Fatalf("matrix shape = %dx%d", len(res1), len(res1[0]))
	}
	res2, err := runMatrix(opts, v)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range res1 {
		for ri := range res1[vi] {
			a := res1[vi][ri].Sample[allJobs]
			b := res2[vi][ri].Sample[allJobs]
			if a != b {
				t.Fatalf("variant %d rep %d not deterministic: %+v vs %+v", vi, ri, a, b)
			}
		}
	}
	// Paired seeds: both variants see the same job count per rep.
	for ri := range res1[0] {
		if res1[0][ri].Sample[allJobs].N != res1[1][ri].Sample[allJobs].N {
			t.Fatalf("rep %d: variants saw different job streams", ri)
		}
	}
}

func TestRunMatrixProgress(t *testing.T) {
	opts := tinyOpts()
	var calls atomic.Int64
	opts.Progress = func(done, total int) {
		calls.Add(1)
		if total != 2*opts.Reps {
			t.Errorf("total = %d, want %d", total, 2*opts.Reps)
		}
	}
	_, err := runMatrix(opts, []variant{
		{Name: "a", Config: opts.base(2)},
		{Name: "b", Config: opts.base(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(2*opts.Reps) {
		t.Errorf("progress called %d times", calls.Load())
	}
}

// TestRunMatrixProgressOnFailure pins the progress contract on a
// failing matrix: every (variant, rep) pair — run, failed, or skipped
// because the feeder stopped at the failure — counts toward done, so
// Progress fires total times and done reaches total exactly once,
// however many workers race the feeder.
func TestRunMatrixProgressOnFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		opts := tinyOpts()
		opts.Workers = workers
		bad := opts.base(2)
		bad.RedundantFraction = 99 // invalid: core.Run fails
		var calls, final atomic.Int64
		opts.Progress = func(done, total int) {
			calls.Add(1)
			if total != 2*opts.Reps {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, 2*opts.Reps)
			}
			if done == total {
				final.Add(1)
			}
		}
		_, err := runMatrix(opts, []variant{
			{Name: "bad", Config: bad},
			{Name: "good", Config: opts.base(2)},
		})
		if err == nil {
			t.Fatalf("workers=%d: failing variant did not surface an error", workers)
		}
		if calls.Load() != int64(2*opts.Reps) {
			t.Errorf("workers=%d: progress called %d times, want %d", workers, calls.Load(), 2*opts.Reps)
		}
		if final.Load() != 1 {
			t.Errorf("workers=%d: done reached total %d times, want exactly once", workers, final.Load())
		}
	}
}

// TestRunMatrixTraceAggregation checks that Options.Trace merges every
// replication's run internals into one aggregate trace.
func TestRunMatrixTraceAggregation(t *testing.T) {
	opts := tinyOpts()
	opts.Trace = obs.New()
	res, err := runMatrix(opts, []variant{{Name: "traced", Config: opts.base(2)}})
	if err != nil {
		t.Fatal(err)
	}
	var jobs, events int64
	for ri, r := range res[0] {
		jobs += int64(r.Sample[allJobs].N)
		// Summaries carry no event count: rerun the rep directly.
		cfg := opts.base(2)
		cfg.Seed = opts.BaseSeed + uint64(ri)*seedStride
		direct, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		events += int64(direct.Events)
	}
	snap := opts.Trace.Snapshot()
	if got := snap.Counter("core.jobs"); got != jobs {
		t.Errorf("aggregate core.jobs = %d, want %d (sum over reps)", got, jobs)
	}
	if got := snap.Counter("des.fired"); got != events {
		t.Errorf("aggregate des.fired = %d, want %d (sum over reps)", got, events)
	}
	if len(snap.Series) == 0 {
		t.Error("aggregate trace has no queue-depth series")
	}
}

func TestRunMatrixRejectsZeroReps(t *testing.T) {
	opts := tinyOpts()
	opts.Reps = 0
	if _, err := runMatrix(opts, nil); err == nil {
		t.Error("zero reps accepted")
	}
}

func TestRunMatrixPropagatesErrors(t *testing.T) {
	opts := tinyOpts()
	bad := opts.base(2)
	bad.RedundantFraction = 99 // invalid
	if _, err := runMatrix(opts, []variant{{Name: "bad", Config: bad}}); err == nil {
		t.Error("invalid config did not surface an error")
	}
}

// runGroups runs a relative spec's groups through runMatrix and its
// reduction.
func runGroups(t *testing.T, opts Options, groups func(Options) []compared) []relGroup {
	t.Helper()
	res, err := runMatrix(opts, groupVariants(groups(opts)))
	if err != nil {
		t.Fatal(err)
	}
	gs, err := relativize(groups(opts), res)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func TestSchemesVsNStructure(t *testing.T) {
	opts := tinyOpts()
	opts.Sweep = []float64{2, 3}
	gs := runGroups(t, opts, fig12Groups)
	if len(gs) != 2 {
		t.Fatalf("%d points", len(gs))
	}
	for i, g := range gs {
		n := opts.Sweep[i]
		if len(g.rel) != len(core.Schemes) {
			t.Fatalf("N=%v has %d schemes", n, len(g.rel))
		}
		if b := meanOver(g.base, avgStretch(allJobs)); b < 1 {
			t.Errorf("N=%v baseline stretch %v < 1", n, b)
		}
		for si, rel := range g.rel {
			if rel.AvgStretch <= 0 || rel.CVStretch <= 0 {
				t.Errorf("N=%v %v: non-positive relative metrics %+v", n, core.Schemes[si], rel)
			}
			if rel.Reps != 2 {
				t.Errorf("N=%v %v: reps = %d", n, core.Schemes[si], rel.Reps)
			}
		}
	}
}

func TestTable1Structure(t *testing.T) {
	algs := rows(runGroups(t, tinyOpts(), table1Groups), len(table1Ests))
	if len(algs) != 3 {
		t.Fatalf("%d rows, want 3 algorithms", len(algs))
	}
	for i, ests := range algs {
		for _, g := range ests {
			r := g.rel[0]
			for _, v := range []float64{r.AvgStretch, r.CVStretch} {
				if v <= 0 {
					t.Errorf("%v: non-positive metric in %+v", table1Algs[i], r)
				}
			}
		}
	}
}

func TestFigure4Classes(t *testing.T) {
	fractions := []float64{0, 0.5, 1}
	res, err := runMatrix(tinyOpts(), figure4Variants(tinyOpts(), fractions))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range figure4Points(fractions, res) {
		switch pt.Fraction {
		case 0:
			if pt.RStretch != 0 {
				t.Errorf("p=0 has r-stretch %v", pt.RStretch)
			}
			if pt.NRStretch < 1 {
				t.Errorf("p=0 n-r stretch %v", pt.NRStretch)
			}
		case 1:
			if pt.RStretch < 1 {
				t.Errorf("p=1 r stretch %v", pt.RStretch)
			}
		default:
			if pt.RStretch < 1 || pt.NRStretch < 1 {
				t.Errorf("p=%v classes: r=%v nr=%v", pt.Fraction, pt.RStretch, pt.NRStretch)
			}
		}
	}
}

func TestTable3HeterogeneousMutate(t *testing.T) {
	cfg := tinyOpts().base(10)
	heterogeneousMutate(3, &cfg)
	sizes := map[int]bool{16: true, 32: true, 64: true, 128: true, 256: true}
	for i, cs := range cfg.Clusters {
		if !sizes[cs.Nodes] {
			t.Errorf("cluster %d has %d nodes", i, cs.Nodes)
		}
		if cs.MeanIAT < 2 || cs.MeanIAT >= 20 {
			t.Errorf("cluster %d iat %v", i, cs.MeanIAT)
		}
	}
	// Same rep gives the same platform; different reps differ.
	cfg2 := tinyOpts().base(10)
	heterogeneousMutate(3, &cfg2)
	same := true
	for i := range cfg.Clusters {
		if cfg.Clusters[i] != cfg2.Clusters[i] {
			same = false
		}
	}
	if !same {
		t.Error("heterogeneousMutate not deterministic per rep")
	}
}

func TestTable4Structure(t *testing.T) {
	m, err := runMatrix(tinyOpts(), table4Variants(tinyOpts()))
	if err != nil {
		t.Fatal(err)
	}
	res := table4Reduce(m)
	if res.BaselineN == 0 || res.NonRedundantN == 0 || res.RedundantN == 0 {
		t.Fatalf("empty populations: %+v", res)
	}
	// CBF predictions are conservative, so every ratio >= 1 and so
	// are the averages.
	if res.BaselineAvg < 1 || res.NonRedundantAvg < 1 || res.RedundantAvg < 1 {
		t.Errorf("over-prediction averages below 1: %+v", res)
	}
}

func TestQueueGrowthStructure(t *testing.T) {
	opts := tinyOpts()
	m, err := runMatrix(opts, queueGrowthVariants(opts))
	if err != nil {
		t.Fatal(err)
	}
	res := queueGrowthReduce(m)
	if res.MaxQueueNone <= 0 || res.MaxQueueAll <= 0 || res.Ratio <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestDefaultsSane(t *testing.T) {
	o := Defaults()
	if o.Reps < 1 || o.Horizon <= 0 || o.Nodes < 1 || o.TargetLoad <= 0 {
		t.Fatalf("bad defaults %+v", o)
	}
	q := Quick()
	if q.Reps >= o.Reps || q.Horizon >= o.Horizon {
		t.Errorf("Quick not smaller than Defaults")
	}
}

// TestHeadlineFindingRegression pins the paper's headline result in
// the default calibration: redundant requests improve both the average
// stretch and the fairness (CV of stretches) of the schedule, relative
// to no redundancy, on a mid-size platform.
func TestHeadlineFindingRegression(t *testing.T) {
	opts := Defaults()
	opts.Reps = 3
	opts.Horizon = 1800
	opts.Nodes = 64
	opts.Sweep = []float64{5}
	for si, rel := range runGroups(t, opts, fig12Groups)[0].rel {
		if rel.AvgStretch >= 1.02 {
			t.Errorf("%v: relative average stretch %.3f — redundancy no longer beneficial",
				core.Schemes[si], rel.AvgStretch)
		}
		if rel.CVStretch >= 1.02 {
			t.Errorf("%v: relative CV %.3f — fairness no longer improved",
				core.Schemes[si], rel.CVStretch)
		}
	}
}
