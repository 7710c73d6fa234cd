package metrics

import (
	"math"
	"reflect"
	"testing"

	"redreq/internal/core"
	"redreq/internal/sched"
	"redreq/internal/stats"
	"redreq/internal/workload"
)

// mkResult builds a Result with hand-crafted job timelines.
func mkResult(jobs []core.JobRecord) *core.Result {
	return &core.Result{Jobs: jobs, Clusters: []core.ClusterResult{{Name: "C1", Nodes: 4}}}
}

func job(sub, start, end float64, redundant bool) core.JobRecord {
	return core.JobRecord{
		Submit: sub, Start: start, End: end,
		Runtime: end - start, Nodes: 1, Redundant: redundant,
		Predicted: math.NaN(),
	}
}

func TestFromResultBasic(t *testing.T) {
	res := mkResult([]core.JobRecord{
		job(0, 0, 100, false),   // stretch 1
		job(0, 100, 200, false), // wait 100, runtime 100: stretch 2
	})
	s := FromResult(res, nil)
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	if s.AvgStretch != 1.5 {
		t.Errorf("AvgStretch = %v, want 1.5", s.AvgStretch)
	}
	if s.MaxStretch != 2 {
		t.Errorf("MaxStretch = %v, want 2", s.MaxStretch)
	}
	if s.AvgWait != 50 {
		t.Errorf("AvgWait = %v, want 50", s.AvgWait)
	}
	if s.AvgTurnaround != 150 {
		t.Errorf("AvgTurnaround = %v, want 150", s.AvgTurnaround)
	}
}

func TestFilters(t *testing.T) {
	res := mkResult([]core.JobRecord{
		job(0, 0, 10, true),
		job(0, 10, 20, false),
		job(0, 20, 30, true),
	})
	if s := FromResult(res, RedundantOnly); s.N != 2 {
		t.Errorf("redundant N = %d, want 2", s.N)
	}
	if s := FromResult(res, NonRedundantOnly); s.N != 1 {
		t.Errorf("non-redundant N = %d, want 1", s.N)
	}
	if got := len(Stretches(res.Jobs, RedundantOnly)); got != 2 {
		t.Errorf("Stretches(redundant) = %d values", got)
	}
}

func TestRelativize(t *testing.T) {
	scheme := []Sample{
		{AvgStretch: 2, CVStretch: 50, MaxStretch: 10, AvgTurnaround: 100},
		{AvgStretch: 3, CVStretch: 60, MaxStretch: 20, AvgTurnaround: 200},
	}
	baseline := []Sample{
		{AvgStretch: 4, CVStretch: 100, MaxStretch: 40, AvgTurnaround: 200},
		{AvgStretch: 2, CVStretch: 30, MaxStretch: 10, AvgTurnaround: 100},
	}
	rel, err := Relativize(scheme, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.5 + 1.5) / 2; rel.AvgStretch != want {
		t.Errorf("AvgStretch = %v, want %v", rel.AvgStretch, want)
	}
	if rel.WinFraction != 0.5 {
		t.Errorf("WinFraction = %v, want 0.5", rel.WinFraction)
	}
	if rel.WorstLoss != 0.5 {
		t.Errorf("WorstLoss = %v, want 0.5", rel.WorstLoss)
	}
	if rel.Reps != 2 {
		t.Errorf("Reps = %d", rel.Reps)
	}
	if rel.CVOverReps <= 0 {
		t.Errorf("CVOverReps = %v, want > 0", rel.CVOverReps)
	}
}

func TestRelativizeErrors(t *testing.T) {
	if _, err := Relativize(nil, nil); err == nil {
		t.Error("empty replications not rejected")
	}
	_, err := Relativize([]Sample{{AvgStretch: 1}}, []Sample{{}})
	if err == nil {
		t.Error("zero baseline not rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	Relativize([]Sample{{}}, []Sample{{}, {}})
}

func TestPredictions(t *testing.T) {
	jobs := []core.JobRecord{
		job(0, 100, 200, false), // wait 100
		job(0, 50, 60, true),    // wait 50
		job(0, 0.5, 10, false),  // wait below MinEffectiveWait: skipped
		job(0, 100, 110, false), // no prediction: skipped
	}
	jobs[0].Predicted = 200 // ratio 2
	jobs[1].Predicted = 200 // ratio 4
	jobs[2].Predicted = 5
	res := mkResult(jobs)
	ps := Predictions(res, nil, 1.0)
	if ps.N != 2 || ps.Skipped != 2 {
		t.Fatalf("N = %d skipped = %d, want 2/2", ps.N, ps.Skipped)
	}
	if ps.Avg != 3 {
		t.Errorf("Avg = %v, want 3", ps.Avg)
	}
	only := Predictions(res, RedundantOnly, 1.0)
	if only.N != 1 || only.Avg != 4 {
		t.Errorf("redundant-only = %+v", only)
	}
}

func TestMaxQueueAveraging(t *testing.T) {
	res := &core.Result{
		Jobs: []core.JobRecord{job(0, 0, 10, false)},
		Clusters: []core.ClusterResult{
			{Name: "C1", Stats: clusterStats(10)},
			{Name: "C2", Stats: clusterStats(30)},
		},
	}
	s := FromResult(res, nil)
	if s.MaxQueue != 20 {
		t.Errorf("MaxQueue = %v, want 20", s.MaxQueue)
	}
}

func clusterStats(maxQ int) sched.Stats {
	return sched.Stats{MaxQueue: maxQ}
}

// fromResultSlices and predictionsSlices are FromResult and
// Predictions written over collected slices with package stats, the
// reference the slice-free versions must match bit for bit.
func fromResultSlices(res *core.Result, f Filter) Sample {
	var stretches, turnarounds, waits []float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f == nil || f(j) {
			stretches = append(stretches, j.Stretch())
			turnarounds = append(turnarounds, j.Turnaround())
			waits = append(waits, j.Wait())
		}
	}
	s := Sample{
		N:             len(stretches),
		AvgStretch:    stats.Mean(stretches),
		CVStretch:     stats.CV(stretches),
		MaxStretch:    stats.Max(stretches),
		AvgTurnaround: stats.Mean(turnarounds),
		AvgWait:       stats.Mean(waits),
	}
	var q float64
	for _, c := range res.Clusters {
		q += float64(c.Stats.MaxQueue)
	}
	if len(res.Clusters) > 0 {
		s.MaxQueue = q / float64(len(res.Clusters))
	}
	return s
}

func predictionsSlices(res *core.Result, f Filter, minWait float64) PredictionStats {
	var ratios []float64
	skipped := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if f != nil && !f(j) {
			continue
		}
		if math.IsNaN(j.Predicted) || j.Wait() < minWait {
			skipped++
			continue
		}
		ratios = append(ratios, j.Predicted/j.Wait())
	}
	return PredictionStats{N: len(ratios), Avg: stats.Mean(ratios), CV: stats.CV(ratios), Skipped: skipped}
}

// sameBits reports whether two structs of float64 and int fields are
// equal field by field, floats compared by their bits (NaN included).
func sameBits(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i), vb.Field(i)
		if x.Kind() == reflect.Float64 {
			if math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
				return false
			}
		} else if x.Int() != y.Int() {
			return false
		}
	}
	return true
}

// TestSliceFreeMatchesSlices holds FromResult and Predictions to the
// slice-based reference, bit for bit, on simulated runs with and
// without predictions and on hand-made edge cases: a filter that
// selects nothing, a one-job run, and a NaN stretch.
func TestSliceFreeMatchesSlices(t *testing.T) {
	sim := func(alg sched.Algorithm, predict bool) *core.Result {
		res, err := core.Run(core.Config{
			Clusters: []core.ClusterSpec{{Nodes: 32}, {Nodes: 32}, {Nodes: 32}},
			Alg:      alg, Scheme: core.SchemeAll, RedundantFraction: 0.4,
			Routing: core.RouteUniform, Seed: 11, Horizon: 1800,
			EstMode: workload.Phi, TargetLoad: 1.15, Predict: predict,
			MinRuntime: 30, MaxRuntime: 7200,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nanJob := job(0, 0, 0, true) // zero runtime and turnaround: NaN stretch
	oneJob := job(0, 40, 100, false)
	oneJob.Predicted = 90
	none := func(*core.JobRecord) bool { return false }
	runs := map[string]*core.Result{
		"EASY":     sim(sched.EASY, false),
		"CBF+pred": sim(sched.CBF, true),
		"one job":  mkResult([]core.JobRecord{oneJob}),
		"NaN":      mkResult([]core.JobRecord{job(0, 5, 10, false), nanJob, job(0, 0, 10, true)}),
		"empty":    mkResult(nil),
	}
	filters := map[string]Filter{"all": nil, "r": RedundantOnly, "n-r": NonRedundantOnly, "none": none}
	for rn, res := range runs {
		for fn, f := range filters {
			if got, want := FromResult(res, f), fromResultSlices(res, f); !sameBits(got, want) {
				t.Errorf("%s/%s: FromResult = %+v, slices give %+v", rn, fn, got, want)
			}
			if got, want := Predictions(res, f, 1.0), predictionsSlices(res, f, 1.0); !sameBits(got, want) {
				t.Errorf("%s/%s: Predictions = %+v, slices give %+v", rn, fn, got, want)
			}
		}
	}
	if ps := Predictions(runs["CBF+pred"], nil, 1.0); ps.N < 2 {
		t.Fatalf("the prediction run counted %d ratios; the test needs a real sample", ps.N)
	}
	if s := FromResult(runs["NaN"], nil); !math.IsNaN(s.MaxStretch) {
		t.Fatalf("MaxStretch = %v over a NaN stretch, want NaN", s.MaxStretch)
	}
	res := runs["CBF+pred"]
	if n := testing.AllocsPerRun(10, func() {
		FromResult(res, RedundantOnly)
		Predictions(res, NonRedundantOnly, 1.0)
	}); n != 0 {
		t.Errorf("FromResult and Predictions allocate %v times per call pair, want 0", n)
	}
}
