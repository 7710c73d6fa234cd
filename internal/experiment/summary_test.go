package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"redreq/internal/core"
	"redreq/internal/fault"
	"redreq/internal/obs"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// sameBits reports whether two values are equal with every float64
// compared by its bits, so NaN equals NaN and 0 differs from -0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// TestCachedSummariesMatchDirect checks that the summary the memo
// serves — from a completed hit, to a caller that waited on the run in
// flight, and to traced callers — is bit-identical to summarizing a
// direct run. The config exercises every summary field: predictions,
// both job classes, and orphans from lost cancels.
func TestCachedSummariesMatchDirect(t *testing.T) {
	opts := tinyOpts()
	cfg := opts.base(3)
	cfg.Alg = sched.CBF
	cfg.EstMode = workload.Phi
	cfg.Predict = true
	cfg.Scheme = core.SchemeAll
	cfg.RedundantFraction = 0.4
	cfg.Faults = &fault.Plan{CancelLoss: 0.25}
	cfg.Seed = opts.BaseSeed
	direct, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(direct)
	if want.Prediction[redundantJobs].N == 0 || want.Sample[nonRedundantJobs].N == 0 || want.OrphanStarts == 0 {
		t.Fatalf("config does not exercise the summary: %+v", want)
	}
	check := func(label string, got runSummary, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: summary %+v, direct run gives %+v", label, got, want)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	m := core.NewMemo()
	// The first caller's summary waits until a second caller is
	// blocked on the same run, so the second is served in flight.
	release := make(chan struct{})
	type served struct {
		s   runSummary
		err error
	}
	first, second := make(chan served, 1), make(chan served, 1)
	go func() {
		s, err := core.RunCached(m, cfg, func(res *core.Result) runSummary {
			<-release
			return summarize(res)
		})
		first <- served{s, err}
	}()
	waitFor("the first run to start", func() bool { return m.Stats().Miss == 1 })
	go func() {
		s, err := core.RunCached(m, cfg, summarize)
		second <- served{s, err}
	}()
	waitFor("the second caller to wait", func() bool { return m.Stats().Inflight == 1 })
	close(release)
	r := <-first
	check("miss", r.s, r.err)
	r = <-second
	check("in-flight wait", r.s, r.err)

	s, err := core.RunCached(m, cfg, summarize)
	check("completed hit", s, err)

	for _, label := range []string{"traced miss", "traced hit"} {
		traced := cfg
		traced.Trace = obs.New()
		s, err := core.RunCached(m, traced, summarize)
		check(label, s, err)
		if traced.Trace.Snapshot().Counter("core.jobs") == 0 {
			t.Errorf("%s: the caller's trace saw no jobs", label)
		}
	}
	if st := m.Stats(); st.Miss != 2 || st.Hit != 2 || st.Inflight != 1 {
		t.Errorf("stats = %+v, want 2 misses (untraced, traced), 2 hits and 1 in-flight wait", st)
	}
}
