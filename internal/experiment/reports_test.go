package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"redreq/internal/core"
	"redreq/internal/report"
)

// reportsTestSpecs builds small matrix specs that reduce to one table
// of per-variant job counts — enough signal to catch misrouted or
// reordered results.
func reportsTestSpecs(n int) []*Spec {
	specs := make([]*Spec, n)
	for i := 0; i < n; i++ {
		i := i
		specs[i] = &Spec{
			Name:  fmt.Sprintf("spec%d", i),
			Title: fmt.Sprintf("Spec %d", i),
			Variants: func(opts Options) []variant {
				base := opts.base(2)
				with := base
				// Distinct schemes per spec so cross-spec mixups change
				// output (runMatrix re-derives seeds, so seeds cannot).
				with.Scheme = core.Schemes[i%len(core.Schemes)]
				with.RedundantFraction = 1
				return []variant{{Name: "base", Config: base}, {Name: "red", Config: with}}
			},
			Reduce: func(opts Options, res [][]runSummary) ([]*report.Table, error) {
				t := report.NewTable("jobs", "variant", "jobs")
				for vi, reps := range res {
					jobs := 0
					for _, r := range reps {
						jobs += r.Sample[allJobs].N
					}
					t.AddRow(fmt.Sprintf("v%d", vi), fmt.Sprintf("%d", jobs))
				}
				return []*report.Table{t}, nil
			},
		}
	}
	return specs
}

// TestReportsMatchesSequential renders every report emitted by the
// shared-pool scheduler and checks the bytes and order are identical
// to running each spec's Report sequentially.
func TestReportsMatchesSequential(t *testing.T) {
	specs := reportsTestSpecs(3)
	opts := tinyOpts()

	var want bytes.Buffer
	for _, s := range specs {
		rep, err := s.Report(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Render(&want); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 4} {
		opts := tinyOpts()
		opts.Workers = workers
		opts.Cache = core.NewMemo()
		var got bytes.Buffer
		next := 0
		err := Reports(specs, opts, func(i int, rep *report.Report, elapsed time.Duration) error {
			if i != next {
				t.Errorf("workers=%d: emitted spec %d before spec %d", workers, i, next)
			}
			next++
			if elapsed <= 0 {
				t.Errorf("workers=%d: spec %d reported non-positive elapsed %v", workers, i, elapsed)
			}
			return rep.Render(&got)
		})
		if err != nil {
			t.Fatal(err)
		}
		if next != len(specs) {
			t.Fatalf("workers=%d: emitted %d of %d specs", workers, next, len(specs))
		}
		if got.String() != want.String() {
			t.Errorf("workers=%d: concurrent output differs from sequential:\n--- want\n%s--- got\n%s",
				workers, want.String(), got.String())
		}
	}
}

// TestReportsStopsAtFailure injects a failing spec in the middle:
// finished specs before it still emit, nothing at or after it does,
// and the spec's error comes back. The failure is gated on spec 0's
// emission — a failure that lands earlier may legitimately abort the
// whole run before any spec finishes.
func TestReportsStopsAtFailure(t *testing.T) {
	boom := errors.New("boom")
	gate := make(chan struct{})
	specs := reportsTestSpecs(3)
	specs[1] = &Spec{
		Name: "bad", Title: "Bad",
		Tables: func(opts Options) ([]*report.Table, error) {
			<-gate
			return nil, boom
		},
	}
	opts := tinyOpts()
	opts.Workers = 4
	var emitted []int
	err := Reports(specs, opts, func(i int, rep *report.Report, _ time.Duration) error {
		emitted = append(emitted, i)
		if i == 0 {
			close(gate)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if len(emitted) != 1 || emitted[0] != 0 {
		t.Errorf("emitted %v, want only spec 0", emitted)
	}
}

// TestReportsEmitError aborts the run when the caller's emit fails.
func TestReportsEmitError(t *testing.T) {
	sink := errors.New("emit failed")
	specs := reportsTestSpecs(3)
	opts := tinyOpts()
	calls := 0
	err := Reports(specs, opts, func(i int, rep *report.Report, _ time.Duration) error {
		calls++
		return sink
	})
	if !errors.Is(err, sink) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if calls != 1 {
		t.Errorf("emit called %d times after failing, want 1", calls)
	}
}

// TestReportsProgressAggregates rewires Progress to count registry-wide:
// the final callback must report every matrix simulation done.
func TestReportsProgressAggregates(t *testing.T) {
	specs := reportsTestSpecs(2)
	opts := tinyOpts()
	var last atomic.Int64
	var total atomic.Int64
	opts.Progress = func(done, tot int) {
		last.Store(int64(done))
		total.Store(int64(tot))
	}
	err := Reports(specs, opts, func(int, *report.Report, time.Duration) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, s := range specs {
		want += int64(len(s.Variants(opts)) * opts.Reps)
	}
	if total.Load() != want {
		t.Errorf("progress total = %d, want %d", total.Load(), want)
	}
	if last.Load() != want {
		t.Errorf("final progress done = %d, want %d", last.Load(), want)
	}
}

// TestReportsSharedCache checks the memo turns cross-spec duplicate
// configs into hits: two specs with identical variants cost one set
// of simulations.
func TestReportsSharedCache(t *testing.T) {
	specs := reportsTestSpecs(1)
	dup := *specs[0]
	dup.Name, dup.Title = "dup", "Dup"
	specs = append(specs, &dup)
	opts := tinyOpts()
	opts.Cache = core.NewMemo()
	err := Reports(specs, opts, func(int, *report.Report, time.Duration) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	st := opts.Cache.Stats()
	sims := len(specs[0].Variants(opts)) * opts.Reps
	if st.Miss != int64(sims) {
		t.Errorf("misses = %d, want %d (one per unique config)", st.Miss, sims)
	}
	if st.Hit+st.Inflight != int64(sims) {
		t.Errorf("hit(%d) + inflight(%d) = %d, want %d duplicate configs served from cache",
			st.Hit, st.Inflight, st.Hit+st.Inflight, sims)
	}
}
