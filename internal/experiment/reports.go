// Reports is the registry-wide scheduler: it runs a list of specs
// concurrently over one shared worker pool while emitting their
// reports strictly in list order, so `redsim -run all` keeps its
// deterministic output byte-for-byte while later experiments' work
// overlaps earlier ones' instead of waiting for them.

package experiment

import (
	"sync"
	"sync/atomic"
	"time"

	"redreq/internal/report"
)

// Reports runs every spec under opts on one shared pool and calls
// emit once per spec, in the order given, as soon as that spec (and
// every one before it) has finished. Emission overlaps later specs'
// simulations; elapsed is the spec's own wall-clock (concurrent specs
// overlap, so the times do not sum to the total).
//
// Error semantics match the sequential loop it replaces: the first
// failure anywhere stops every matrix from feeding further work, and
// Reports returns that first error after in-flight tasks drain.
// Specs preceding the failure in list order still emit. An error
// returned by emit aborts the same way.
//
// opts.Progress, when set, is rewired to aggregate across the run:
// done counts completed matrix simulations registry-wide and total
// their overall count (bespoke Tables specs run simulations outside
// the matrix harness and are not counted).
func Reports(specs []*Spec, opts Options, emit func(i int, rep *report.Report, elapsed time.Duration) error) error {
	if len(specs) == 0 {
		return nil
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(opts.Workers)
		defer pool.Close()
	}
	opts.Pool = pool

	if opts.Progress != nil {
		total := 0
		for _, s := range specs {
			if s.Variants != nil {
				total += len(s.Variants(opts)) * opts.Reps
			}
		}
		var done atomic.Int64
		user := opts.Progress
		opts.Progress = func(_, _ int) {
			user(int(done.Add(1)), total)
		}
	}

	type outcome struct {
		rep     *report.Report
		err     error
		elapsed time.Duration
	}
	outs := make([]outcome, len(specs))
	ready := make([]chan struct{}, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		ready[i] = make(chan struct{})
		wg.Add(1)
		go func(i int, s *Spec) {
			defer wg.Done()
			defer close(ready[i])
			t0 := time.Now()
			rep, err := s.Report(opts)
			outs[i] = outcome{rep: rep, err: err, elapsed: time.Since(t0)}
			if err != nil {
				pool.Fail(err)
			}
		}(i, s)
	}

	var emitErr error
	stopped := false
	for i := range specs {
		<-ready[i]
		if stopped {
			continue
		}
		if outs[i].err != nil {
			// Emission stops at the first in-order failure, exactly
			// like the sequential loop — even if later specs happened
			// to finish successfully in the meantime.
			stopped = true
			continue
		}
		if err := emit(i, outs[i].rep, outs[i].elapsed); err != nil {
			emitErr = err
			stopped = true
			pool.Fail(err)
		}
	}
	wg.Wait()
	if emitErr != nil {
		return emitErr
	}
	return pool.Err()
}
