// Reports is the registry-wide runner: it runs a list of specs one
// after another over one shared memo, emitting each report as soon as
// its spec finishes. Each spec's matrix spreads over every worker, and
// each worker reduces its simulation to a run summary before taking
// the next, so the job records alive at any moment are those of the
// simulations running, never a spec's whole matrix or the memo's.

package experiment

import (
	"sync/atomic"
	"time"

	"redreq/internal/report"
)

// Reports runs every spec under opts, one at a time, and calls emit
// once per spec, in the order given, with the spec's wall-clock
// time. Memo hits carry across specs: a config an earlier spec ran is
// served from opts.Cache.
//
// The first failure stops the run: Reports returns the failing spec's
// error without starting later specs, after every earlier spec has
// emitted. An error returned by emit stops the run the same way.
//
// opts.Progress, when set, is rewired to aggregate across the run:
// done counts completed simulations registry-wide and total their
// overall count — every matrix spec's, and those a Tables spec states
// (the multiq and moldable comparisons; the other Tables specs report
// no progress and are not counted).
func Reports(specs []*Spec, opts Options, emit func(i int, rep *report.Report, elapsed time.Duration) error) error {
	if opts.Progress != nil {
		total := 0
		for _, s := range specs {
			switch {
			case s.Variants != nil:
				total += len(s.Variants(opts)) * opts.Reps
			case s.tableSims != nil:
				total += s.tableSims(opts)
			}
		}
		var done atomic.Int64
		user := opts.Progress
		opts.Progress = func(_, _ int) {
			user(int(done.Add(1)), total)
		}
	}

	for i, s := range specs {
		t0 := time.Now()
		rep, err := s.Report(opts)
		if err != nil {
			return err
		}
		if err := emit(i, rep, time.Since(t0)); err != nil {
			return err
		}
	}
	return nil
}
