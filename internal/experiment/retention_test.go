package experiment_test

import (
	"runtime"
	"testing"
	"time"

	"redreq/internal/core"
	"redreq/internal/experiment"
	"redreq/internal/report"
)

// retainedBound is the live-heap growth a finished fig4 pass may leave
// behind under a fresh memo: its per-run summaries and the job streams
// the memo shares between paired runs. A memo that kept whole Results
// would hold every job record of the spec's matrix, about 50 MiB at
// this scale.
const retainedBound = 16 << 20

// liveHeap returns the bytes of live heap objects. A simulation's
// per-job objects live on its own free lists and die with it, so one
// collection leaves only what the pass retained.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestReportsRetainNoJobRecords runs fig4 at quick scale under a fresh
// memo and, once its report is out, checks that the live heap has not
// grown by the job records of the runs the memo saw. A first pass
// without a memo warms the process-wide caches (the calibration tapes)
// so that only what the measured pass leaves behind is counted.
func TestReportsRetainNoJobRecords(t *testing.T) {
	spec, ok := experiment.Lookup("fig4")
	if !ok {
		t.Fatal("registry has no fig4")
	}
	specs := []*experiment.Spec{spec}
	opts := experiment.Quick()
	opts.Reps = 3
	opts.Workers = 2
	ignore := func(int, *report.Report, time.Duration) error { return nil }
	if err := experiment.Reports(specs, opts, ignore); err != nil {
		t.Fatal(err)
	}

	opts.Cache = core.NewMemo()
	base := liveHeap()
	var grown int64
	err := experiment.Reports(specs, opts, func(int, *report.Report, time.Duration) error {
		grown = liveHeap() - base
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live heap grew %.1f MiB across the pass (memo: %+v)", float64(grown)/(1<<20), opts.Cache.Stats())
	if grown > retainedBound {
		t.Errorf("live heap grew %.1f MiB across fig4, want at most %d MiB: something keeps the runs' job records",
			float64(grown)/(1<<20), retainedBound>>20)
	}
}
