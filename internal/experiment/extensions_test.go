package experiment

import (
	"slices"
	"testing"

	"redreq/internal/sched"
	"redreq/internal/workload"
)

// extension is one of the two extensions' scheduler and request policy.
type extension struct {
	name   string
	cfg    sched.Config
	copies copyPolicy
}

// extensionOpts is a small calibrated platform for the runner tests.
func extensionOpts() Options {
	opts := tinyOpts()
	opts.Nodes, opts.Horizon, opts.TargetLoad = 64, 1200, 0.6
	return opts
}

// testExtensionModel is extensionModel for options that must be valid.
func testExtensionModel(t *testing.T, opts Options) *workload.Model {
	t.Helper()
	model, err := extensionModel(opts)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func extensions(opts Options) []extension {
	return []extension{
		{"multiq", multiQueueCluster, queueCopies},
		{"moldable", sched.Config{Alg: sched.EASY}, shapeCopies(opts.Nodes)},
	}
}

// TestQueueCopies checks the short queue's walltime rule: a job whose
// estimate is within an hour goes to the short queue, and also to the
// long one when redundant; a longer one goes to the long queue alone.
func TestQueueCopies(t *testing.T) {
	for _, tc := range []struct {
		estimate  float64
		redundant bool
		want      []int32
	}{
		{1800, false, []int32{shortQueue}},
		{1800, true, []int32{shortQueue, longQueue}},
		{shortMaxEstimate, false, []int32{shortQueue}},
		{shortMaxEstimate + 1, false, []int32{longQueue}},
		{7200, true, []int32{longQueue}},
	} {
		j := workload.Job{Nodes: 4, Runtime: 100, Estimate: tc.estimate}
		rs, err := queueCopies(tc.redundant)(nil, j)
		if err != nil {
			t.Fatal(err)
		}
		var got []int32
		for _, r := range rs {
			if r.Nodes != j.Nodes || r.Runtime != j.Runtime || r.Estimate != j.Estimate {
				t.Errorf("estimate %v: copy %+v does not carry the job's shape", tc.estimate, r)
			}
			got = append(got, r.Class)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("estimate %v, redundant=%v: queues %v, want %v", tc.estimate, tc.redundant, got, tc.want)
		}
	}
}

// TestExtensionRunner runs both extensions' request policies through
// runExtension and checks every job: exactly one copy ran and finished,
// the rest were canceled, a fixed shape never changes, and redundancy
// sends more than one copy.
func TestExtensionRunner(t *testing.T) {
	opts := extensionOpts()
	model := testExtensionModel(t, opts)
	for _, ext := range extensions(opts) {
		t.Run(ext.name, func(t *testing.T) {
			for _, redundant := range []bool{false, true} {
				jobs, err := runExtension(model, opts, 1, ext.cfg, ext.copies(redundant))
				if err != nil {
					t.Fatal(err)
				}
				multi := 0
				for i := range jobs {
					j := &jobs[i]
					for k := range j.copies {
						c := &j.copies[k]
						if won := c == j.winner; won != (c.State == sched.Done) || !won && c.State != sched.Canceled {
							t.Fatalf("redundant=%v job %d: copy %d is %v, winner=%v", redundant, i, k, c.State, won)
						}
						if c.Class == shortQueue && c.Estimate > shortMaxEstimate {
							t.Fatalf("job %d: a %v s estimate in the short queue", i, c.Estimate)
						}
					}
					if len(j.copies) > 1 {
						multi++
					}
					if !redundant && (len(j.copies) != 1 || ext.name == "moldable" && j.winner.Nodes != j.Nodes) {
						t.Fatalf("job %d: %d copies, won on %d nodes of %d without redundancy", i, len(j.copies), j.winner.Nodes, j.Nodes)
					}
				}
				if redundant && multi == 0 {
					t.Error("no job sent more than one copy under redundancy")
				}
			}
		})
	}
}

// TestExtensionDeterministic requires a second run of each extension's
// policies to give every job the same winner and timeline.
func TestExtensionDeterministic(t *testing.T) {
	opts := extensionOpts()
	model := testExtensionModel(t, opts)
	for _, ext := range extensions(opts) {
		t.Run(ext.name, func(t *testing.T) {
			for _, redundant := range []bool{false, true} {
				a, err := runExtension(model, opts, 1, ext.cfg, ext.copies(redundant))
				if err != nil {
					t.Fatal(err)
				}
				b, err := runExtension(model, opts, 1, ext.cfg, ext.copies(redundant))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(a, b, func(a, b extJob) bool {
					return a.winner.Start == b.winner.Start && a.winner.End == b.winner.End && a.winner.Nodes == b.winner.Nodes && a.winner.Class == b.winner.Class
				}) {
					t.Errorf("redundant=%v: two runs differ", redundant)
				}
			}
		})
	}
}

// TestExtensionRefusesBadPlatform requires either extension's policy
// comparison to refuse a platform without nodes or without time.
func TestExtensionRefusesBadPlatform(t *testing.T) {
	for _, ext := range extensions(extensionOpts()) {
		t.Run(ext.name, func(t *testing.T) {
			for _, bad := range []Options{{Nodes: 0, Horizon: 1, Reps: 1}, {Nodes: 4, Horizon: 0, Reps: 1}} {
				if _, err := comparePolicies(bad, ext.cfg, ext.copies, func(*extJob) bool { return false }); err == nil {
					t.Errorf("%d nodes, horizon %v accepted", bad.Nodes, bad.Horizon)
				}
			}
		})
	}
}
