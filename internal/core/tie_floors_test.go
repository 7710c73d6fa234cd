package core_test

import (
	"testing"

	"redreq/internal/core"
	"redreq/internal/des"
	"redreq/internal/obs"
	"redreq/internal/sched"
)

// due returns the cluster's pending requests whose reservation is due by
// at.
func due(c *sched.Cluster, at float64) []*sched.Request {
	var out []*sched.Request
	for _, r := range c.Pending() {
		if r.Reservation() <= at {
			out = append(out, r)
		}
	}
	return out
}

// TestTiedReservationOrderReachesTies steps the configurations of
// TestTiedReservationOrder event by event and counts what makes that
// differential worth its name: instants at which the reservation timers
// of two clusters fire, fires that find several requests due, and
// requests withdrawn by another cluster's pass at the very instant their
// reservation is due, before their own cluster's timer has fired. It
// also holds every fire to finding a request due.
func TestTiedReservationOrderReachesTies(t *testing.T) {
	var fires, multi, tied, withdrawnDue int
	for _, tc := range tieCases() {
		tr := obs.New()
		tc.cfg.Trace = tr
		fired := tr.Counter("sched.timer.fires")
		res, err := core.StepRun(tc.cfg, func(sim *des.Simulation, clusters []*sched.Cluster) {
			lastAt, lastOn, tiedAt := -1.0, -1, -1.0
			passes := make([]int, len(clusters))
			dueOn := make([][]*sched.Request, len(clusters))
			for {
				at, ok := sim.Peek()
				if !ok {
					return
				}
				for i, c := range clusters {
					passes[i], dueOn[i] = c.Stats().Passes, due(c, at)
				}
				before := fired.Value()
				sim.Step()
				passing := -1
				for i, c := range clusters {
					if c.Stats().Passes != passes[i] {
						passing = i
					}
				}
				if fired.Value() != before {
					if passing < 0 || len(dueOn[passing]) == 0 {
						t.Fatalf("%s t=%v: a reservation timer fired with no reservation due (cluster %d)", tc.name, at, passing)
					}
					fires++
					if len(dueOn[passing]) > 1 {
						multi++
					}
					if lastAt == at && lastOn != passing && tiedAt != at {
						tied++
						tiedAt = at
					}
					lastAt, lastOn = at, passing
				}
				for i, rs := range dueOn {
					if i == passing {
						continue
					}
					for _, r := range rs {
						if r.State == sched.Canceled {
							withdrawnDue++
						}
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Stepping is Run: the same outcome as the run the fixture pins.
		tc.cfg.Trace = nil
		want, err := core.Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := tieOutcome(res), tieOutcome(want); got != want {
			t.Fatalf("%s: stepped run %s, Run %s", tc.name, got, want)
		}
	}
	t.Logf("timer fires %d, with several requests due %d; instants with two clusters' timers %d; requests withdrawn by another cluster's pass at the instant they were due %d",
		fires, multi, tied, withdrawnDue)
	for _, floor := range []struct {
		what      string
		got, want int
	}{
		{"timer fires", fires, 15000},
		{"timer fires that found two or more requests due", multi, 3000},
		{"instants at which two clusters' timers fired", tied, 2500},
		{"requests withdrawn by another cluster's pass at the instant they were due", withdrawnDue, 500},
	} {
		if floor.got < floor.want {
			t.Errorf("%s: %d, want at least %d: the configurations no longer tie", floor.what, floor.got, floor.want)
		}
	}
}
