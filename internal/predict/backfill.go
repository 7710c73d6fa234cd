// Backfill-aware prediction: Section 5 notes that queue waiting time
// "can be estimated via a simulation of the batch queue" (the
// show_guess command of the S-Cubed portal). The plain queue-order
// predictor ignores backfilling and is therefore pessimistic; this
// variant simulates the EASY schedule under requested compute times,
// so a narrow short request behind a blocked wide head is predicted to
// jump ahead, as it would in the real scheduler.

package predict

import (
	"fmt"
	"math"

	"redreq/internal/sched"
)

// WaitForNewEASY predicts the queue waiting time of a new request
// appended behind the snapshot's queue by simulating EASY backfilling
// with requested compute times standing in for actual runtimes.
func (s Snapshot) WaitForNewEASY(nodes int, estimate float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if nodes < 1 || nodes > s.TotalNodes {
		return 0, fmt.Errorf("predict: request for %d nodes on %d-node queue", nodes, s.TotalNodes)
	}
	if estimate <= 0 {
		return 0, fmt.Errorf("predict: non-positive estimate %v", estimate)
	}
	waits, err := s.simulateEASY(QueueEntry{Nodes: nodes, Estimate: estimate})
	if err != nil {
		return 0, err
	}
	return waits[len(waits)-1], nil
}

// QueueWaitsEASY predicts every pending request's wait under the same
// backfill-aware simulation.
func (s Snapshot) QueueWaitsEASY() ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.simulateEASY()
}

// simulateEASY runs an event-driven EASY simulation in which every job
// runs for exactly its requested time. It returns the predicted wait
// of each pending entry (plus any extra entries appended).
func (s Snapshot) simulateEASY(extra ...QueueEntry) ([]float64, error) {
	type queued struct {
		idx   int
		entry QueueEntry
		start float64
		done  bool
	}
	pendings := make([]*queued, 0, len(s.Pending)+len(extra))
	for i, q := range s.Pending {
		pendings = append(pendings, &queued{idx: i, entry: q})
	}
	for _, q := range extra {
		pendings = append(pendings, &queued{idx: len(pendings), entry: q})
	}

	type running struct {
		end   float64
		nodes int
	}
	var run []running
	free := s.TotalNodes
	for _, r := range s.Running {
		run = append(run, running{r.holds(), r.Nodes})
		free -= r.Nodes
	}

	queue := append([]*queued(nil), pendings...)
	now := 0.0

	pass := func() {
		for {
			// Start in order while the head fits.
			for len(queue) > 0 && queue[0].entry.Nodes <= free {
				j := queue[0]
				queue = queue[1:]
				j.start = now
				j.done = true
				free -= j.entry.Nodes
				run = append(run, running{now + j.entry.Estimate, j.entry.Nodes})
			}
			if len(queue) == 0 || free == 0 {
				return
			}
			head := queue[0]
			prof := sched.NewProfile(now, s.TotalNodes)
			for _, r := range run {
				if r.end > now {
					prof.AddBusy(now, r.end, r.nodes)
				}
			}
			shadow := prof.FindAnchor(now, head.entry.Estimate, head.entry.Nodes)
			prof.AddBusy(shadow, shadow+head.entry.Estimate, head.entry.Nodes)
			started := false
			for qi := 1; qi < len(queue) && free > 0; qi++ {
				j := queue[qi]
				if j.entry.Nodes > free {
					continue
				}
				if prof.FindAnchor(now, j.entry.Estimate, j.entry.Nodes) == now {
					queue = append(queue[:qi], queue[qi+1:]...)
					j.start = now
					j.done = true
					free -= j.entry.Nodes
					run = append(run, running{now + j.entry.Estimate, j.entry.Nodes})
					prof.AddBusy(now, now+j.entry.Estimate, j.entry.Nodes)
					started = true
					qi--
				}
			}
			if !started {
				return
			}
		}
	}

	pass()
	guard := 0
	for len(queue) > 0 {
		// Advance to the next completion.
		next := math.Inf(1)
		for _, r := range run {
			if r.end > now && r.end < next {
				next = r.end
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("predict: simulation stalled with %d pending", len(queue))
		}
		now = next
		w := 0
		for _, r := range run {
			if r.end <= now {
				free += r.nodes
			} else {
				run[w] = r
				w++
			}
		}
		run = run[:w]
		pass()
		guard++
		if guard > 10*len(pendings)+1000 {
			return nil, fmt.Errorf("predict: simulation did not converge")
		}
	}

	waits := make([]float64, len(pendings))
	for i, j := range pendings {
		if !j.done {
			return nil, fmt.Errorf("predict: entry %d never started", i)
		}
		waits[i] = j.start
	}
	return waits, nil
}

// Pessimism compares the two predictors for a hypothetical request:
// it returns the plain queue-order prediction, the backfill-aware
// prediction, and their ratio (>= 1 means the plain predictor is more
// pessimistic, the common case Section 5 describes).
func (s Snapshot) Pessimism(nodes int, estimate float64) (plain, aware, ratio float64, err error) {
	plain, err = s.WaitForNew(nodes, estimate)
	if err != nil {
		return 0, 0, 0, err
	}
	aware, err = s.WaitForNewEASY(nodes, estimate)
	if err != nil {
		return 0, 0, 0, err
	}
	if aware <= 0 {
		if plain <= 0 {
			return plain, aware, 1, nil
		}
		return plain, aware, math.Inf(1), nil
	}
	return plain, aware, plain / aware, nil
}
