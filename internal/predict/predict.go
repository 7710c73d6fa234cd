// Package predict estimates queue waiting times from a snapshot of a
// batch queue, the prediction style the paper discusses in Sections 1
// and 5: "batch schedulers can provide an estimate of queue waiting
// time based on the current state of the queue", computed by
// simulating the queue under requested compute times. Such estimates
// ignore backfilling and assume requested (over-estimated) runtimes,
// so they are conservative; Section 5 quantifies how redundant
// requests degrade them further.
package predict

import (
	"fmt"
	"math"

	"redreq/internal/sched"
)

// RunningEntry is one executing job in a snapshot.
type RunningEntry struct {
	Nodes        int
	RemainingEst float64 // requested time still ahead of it
}

// QueueEntry is one pending request in a snapshot.
type QueueEntry struct {
	Nodes    int
	Estimate float64
}

// Snapshot is the externally visible state of one batch queue at one
// instant.
type Snapshot struct {
	TotalNodes int
	Running    []RunningEntry
	Pending    []QueueEntry
}

// FromCluster captures a snapshot of a simulated cluster at the
// cluster's current simulation time.
func FromCluster(c *sched.Cluster) Snapshot {
	now := c.Sim().Now()
	s := Snapshot{TotalNodes: c.Nodes()}
	for _, r := range c.Running() {
		rem := r.Start + r.Estimate - now
		if rem < 0 {
			rem = 0
		}
		s.Running = append(s.Running, RunningEntry{Nodes: r.Nodes, RemainingEst: rem})
	}
	for _, r := range c.Pending() {
		s.Pending = append(s.Pending, QueueEntry{Nodes: r.Nodes, Estimate: r.Estimate})
	}
	return s
}

// Validate checks snapshot consistency.
func (s Snapshot) Validate() error {
	if s.TotalNodes < 1 {
		return fmt.Errorf("predict: snapshot with %d nodes", s.TotalNodes)
	}
	used := 0
	for _, r := range s.Running {
		if r.Nodes < 1 {
			return fmt.Errorf("predict: running entry with %d nodes", r.Nodes)
		}
		used += r.Nodes
	}
	if used > s.TotalNodes {
		return fmt.Errorf("predict: %d nodes running on %d-node snapshot", used, s.TotalNodes)
	}
	for _, q := range s.Pending {
		if q.Nodes < 1 || q.Nodes > s.TotalNodes {
			return fmt.Errorf("predict: pending entry with %d nodes", q.Nodes)
		}
		if q.Estimate <= 0 {
			return fmt.Errorf("predict: pending entry with estimate %v", q.Estimate)
		}
	}
	return nil
}

// overdueHold is how long both predictors take an overdue running job
// (no requested time left) to keep its nodes: its residual is unknown,
// and a minimal epsilon keeps capacity accounting conservative at time
// zero. One value for both, so that Pessimism compares the predictors
// and not their epsilons.
const overdueHold = 1e-6

// profile builds the availability step function implied by running
// jobs' requested ends, relative to now=0.
func (s Snapshot) profile() *sched.Profile {
	p := sched.NewProfile(0, s.TotalNodes)
	for _, r := range s.Running {
		p.AddBusy(0, r.holds(), r.Nodes)
	}
	return p
}

// holds returns how long the scheduler expects r to keep its nodes.
func (r RunningEntry) holds() float64 {
	if r.RemainingEst > 0 {
		return r.RemainingEst
	}
	return overdueHold
}

// WaitForNew predicts the queue waiting time of a hypothetical new
// request appended behind the current queue, anchoring each queued
// request CBF-style at the earliest slot that does not delay any
// earlier-queued request, under requested compute times. This is the
// reservation-based prediction of Section 5.
func (s Snapshot) WaitForNew(nodes int, estimate float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if nodes < 1 || nodes > s.TotalNodes {
		return 0, fmt.Errorf("predict: request for %d nodes on %d-node queue", nodes, s.TotalNodes)
	}
	if estimate <= 0 {
		return 0, fmt.Errorf("predict: non-positive estimate %v", estimate)
	}
	p := s.profile()
	for _, q := range s.Pending {
		anchor := p.FindAnchor(0, q.Estimate, q.Nodes)
		if math.IsInf(anchor, 1) {
			return 0, fmt.Errorf("predict: pending entry cannot fit")
		}
		p.AddBusy(anchor, anchor+q.Estimate, q.Nodes)
	}
	anchor := p.FindAnchor(0, estimate, nodes)
	if math.IsInf(anchor, 1) {
		return 0, fmt.Errorf("predict: request cannot fit")
	}
	return anchor, nil
}

// QueueWaits predicts the waiting time of every pending request in
// queue order under the same CBF-style anchoring.
func (s Snapshot) QueueWaits() ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := s.profile()
	waits := make([]float64, len(s.Pending))
	for i, q := range s.Pending {
		anchor := p.FindAnchor(0, q.Estimate, q.Nodes)
		if math.IsInf(anchor, 1) {
			return nil, fmt.Errorf("predict: pending entry %d cannot fit", i)
		}
		p.AddBusy(anchor, anchor+q.Estimate, q.Nodes)
		waits[i] = anchor
	}
	return waits, nil
}

// MinWait returns the minimum predicted wait over several queue
// snapshots for the same request — the prediction a user holding
// redundant requests would derive (Section 5: "the queue waiting time
// is predicted as the minimum predicted queue waiting time over all
// redundant requests").
func MinWait(snapshots []Snapshot, nodes int, estimate float64) (float64, error) {
	if len(snapshots) == 0 {
		return 0, fmt.Errorf("predict: no snapshots")
	}
	best := math.Inf(1)
	for _, s := range snapshots {
		if nodes > s.TotalNodes {
			continue // this cluster cannot run the job at all
		}
		w, err := s.WaitForNew(nodes, estimate)
		if err != nil {
			return 0, err
		}
		if w < best {
			best = w
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("predict: request fits no snapshot")
	}
	return best, nil
}
