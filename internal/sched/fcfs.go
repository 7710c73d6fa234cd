// Queue-state wait prediction for FCFS and EASY clusters
// (Config.Predict): the start time a deployed scheduler would promise a
// request at submission, found by placing the queue in strict arrival
// order on the running set's requested ends.

package sched

import "math"

// buildRunningProfile returns the free-node profile implied by the
// running set, assuming every running job holds its nodes until its
// requested end (the scheduler does not know actual runtimes): one
// segment per distinct requested end after now, appended in the
// running set's own order. The returned profile is the cluster's
// scratch profile, valid only until the next call, so steady-state
// predictions do not allocate.
func (c *Cluster) buildRunningProfile(now float64) *Profile {
	p := c.scratch
	if p == nil {
		p = new(Profile)
		c.scratch = p
	}
	released, i := c.releasedBy(now)
	avail := c.free + released
	p.Reset(now, avail)
	for i < len(c.running) {
		end, n, next := c.nextRelease(i)
		avail += n
		p.times = append(p.times, end)
		p.avail = append(p.avail, avail)
		i = next
	}
	return p
}

// predictNew records a queue-state wait prediction for every request
// that does not have one yet. Matching the prediction method the paper
// describes for deployed schedulers (Section 1 and Section 5), the
// estimate assumes strict queue order and requested compute times and
// ignores backfilling, so it is typically pessimistic.
func (c *Cluster) predictNew() {
	anyNew := false
	for _, r := range c.queue {
		if r != nil && r.State == Pending && math.IsNaN(r.Reserved) {
			anyNew = true
			break
		}
	}
	if !anyNew {
		return
	}
	now := c.sim.Now()
	p := c.buildRunningProfile(now)
	for _, r := range c.queue {
		if r == nil || r.State != Pending {
			continue
		}
		anchor := p.FindAnchor(now, r.Estimate, r.Nodes)
		p.AddBusy(anchor, anchor+r.Estimate, r.Nodes)
		if math.IsNaN(r.Reserved) {
			r.Reserved = anchor
		}
	}
}
