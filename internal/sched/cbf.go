// Conservative Backfilling (Mu'alem and Feitelson, "Utilization,
// Predictability, Workloads, and User Runtime Estimates in Scheduling
// the IBM SP2 with Backfilling", TPDS 2001): every request receives a
// reservation at submission — the earliest anchor at which it fits for
// its full requested duration without delaying any earlier reservation.
// When a job completes earlier than requested, reservations are
// "compressed": each queued request, in queue order, is re-anchored and
// moves only earlier, so the start time promised at submission is never
// violated. The paper uses CBF both as an alternative algorithm
// (Table 1) and as the source of queue-waiting-time predictions
// (Table 4).

package sched

import (
	"fmt"
	"math"
)

func (c *Cluster) passCBF() {
	now := c.sim.Now()
	c.profile.TrimBefore(now)
	if c.needCompress {
		c.needCompress = false
		c.compressCBF(now)
	}
	for i := 0; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending {
			continue
		}
		if math.IsNaN(r.resStart) {
			c.reserveCBF(r, now)
		} else if r.resStart <= now {
			c.startReserved(r, now)
		}
	}
}

// reserveCBF anchors a new request into the persistent profile and
// either starts it immediately or arms a timer for its reservation.
func (c *Cluster) reserveCBF(r *Request, now float64) {
	anchor := c.profile.FindAnchor(now, r.Estimate, r.Nodes)
	if math.IsInf(anchor, 1) {
		panic(fmt.Sprintf("sched: %s: no anchor for %d-node request on %d-node cluster", c.Name, r.Nodes, c.cfg.Nodes))
	}
	c.profile.AddBusy(anchor, anchor+r.Estimate, r.Nodes)
	r.resStart = anchor
	c.cReservations.Inc()
	if math.IsNaN(r.Reserved) {
		r.Reserved = anchor
	}
	if anchor <= now {
		c.startReserved(r, now)
	} else {
		c.armTimer(r, anchor)
	}
}

// startReserved starts a request whose reservation time has arrived.
// The profile already carries its allocation from resStart, which
// equals now for on-time and compressed starts.
func (c *Cluster) startReserved(r *Request, now float64) {
	if r.Nodes > c.free {
		panic(fmt.Sprintf("sched: %s: CBF reservation due at %v but only %d/%d nodes free",
			c.Name, now, c.free, r.Nodes))
	}
	c.start(r)
}

func (c *Cluster) armTimer(r *Request, at float64) {
	if r.startEv != nil {
		c.sim.Cancel(r.startEv)
	}
	r.startEv = c.sim.ScheduleFn(at, 1, timerAction, r)
}

// timerAction fires a CBF reservation timer: the reservation is due,
// so run a pass (which will start the request via startReserved).
func timerAction(a any) {
	r := a.(*Request)
	r.startEv = nil
	r.cluster.pass()
}

// compressCBF re-anchors every pending reservation in queue order after
// capacity was released. For each request it asks the profile where the
// reservation could move to if its own allocation were given back
// (FindEarlierAnchor, which edits nothing) and rewrites the profile only
// when the answer is earlier than the reservation it holds: most probes
// find nothing earlier, and removing an allocation and adding it back
// where it was leaves the profile — canonical after every AddBusy — as
// it found it. The old slot always stays feasible for the request that
// holds it, so reservations only move earlier, preserving CBF's promise.
//
// The search is bounded by the released-capacity window [relStart,
// relEnd) the cluster has accumulated since the last compression: an
// anchor earlier than a request's current reservation can only have
// become feasible if its occupancy window [anchor, anchor+Estimate)
// overlaps capacity released since the request was last anchored
// (consumptions never enable earlier anchors). So for each request the
// scan is restricted to anchors in [max(now, relStart-Estimate),
// min(old, relEnd)); when that interval is empty the reservation
// provably cannot move and the profile is not consulted at all.
// Capacity released mid-pass — by compression moves themselves and by
// cancellations fired from start callbacks — widens the live window,
// and is carried into c.relStart/c.relEnd for the next pass because
// requests earlier in the queue were examined before the release.
func (c *Cluster) compressCBF(now float64) {
	c.cCompressions.Inc()
	relStart, relEnd := c.relStart, c.relEnd
	c.relStart, c.relEnd = math.Inf(1), math.Inf(-1)
	for i := 0; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending || math.IsNaN(r.resStart) {
			continue
		}
		old := r.resStart
		lo := math.Min(relStart, c.relStart) - r.Estimate
		if lo < now {
			lo = now
		}
		hi := math.Max(relEnd, c.relEnd)
		if old < hi {
			hi = old
		}
		anchor := math.Inf(1)
		if lo < hi {
			c.cCompressProbes.Inc()
			anchor = c.profile.FindEarlierAnchor(lo, hi, old, r.Estimate, r.Nodes)
		}
		if anchor >= old {
			// Nothing earlier (the probe's +Inf included): the
			// reservation stays and so does the profile. A reservation
			// that is due still starts.
			if old <= now {
				c.startReserved(r, now)
			}
			continue
		}
		c.cCompressMoves.Inc()
		c.profile.AddBusy(old, old+r.Estimate, -r.Nodes)
		c.profile.AddBusy(anchor, anchor+r.Estimate, r.Nodes)
		r.resStart = anchor
		// The move vacated [max(old, anchor+Estimate), old+Estimate).
		c.noteRelease(math.Max(old, anchor+r.Estimate), old+r.Estimate)
		if anchor <= now {
			c.startReserved(r, now)
		} else {
			c.armTimer(r, anchor)
		}
	}
}

// Reservation returns the request's current CBF reservation time, or
// NaN when none exists. Exposed for the predictability experiments.
func (r *Request) Reservation() float64 { return r.resStart }
