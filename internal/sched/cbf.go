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

// passCBF compresses the reservations when capacity came back early
// (finish, or cancel under CompressOnCancel), then admits.
//
// Every CBF walk leaves behind how far down the queue it got
// (cbfCursor): the slots after it hold only requests submitted since,
// none of them reserved yet. Before it, every pending request holds a
// reservation, and the earliest of those reservations is known without
// a walk in two cases. A compression has just visited each of them in
// queue order, started the due ones and found the earliest of the rest.
// Otherwise, while nothing is due yet (now < timerAt), each holds the
// reservation the last walk left it — only compression moves one — and
// the timer still stands for the earliest of them: Cancel re-arms it
// when it withdraws a request reserved for that instant. A full walk
// would pass over them all without a start and fold in exactly that
// minimum. So the admit walks only the slots from the cursor on, which
// it reaches in the same order against the same profile as the full
// walk, and starts exactly what the full walk would. The whole queue is
// walked only when a reservation is due: the timer fired (timerAction
// rewinds the cursor) or a pass runs at its instant before it fires.
func (c *Cluster) passCBF() {
	now := c.sim.Now()
	c.profile.TrimBefore(now)
	from, next := c.cbfCursor, c.timerAt
	if c.needCompress {
		c.needCompress = false
		next = c.compressCBF(now)
	} else if now >= c.timerAt {
		from, next = 0, math.Inf(1)
	}
	if from > 0 {
		c.cPassesClean.Inc()
	}
	c.admitCBF(now, from, next)
}

// admitCBF is the pass proper: in queue order from slot from on it
// grants a reservation to every request that has none and starts every
// request whose reservation is due, then points the reservation timer at
// the earliest reservation still pending — the walk's own minimum folded
// into next, the one before slot from — and moves the cursor to the end
// of the queue.
func (c *Cluster) admitCBF(now float64, from int, next float64) {
	c.cAdmitSlots.Add(int64(len(c.queue) - from))
	for i := from; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending {
			continue
		}
		if math.IsNaN(r.resStart) {
			c.reserveCBF(r, now)
			if r.State != Pending {
				continue
			}
		} else if r.resStart <= now {
			c.startReserved(r, now)
			continue
		}
		next = min(next, r.resStart)
	}
	c.cbfCursor = len(c.queue)
	if c.timerStale {
		// A start callback withdrew a request of this cluster, perhaps
		// one the walk had already counted.
		c.timerStale = false
		next = c.nextDue()
	}
	c.armTimer(next)
}

// reserveCBF anchors a new request into the persistent profile and
// starts it when the anchor is now; otherwise the pass's timer will.
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

// nextDue returns the reservation that falls due first among the pending
// requests, +Inf when none holds one.
func (c *Cluster) nextDue() float64 {
	at := math.Inf(1)
	for _, r := range c.queue {
		// A request without a reservation (NaN) compares false.
		if r != nil && r.State == Pending && r.resStart < at {
			at = r.resStart
		}
	}
	return at
}

// armTimer points the cluster's reservation timer at the reservation
// that falls due first (+Inf: none, no timer). It keeps the event while
// that instant stays the same, so the timers of clusters due at one
// instant fire in the order they were armed, by the (time, priority,
// insertion) rule of every event; which cluster's pass runs first at
// such an instant decides which copy of a redundant job starts. The
// event it replaces is canceled lazily, but being the earliest
// reservation it is reaped from the event queue soon.
func (c *Cluster) armTimer(at float64) {
	if at == c.timerAt {
		return
	}
	if c.timerEv != nil {
		c.sim.Cancel(c.timerEv)
		c.timerEv = nil
	}
	c.timerAt = at
	if !math.IsInf(at, 1) {
		c.timerEv = c.sim.ScheduleFn(at, 1, timerAction, c)
		c.cTimerArms.Inc()
	}
}

// timerAction fires the reservation timer: the earliest reservation is
// due, so run a pass, which starts every due request via startReserved
// and re-arms the timer for the earliest one left.
func timerAction(a any) {
	c := a.(*Cluster)
	c.timerEv, c.timerAt = nil, math.Inf(1)
	c.cbfCursor = 0
	c.cTimerFires.Inc()
	c.pass()
}

// compressCBF re-anchors every pending reservation in queue order after
// capacity was released, starts every one that is due, and returns the
// earliest reservation it left pending (+Inf: none). For
// each request it asks the profile where the reservation could move to
// if its own allocation were given back (FindEarlierAnchor, which edits
// nothing) and edits the profile only when the answer is earlier than
// the reservation it holds, in one Profile.Move: most probes find
// nothing earlier. The old slot always stays feasible for the request
// that holds it, so reservations only move earlier, preserving CBF's
// promise.
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
func (c *Cluster) compressCBF(now float64) float64 {
	c.cCompressions.Inc()
	next := math.Inf(1)
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
			} else {
				next = min(next, old)
			}
			continue
		}
		c.cCompressMoves.Inc()
		c.profile.Move(old, anchor, r.Estimate, r.Nodes)
		r.resStart = anchor
		// The move vacated [max(old, anchor+Estimate), old+Estimate).
		c.noteRelease(math.Max(old, anchor+r.Estimate), old+r.Estimate)
		if anchor <= now {
			c.startReserved(r, now)
			continue
		}
		next = min(next, anchor)
	}
	return next
}

// Reservation returns the request's current CBF reservation time, or
// NaN when none exists. Exposed for tests outside the package that
// check reservations against a reference (core's tie-floor tests).
func (r *Request) Reservation() float64 { return r.resStart }
