// FCFS and EASY backfilling, the two queue algorithms, in one pass.
// FCFS is the baseline of the paper's Table 1: requests start in queue
// order, and the head blocks every later request until enough nodes
// free up. EASY (Lifka, "The ANL/IBM SP Scheduling System", JSSPP
// 1995) gives the blocked head a reservation at the earliest time it
// could start given running jobs' requested ends; any later request
// may jump ahead if it can run immediately without delaying that
// reservation. The paper calls EASY "representative of algorithms
// running in deployed systems today" and uses it for all Section 3
// experiments unless stated otherwise.

package sched

// passQueue is one FCFS or EASY pass. It reads the pending requests in
// the cluster's order: c.queue itself in arrival order (OrderFCFS), the
// policy-ordered view otherwise. It starts requests in that order while
// the head fits; FCFS stops at the first that does not, and EASY
// reserves that head and backfills behind it. A held request (see held)
// is passed over as if it were not queued: it neither starts nor
// becomes the head.
//
// In arrival order the pass leaves behind what the next pass needs to
// skip the work this one did: the blocked head, the head's reservation
// as the backfills left it, and how far down the queue the backfill
// scan got (Cluster.easyHead and friends). Until a job finishes or that
// head is withdrawn, all that can happen is submissions behind the scan
// and cancels behind the head, so the free nodes have not grown, every
// requested window reaches at least as far past the shadow time as it
// did, and the nodes spare there have only shrunk: each request already
// passed over fails the same two compares again, in the same order.
// Such a clean pass therefore scans only the slots from the cursor on,
// against the remembered reservation, and starts exactly what the full
// pass would; under FCFS it starts nothing. A policy order remembers
// nothing, since a new submission can sort ahead of the cursor.
func (c *Cluster) passQueue() {
	if c.cfg.Predict {
		c.predictNew()
	}
	now := c.sim.Now()
	// The view is taken once. That is safe only because nothing appends
	// to c.queue during its own pass (a Submit from an OnStart callback
	// would; no caller makes one) and compaction waits while inPass is
	// set, so every slot keeps its index until the pass ends.
	view, resume := c.queue, c.cfg.Order == OrderFCFS
	if !resume {
		view = c.orderedPending(now)
	}
	fcfs := c.cfg.Alg == FCFS

	head, j := c.easyHead, c.easyCursor
	shadow, shadowFree := c.easyShadow, c.easyShadowFree
	if head != nil {
		c.cPassesClean.Inc()
		if fcfs || c.free == 0 {
			return
		}
	} else {
		// Start requests in order while the head fits.
		i := 0
		for ; i < len(view); i++ {
			r := view[i]
			if r == nil || r.State != Pending || c.held(r) {
				continue
			}
			if r.Nodes > c.free {
				break
			}
			c.start(r)
		}
		if i == len(view) {
			return
		}
		head, j = view[i], i+1
		if resume {
			// Remembered before the backfills so that an OnStart
			// callback withdrawing the head mid-pass makes the next
			// pass a full one.
			c.easyHead, c.easyCursor = head, j
		}
		if fcfs || c.free == 0 {
			// No reservation to remember: FCFS never backfills, and
			// free nodes cannot come back without a finish, which
			// makes the next pass a full one.
			return
		}

		// Reserve the head at its shadow time, then backfill requests
		// that fit right now for their full requested duration without
		// pushing the head reservation back.
		//
		// Free capacity only grows with time — every busy interval of
		// the pass (running jobs, earlier backfills) starts at now — so
		// reserving the head introduces exactly one dip: shadowFree nodes
		// free just after shadow. A candidate therefore backfills iff it
		// fits the free nodes now (c.free, already checked) and, when its
		// requested window crosses shadow, also fits shadowFree: two
		// compares per candidate, no availability profile.
		shadow, shadowFree = c.shadow(now, head.Nodes)
	}

	c.backfilling = true
	for ; j < len(view) && c.free > 0; j++ {
		r := view[j]
		if r == nil || r.State != Pending || r.Nodes > c.free || c.held(r) {
			continue
		}
		if crosses := now+r.Estimate > shadow; !crosses || r.Nodes <= shadowFree {
			c.start(r)
			if crosses {
				shadowFree -= r.Nodes
			}
		}
	}
	c.backfilling = false
	if resume {
		c.easyShadow, c.easyShadowFree, c.easyCursor = shadow, shadowFree, j
	}
}

// shadow returns the earliest time at which nodes are free if every
// running request holds its nodes until its requested end, and how many
// more than nodes are free at that time. Capacity only comes back as
// time passes, so the first requested end at which enough has come back
// is the anchor Profile.FindAnchor would return for any duration, and
// the walk stops there: O(requests ending by the shadow time).
func (c *Cluster) shadow(now float64, nodes int) (at float64, spare int) {
	released, i := c.releasedBy(now)
	at, avail := now, c.free+released
	for avail < nodes {
		end, n, next := c.nextRelease(i)
		at, avail, i = end, avail+n, next
	}
	return at, avail - nodes
}
