// Queue-ordering policies: the third axis of the policy plane
// (routing x redundancy x ordering). The paper's model is strictly
// FCFS (Section 3.1.1, "no request priorities"); OrderSJF and
// OrderAged reorder the pending queue each pass so experiments can
// ask how much of redundancy's effect a smarter local queue would
// capture. FCFS keeps the original pass implementations untouched —
// and bit-identical — while the ordered variants run the same start
// and backfill logic over a policy-sorted view of the queue.

package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Ordering selects the order in which a scheduling pass considers
// pending requests.
type Ordering int

const (
	// OrderFCFS considers requests strictly in arrival order (the
	// paper's model, and the only ordering CBF supports: CBF grants
	// reservations at submission, so its queue order is fixed then).
	OrderFCFS Ordering = iota
	// OrderSJF considers shorter requested compute times first
	// (shortest job first; arrival order breaks ties). Favors small
	// jobs at the cost of unbounded delay for large ones.
	OrderSJF
	// OrderAged considers requests by a slowdown-style aged priority,
	// (wait + estimate) / estimate, highest first: short jobs overtake
	// quickly, but every job's priority grows without bound while it
	// waits, so nothing starves.
	OrderAged
	// OrderClass considers requests by Request.Class, lowest first, and
	// in arrival order within a class: the service order of one node
	// pool behind several prioritized queues, one class per queue
	// (Config.ClassLimit caps each queue's running requests). It is
	// for callers that model such a resource, not a policy axis, so
	// ParseOrdering does not name it.
	OrderClass
)

func (o Ordering) String() string {
	switch o {
	case OrderFCFS:
		return "fcfs"
	case OrderSJF:
		return "sjf"
	case OrderAged:
		return "aged"
	case OrderClass:
		return "class"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// ParseOrdering converts a name ("fcfs", "sjf", "aged", any case) to
// an Ordering.
func ParseOrdering(name string) (Ordering, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "fcfs":
		return OrderFCFS, nil
	case "sjf":
		return OrderSJF, nil
	case "aged":
		return OrderAged, nil
	}
	return 0, fmt.Errorf("sched: unknown ordering %q", name)
}

// agedPriority is OrderAged's key: the request's slowdown if it
// started now. Estimates are validated positive at submission.
func agedPriority(r *Request, now float64) float64 {
	return (now - r.Submit + r.Estimate) / r.Estimate
}

// orderedPending rebuilds the cluster's policy-ordered pending view in
// the reusable orderView scratch slice (valid until the next call).
// Sorting is stable over the queue's arrival order, so ties break FCFS.
func (c *Cluster) orderedPending(now float64) []*Request {
	v := c.orderView[:0]
	for _, r := range c.queue {
		if r != nil && r.State == Pending {
			v = append(v, r)
		}
	}
	switch c.cfg.Order {
	case OrderSJF:
		slices.SortStableFunc(v, func(a, b *Request) int {
			return cmp.Compare(a.Estimate, b.Estimate)
		})
	case OrderAged:
		slices.SortStableFunc(v, func(a, b *Request) int {
			return cmp.Compare(agedPriority(b, now), agedPriority(a, now))
		})
	case OrderClass:
		slices.SortStableFunc(v, func(a, b *Request) int {
			return cmp.Compare(a.Class, b.Class)
		})
	}
	c.orderView = v
	return v
}

// passFCFSOrdered is passFCFS over the policy-ordered view: start the
// view head while it fits, block on the first one that does not.
func (c *Cluster) passFCFSOrdered() {
	if c.cfg.Predict {
		c.predictNew()
	}
	view := c.orderedPending(c.sim.Now())
	for _, r := range view {
		if r.State != Pending {
			continue
		}
		if r.Nodes > c.free {
			return
		}
		c.start(r)
	}
}

// held reports whether r's class is at its Config.ClassLimit cap.
func (c *Cluster) held(r *Request) bool {
	if c.classRunning == nil {
		return false
	}
	limit := c.cfg.ClassLimit[r.Class]
	return limit > 0 && c.classRunning[r.Class] >= limit
}

// passEASYOrdered is passEASY over the policy-ordered view: the view
// head gets the shadow reservation, and later view entries backfill
// iff they do not delay it (same one-dip argument as passEASY). A held
// request (see held) is passed over as if it were not queued: it
// neither starts nor becomes the head.
func (c *Cluster) passEASYOrdered() {
	if c.cfg.Predict {
		c.predictNew()
	}
	now := c.sim.Now()
	view := c.orderedPending(now)

	i := 0
	for ; i < len(view); i++ {
		r := view[i]
		if r.State != Pending || c.held(r) {
			continue
		}
		if r.Nodes > c.free {
			break
		}
		c.start(r)
	}

	var head *Request
	for ; i < len(view); i++ {
		if r := view[i]; r.State == Pending && !c.held(r) {
			head = r
			break
		}
	}
	if head == nil || c.free == 0 {
		return
	}

	shadow, shadowFree := c.shadow(now, head.Nodes)
	c.backfilling = true
	for j := i + 1; j < len(view) && c.free > 0; j++ {
		r := view[j]
		if r.State != Pending || r.Nodes > c.free || c.held(r) {
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
}
