// Queue-ordering policies: the third axis of the policy plane
// (routing x redundancy x ordering). The paper's model is strictly
// FCFS (Section 3.1.1, "no request priorities"); OrderSJF and
// OrderAged reorder the pending queue each pass so experiments can
// ask how much of redundancy's effect a smarter local queue would
// capture. An ordering changes only the order in which passQueue
// reads the pending requests: OrderFCFS reads the queue itself, the
// others a policy-sorted view of it (orderedPending).

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

// held reports whether r's class is at its Config.ClassLimit cap.
func (c *Cluster) held(r *Request) bool {
	if c.classRunning == nil {
		return false
	}
	limit := c.cfg.ClassLimit[r.Class]
	return limit > 0 && c.classRunning[r.Class] >= limit
}
