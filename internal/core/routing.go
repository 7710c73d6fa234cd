// Routing policies: how a job picks which remote clusters receive its
// redundant requests — the "which clusters" axis of the policy plane,
// orthogonal to the redundancy Scheme ("how many copies") and the
// sched.Ordering ("what order"). The paper's default is uniform random
// selection ("merely reflects the fact that different users have
// accounts on different clusters"); Table 2 uses a geometrically
// biased distribution; the informed policies (least queue, least work
// left, power of two choices) generalize the metascheduler-inspired
// alternative the paper mentions (Section 3.3). Informed policies read
// the grid information service (internal/gis) — periodic load
// snapshots delayed by the control latency — rather than live cluster
// state, so their information is honestly stale.

package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"redreq/internal/gis"
	"redreq/internal/rng"
	"redreq/internal/sched"
)

// Routing names a remote-cluster routing policy.
type Routing int

const (
	// RouteUniform picks remote clusters uniformly at random.
	RouteUniform Routing = iota
	// RouteBiased picks remote clusters with geometrically decreasing
	// probability: cluster C1 twice as likely as C2, which is twice
	// as likely as C3, and so on (Table 2).
	RouteBiased
	// RouteLeastQueue picks the remote clusters with the shortest
	// published queues, inspired by metascheduler policies [5].
	RouteLeastQueue
	// RouteLeastWork picks the remote clusters with the least
	// published queued work (requested node-seconds still waiting).
	RouteLeastWork
	// RoutePowerTwo samples two eligible clusters per copy and keeps
	// the one with the shorter published queue (power of two choices).
	RoutePowerTwo
)

// Informed reports whether the policy reads cluster load — through
// the grid information service, or live when the effective staleness
// interval is zero (omniscient reads of the clusters themselves).
func (r Routing) Informed() bool {
	switch r {
	case RouteLeastQueue, RouteLeastWork, RoutePowerTwo:
		return true
	}
	return false
}

func (r Routing) String() string {
	switch r {
	case RouteUniform:
		return "uniform"
	case RouteBiased:
		return "biased"
	case RouteLeastQueue:
		return "queuelen"
	case RouteLeastWork:
		return "leastwork"
	case RoutePowerTwo:
		return "po2"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// ParseRouting converts a policy name to a Routing.
func ParseRouting(name string) (Routing, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "uniform":
		return RouteUniform, nil
	case "biased":
		return RouteBiased, nil
	case "queuelen", "queue", "leastqueue":
		return RouteLeastQueue, nil
	case "leastwork", "work":
		return RouteLeastWork, nil
	case "po2", "power2", "powertwo":
		return RoutePowerTwo, nil
	}
	return 0, fmt.Errorf("core: unknown routing policy %q", name)
}

// RoutingStats summarizes the load information consumed by a run's
// routing decisions; all-zero under uninformed policies.
type RoutingStats struct {
	// Decisions counts redundant jobs routed by an informed policy.
	Decisions int64
	// Blind counts load reads that found no visible snapshot yet
	// (reads before the first publish had propagated).
	Blind int64
	// MaxAge is the largest snapshot age (read time minus capture
	// time) observed across all reads: the empirical staleness, which
	// the invariant suite audits against the configured bound
	// (publish interval + control latency).
	MaxAge float64
}

// loadView is what informed routing reads: either the grid information
// service (snapshots delayed by the control latency) or — when the
// effective staleness interval is zero — live cluster state, the
// omniscient behavior. stats, when non-nil, accumulates RoutingStats.
type loadView struct {
	live  []*sched.Cluster
	svc   *gis.Service
	stats *RoutingStats
}

// look returns cluster c's queue length and queued work as visible at
// now under the view's information model.
func (v *loadView) look(c int, now float64) (qlen, work float64) {
	if v.live != nil {
		cl := v.live[c]
		return float64(cl.QueueLen()), cl.QueuedWork()
	}
	st := v.stats
	snap, ok := v.svc.Visible(c, now)
	if !ok {
		if st != nil {
			st.Blind++
		}
		return 0, 0
	}
	if st != nil {
		if age := now - snap.At; age > st.MaxAge {
			st.MaxAge = age
		}
	}
	return float64(snap.Load.QueueLen), snap.Load.QueuedWork
}

// routeScratch is routing's working memory: the eligible list, the
// biased policy's weights and the informed policies' keys. The engine
// owns one and reuses it for every decision, so routing allocates
// nothing once the buffers have grown to the platform's size.
type routeScratch struct {
	eligible []int
	weights  []float64
	keyAt    []float64
}

// appendRemotes appends up to want remote cluster indices for a job
// with the given node demand submitted at home to dst and returns the
// extended slice. Eligibility comes from the ClusterSpecs (only
// clusters large enough for the job); informed policies read view at
// virtual time now. Fewer than want indices are appended when
// eligibility limits the choice. Rng consumption depends only on the
// policy and the eligible set — never on what the view returns — so
// runs that differ only in the information model (staleness, live
// reads) stay paired draw for draw: every later job's redundancy and
// routing draws are the same, and only the decisions that read the
// view can differ.
func (rs *routeScratch) appendRemotes(dst []int, src *rng.Source, pol Routing, specs []ClusterSpec, home, nodes, want int, view *loadView, now float64) []int {
	if want <= 0 {
		return dst
	}
	eligible := rs.eligible[:0]
	for i, cs := range specs {
		if i != home && cs.Nodes >= nodes {
			eligible = append(eligible, i)
		}
	}
	rs.eligible = eligible
	if len(eligible) == 0 {
		return dst
	}
	if want > len(eligible) {
		want = len(eligible)
	}
	switch pol {
	case RouteUniform:
		src.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		return append(dst, eligible[:want]...)
	case RouteBiased:
		// Weight cluster index i by 2^-i; draw without replacement.
		weights := slices.Grow(rs.weights[:0], len(eligible))[:len(eligible)]
		rs.weights = weights
		for k, idx := range eligible {
			weights[k] = pow2neg(idx)
		}
		for ; want > 0; want-- {
			k := src.WeightedChoice(weights)
			dst = append(dst, eligible[k])
			weights[k] = 0
		}
		return dst
	case RouteLeastQueue, RouteLeastWork, RoutePowerTwo:
		if view.stats != nil {
			view.stats.Decisions++
		}
		// Read every eligible cluster's key before any draw, so the
		// read sequence (and the stats it accumulates) is identical
		// across informed policies and independent of the draws. Only
		// eligible entries are written, and only they are read.
		keyAt := slices.Grow(rs.keyAt[:0], len(specs))[:len(specs)]
		rs.keyAt = keyAt
		for _, idx := range eligible {
			q, w := view.look(idx, now)
			if pol == RouteLeastWork {
				keyAt[idx] = w
			} else {
				keyAt[idx] = q
			}
		}
		if pol == RoutePowerTwo {
			return pickPowerTwo(dst, src, eligible, keyAt, want)
		}
		// Smallest published key first; random tie-break via
		// pre-shuffle (the stable sort then keeps shuffle order among
		// equal keys). Keys are queue lengths or work, never NaN.
		src.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		slices.SortStableFunc(eligible, func(a, b int) int {
			return cmp.Compare(keyAt[a], keyAt[b])
		})
		return append(dst, eligible[:want]...)
	default:
		panic("core: unknown routing policy")
	}
}

// pickPowerTwo appends want clusters drawn from pool by repeated
// two-choice sampling without replacement: each round samples two
// distinct pool entries and keeps the one with the smaller key (ties
// break on the lower cluster index, so the outcome is deterministic
// given the draws). A one-entry pool consumes no draws, so the total
// draw count depends only on pool sizes, never on keys. Pool is
// reordered in place.
func pickPowerTwo(dst []int, src *rng.Source, pool []int, keyAt []float64, want int) []int {
	for ; want > 0; want-- {
		if len(pool) == 1 {
			return append(dst, pool[0])
		}
		a := src.IntN(len(pool))
		b := src.IntN(len(pool) - 1)
		if b >= a {
			b++
		}
		best := a
		if keyAt[pool[b]] < keyAt[pool[a]] ||
			(keyAt[pool[b]] == keyAt[pool[a]] && pool[b] < pool[a]) {
			best = b
		}
		dst = append(dst, pool[best])
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return dst
}

func pow2neg(i int) float64 {
	w := 1.0
	for ; i > 0 && w > 1e-300; i-- {
		w /= 2
	}
	return w
}
