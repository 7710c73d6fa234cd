// Package core implements the paper's primary contribution: a
// multi-cluster platform in which jobs may issue redundant batch
// requests. Each job submits one request to its local cluster and,
// under a redundant request scheme, identical copies to remote
// clusters; when the first copy is granted compute nodes, all other
// copies are canceled (the callback protocol of Section 1). The engine
// drives N `sched.Cluster` instances over a shared discrete-event
// simulation and records the per-job timelines from which the paper's
// metrics are computed.
package core

import "fmt"

// Scheme is a redundant request scheme: how many clusters receive a
// copy of each job's request (Section 3.3 evaluates R2, R3, R4, HALF,
// and ALL against the no-redundancy baseline).
type Scheme int

const (
	// SchemeNone submits only to the local cluster.
	SchemeNone Scheme = iota
	// SchemeR2 submits to the local cluster and one remote.
	SchemeR2
	// SchemeR3 submits to the local cluster and two remotes.
	SchemeR3
	// SchemeR4 submits to the local cluster and three remotes.
	SchemeR4
	// SchemeHalf submits to half of the clusters.
	SchemeHalf
	// SchemeAll submits to every cluster.
	SchemeAll
)

// Schemes lists the redundant schemes in the paper's order.
var Schemes = []Scheme{SchemeR2, SchemeR3, SchemeR4, SchemeHalf, SchemeAll}

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "NONE"
	case SchemeR2:
		return "R2"
	case SchemeR3:
		return "R3"
	case SchemeR4:
		return "R4"
	case SchemeHalf:
		return "HALF"
	case SchemeAll:
		return "ALL"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Copies returns the number of clusters that receive a request under
// the scheme on an n-cluster platform (at least 1, at most n). HALF
// rounds up, so HALF on 2 clusters still spans 1 cluster only when
// n/2 < 1 never happens; on odd n it spans (n+1)/2.
func (s Scheme) Copies(n int) int {
	var k int
	switch s {
	case SchemeNone:
		k = 1
	case SchemeR2:
		k = 2
	case SchemeR3:
		k = 3
	case SchemeR4:
		k = 4
	case SchemeHalf:
		k = (n + 1) / 2
	case SchemeAll:
		k = n
	default:
		panic("core: unknown scheme")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}
