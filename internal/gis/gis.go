// Package gis implements the grid information service: every cluster
// periodically publishes a load snapshot (queue depth, queued work,
// free nodes), and informed routing policies read the newest snapshot
// that has had time to propagate. A snapshot captured at time p
// becomes visible at p+delay, where delay is the control-plane
// latency — the information a dispatcher acts on is always at least
// one network trip old, and at most one publish interval older than
// that. This bounded-staleness view replaces live cluster reads: a
// routing decision acts on information a real dispatcher could have
// had, never on another cluster's state at the very instant of the
// decision.
package gis

// Load is one cluster's published load figures.
type Load struct {
	// QueueLen is the number of pending requests.
	QueueLen int
	// QueuedWork is the requested work waiting in the queue, in
	// node-seconds (sum of estimate x nodes over pending requests).
	QueuedWork float64
	// FreeNodes is the number of currently idle nodes.
	FreeNodes int
}

// Snapshot is one published load observation.
type Snapshot struct {
	// At is the capture time; the snapshot is visible from At+delay.
	At   float64
	Load Load
}

// Service stores per-cluster snapshot histories and serves the newest
// visible one. Reads must be nondecreasing in time per Service (the
// engines read at event-fire times, which are), letting Visible run in
// amortized O(1) via a per-cluster cursor.
type Service struct {
	delay float64
	snaps [][]Snapshot
	cur   []int
}

// New returns a service for the given number of clusters with the
// given visibility delay (normally the run's control latency).
func New(clusters int, delay float64) *Service {
	s := &Service{
		delay: delay,
		snaps: make([][]Snapshot, clusters),
		cur:   make([]int, clusters),
	}
	for i := range s.cur {
		s.cur[i] = -1
	}
	return s
}

// Delay returns the visibility delay snapshots incur.
func (s *Service) Delay() float64 { return s.delay }

// Publish records cluster c's load captured at time at. Captures must
// be nondecreasing in time per cluster.
func (s *Service) Publish(c int, at float64, load Load) {
	hist := s.snaps[c]
	if n := len(hist); n > 0 && at < hist[n-1].At {
		panic("gis: publish out of order")
	}
	s.snaps[c] = append(hist, Snapshot{At: at, Load: load})
}

// Visible returns the newest snapshot of cluster c visible at now
// (capture time + delay <= now). ok is false while no snapshot has
// become visible yet.
func (s *Service) Visible(c int, now float64) (Snapshot, bool) {
	hist := s.snaps[c]
	i := s.cur[c]
	for i+1 < len(hist) && hist[i+1].At+s.delay <= now {
		i++
	}
	s.cur[c] = i
	if i < 0 {
		return Snapshot{}, false
	}
	return hist[i], true
}
