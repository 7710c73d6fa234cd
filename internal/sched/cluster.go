// Package sched implements the batch-scheduling algorithms evaluated by
// the paper: FCFS, EASY backfilling (Lifka, JSSPP 1995), and
// Conservative Backfilling (Mu'alem and Feitelson, TPDS 2001). A
// Cluster models one site: a fixed pool of identical nodes managed by a
// single-queue batch scheduler with no request priorities (Section
// 3.1.1). Schedulers react to request submissions, cancellations, and
// job completions — the three event kinds that trigger (re)scheduling
// and backfilling in the paper's model.
package sched

import (
	"fmt"
	"math"
	"slices"

	"redreq/internal/des"
	"redreq/internal/obs"
)

// Algorithm selects the job scheduling algorithm of a cluster.
type Algorithm int

const (
	// FCFS starts requests strictly in arrival order.
	FCFS Algorithm = iota
	// EASY backfills requests that do not delay the queue head's
	// earliest possible start time.
	EASY
	// CBF (Conservative Backfilling) gives every request a
	// reservation at submission and backfills only when no existing
	// reservation is delayed.
	CBF
)

func (a Algorithm) String() string {
	switch a {
	case FCFS:
		return "FCFS"
	case EASY:
		return "EASY"
	case CBF:
		return "CBF"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// State is the lifecycle state of a Request at one cluster.
type State int

const (
	// Pending requests wait in the queue.
	Pending State = iota
	// Running requests hold nodes.
	Running
	// Done requests completed execution.
	Done
	// Canceled requests were withdrawn while pending.
	Canceled
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Request is one job request at one cluster. When redundant requests
// are in use, several Requests across clusters share a JobID; exactly
// one of them runs.
type Request struct {
	// JobID identifies the (grid) job this request belongs to.
	JobID int64
	// Owner is an opaque slot for the submitter's per-job bookkeeping
	// (the redundant-request engine keeps its grid-job record here,
	// replacing a request-to-job map on the hot path); the scheduler
	// never reads or writes it.
	Owner any
	// Nodes is the number of compute nodes requested.
	Nodes int
	// Runtime is the job's actual execution time in seconds; the
	// scheduler does not see it until the job finishes.
	Runtime float64
	// Estimate is the requested compute time in seconds
	// (Estimate >= Runtime).
	Estimate float64

	// Submit, Start, and End record the request's timeline at this
	// cluster; Start and End are NaN until the transition happens.
	Submit, Start, End float64
	// Reserved is the start time predicted at submission: the CBF
	// reservation, or the EASY/FCFS queue-simulation estimate when
	// prediction is enabled. NaN when no prediction was made.
	Reserved float64
	// State is the current lifecycle state.
	State State

	cluster  *Cluster
	resStart float64 // current CBF reservation
	finishEv *des.Event
	queued   bool
	// Class is the request's queue on a cluster that serves several
	// (OrderClass and Config.ClassLimit); other clusters ignore it. It
	// sits here, in the padding after queued, to keep Request's size.
	Class int32
	slot  int // index in cluster.queue while queued; -1 otherwise
}

// Wait returns the request's queue waiting time; it panics if the
// request has not started.
func (r *Request) Wait() float64 {
	if r.State != Running && r.State != Done {
		panic("sched: Wait on request that never started")
	}
	return r.Start - r.Submit
}

// Cluster returns the cluster the request was submitted to, or nil.
func (r *Request) Cluster() *Cluster { return r.cluster }

// requestedEnd is when a running request gives its nodes back as far
// as the scheduler knows: it does not see actual runtimes.
func (r *Request) requestedEnd() float64 { return r.Start + r.Estimate }

// Config configures one cluster's scheduler.
type Config struct {
	// Nodes is the number of identical compute nodes.
	Nodes int
	// Alg is the scheduling algorithm.
	Alg Algorithm
	// DisableCancelBackfill suppresses the scheduling pass normally
	// triggered by a cancellation (ablation: the paper notes
	// backfilling may happen when a request is canceled).
	DisableCancelBackfill bool
	// DisableCompression suppresses CBF re-reservation after early
	// completions (ablation; reservations then never move earlier on
	// completion, only new holes get filled by new submissions).
	DisableCompression bool
	// CompressOnCancel extends CBF compression to cancellations
	// (more churn, tighter schedules; off by default because
	// cancellations already release their own profile allocation).
	CompressOnCancel bool
	// Predict computes Reserved for EASY and FCFS requests at
	// submission by simulating the queue (CBF always records its
	// reservation).
	Predict bool
	// Order is the queue-ordering policy applied by FCFS and EASY
	// passes (OrderFCFS reproduces the paper). CBF supports only
	// OrderFCFS: its reservations are granted at submission, before
	// any reordering could apply.
	Order Ordering
	// ClassLimit caps the running requests of each class: ClassLimit[k]
	// of class k at once, 0 for no cap. A request whose class is at its
	// cap neither starts nor blocks the pass: it is held, the PBS-style
	// per-queue slot limit. Only EASY with an ordering other than
	// OrderFCFS honours it; when it is set, every request's Class must
	// index it.
	ClassLimit []int
}

// Stats aggregates per-cluster counters.
type Stats struct {
	Submitted  int
	Canceled   int
	Started    int
	Finished   int
	MaxQueue   int
	MaxRunning int
	Passes     int
	// BusyCPUSeconds is the node-seconds consumed by completed
	// requests (runtime x nodes, accumulated at finish). It is the
	// scheduler's own CPU-time ledger, kept independently of the
	// engine's per-job records so the invariant suite can balance
	// useful work plus orphaned work against ground truth. Requests
	// still running when a truncated (StopAtHorizon) run ends are not
	// counted.
	BusyCPUSeconds float64
}

// Cluster is one batch-scheduled site.
type Cluster struct {
	// Name identifies the cluster in output.
	Name string
	// Index is the cluster's position in the platform.
	Index int

	sim  *des.Simulation
	cfg  Config
	free int

	queue []*Request // arrival order; may contain nil holes
	holes int
	// running is ordered by requested end, ties in start order, so an
	// EASY pass reads the head's shadow time off a prefix of it
	// (shadow) instead of rebuilding a Profile.
	running []*Request

	// queuedWork tracks the pending queue's requested work in
	// node-seconds (sum of estimate x nodes), maintained incrementally
	// on submit/start/cancel; published to the grid information
	// service for work-aware routing.
	queuedWork float64

	// orderView is the reusable policy-ordered pending view built by
	// orderedPending for non-FCFS passes.
	orderView []*Request
	// classRunning counts the running requests of each class; nil when
	// Config.ClassLimit is.
	classRunning []int

	// What the last passQueue in arrival order left behind (see there).
	// easyHead is the queue head it found blocked, nil when the next pass
	// must be a full one: finish clears it, and so does Cancel when the
	// head itself is withdrawn. While it is set an EASY pass resumes the
	// backfill scan at queue index easyCursor against the head's
	// reservation as the earlier backfills left it (easyShadow,
	// easyShadowFree), and an FCFS pass has nothing to do.
	easyHead       *Request
	easyShadow     float64
	easyShadowFree int
	easyCursor     int

	// CBF persistent profile (running allocations + reservations).
	profile *Profile
	// cbfCursor is the queue slot the last CBF admit walk stopped at:
	// only requests submitted since sit after it (see passCBF).
	cbfCursor    int
	needCompress bool
	inPass       bool
	needCompact  bool

	// Released-capacity window since the last CBF compression pass:
	// [relStart, relEnd) bounds the union of every interval over which
	// availability increased (early completions, cancellations, and
	// compression moves). Compression only searches for earlier
	// anchors where that window could admit one; (+Inf, -Inf) means no
	// capacity was released.
	relStart, relEnd float64

	// The CBF reservation timer: one event per cluster, due at timerAt,
	// the earliest resStart in the queue (+Inf, and no event, when no
	// request holds a reservation). A pass re-arms it on its way out
	// (admitCBF); a Cancel between passes re-arms it at once when it
	// withdrew a request reserved for timerAt, and one inside a pass
	// sets timerStale for the pass to rescan, since its walk may already
	// have counted the request.
	timerEv    *des.Event
	timerAt    float64
	timerStale bool

	// scratch is predictNew's reusable availability profile
	// (buildRunningProfile); reusing it keeps predicting passes
	// allocation-free after warmup.
	scratch *Profile

	kickEv *des.Event

	// OnStart is called when a request begins execution, before its
	// finish event is scheduled. OnFinish is called when it
	// completes. Either may be nil.
	OnStart  func(*Request)
	OnFinish func(*Request)

	stats Stats

	// Trace instruments, resolved once by SetTrace; nil (free no-ops)
	// when tracing is off. backfilling flags starts made by the EASY
	// backfill loop so start() can attribute them.
	sQueueDepth     *obs.Series
	cStartsInOrder  *obs.Counter
	cStartsBackfill *obs.Counter
	cPassesClean    *obs.Counter
	cReservations   *obs.Counter
	cCompressions   *obs.Counter
	cCompressProbes *obs.Counter
	cCompressMoves  *obs.Counter
	cAdmitSlots     *obs.Counter
	cTimerArms      *obs.Counter
	cTimerFires     *obs.Counter
	backfilling     bool
}

// NewCluster creates a cluster attached to sim. It panics on an
// invalid configuration.
func NewCluster(sim *des.Simulation, name string, index int, cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("sched: cluster needs at least one node")
	}
	if cfg.Alg == CBF && cfg.Order != OrderFCFS {
		panic("sched: CBF supports only FCFS ordering")
	}
	if cfg.ClassLimit != nil && (cfg.Alg != EASY || cfg.Order == OrderFCFS || slices.ContainsFunc(cfg.ClassLimit, func(n int) bool { return n < 0 })) {
		panic("sched: class limits need EASY, an ordering other than FCFS and no negative cap")
	}
	c := &Cluster{
		Name:     name,
		Index:    index,
		sim:      sim,
		cfg:      cfg,
		free:     cfg.Nodes,
		relStart: math.Inf(1),
		relEnd:   math.Inf(-1),
		timerAt:  math.Inf(1),
		// Every running request holds at least one node, so the set
		// never outgrows Nodes: with this capacity (up to 1024 nodes)
		// insertRunning never regrows it.
		running: make([]*Request, 0, min(cfg.Nodes, 1024)),
	}
	if cfg.Alg == CBF {
		c.profile = NewProfile(sim.Now(), cfg.Nodes)
	}
	if cfg.ClassLimit != nil {
		c.classRunning = make([]int, len(cfg.ClassLimit))
	}
	return c
}

// SetTrace attaches trace instruments to the cluster: a
// sched.<name>.queue_depth virtual-time series sampled on every queue
// transition, counters sched.starts.in_order and sched.starts.backfill
// splitting start decisions by how they were made, sched.passes.clean
// (FCFS and EASY passes in arrival order and CBF passes that only
// scanned the submissions since the pass before), sched.reservations
// (CBF reservations granted), sched.compressions (CBF compression
// passes), sched.compress.probes
// (reservations those passes searched an earlier anchor for),
// sched.compress.moves (the probes that found one, each a profile
// edit), sched.admit.slots (queue slots CBF admit walks visited,
// holes included), sched.timer.arms (times
// the cluster's CBF reservation timer was scheduled) and
// sched.timer.fires (times it fell due and ran a pass). A nil trace
// detaches them.
func (c *Cluster) SetTrace(t *obs.Trace) {
	if t == nil {
		c.sQueueDepth, c.cStartsInOrder, c.cStartsBackfill = nil, nil, nil
		c.cPassesClean, c.cReservations, c.cCompressions = nil, nil, nil
		c.cCompressProbes, c.cCompressMoves, c.cAdmitSlots = nil, nil, nil
		c.cTimerArms, c.cTimerFires = nil, nil
		return
	}
	c.sQueueDepth = t.Series("sched." + c.Name + ".queue_depth")
	c.cStartsInOrder = t.Counter("sched.starts.in_order")
	c.cStartsBackfill = t.Counter("sched.starts.backfill")
	c.cPassesClean = t.Counter("sched.passes.clean")
	c.cReservations = t.Counter("sched.reservations")
	c.cCompressions = t.Counter("sched.compressions")
	c.cCompressProbes = t.Counter("sched.compress.probes")
	c.cCompressMoves = t.Counter("sched.compress.moves")
	c.cAdmitSlots = t.Counter("sched.admit.slots")
	c.cTimerArms = t.Counter("sched.timer.arms")
	c.cTimerFires = t.Counter("sched.timer.fires")
}

// sampleQueueDepth records the pending-queue depth at the current
// virtual time; no-op when tracing is off.
func (c *Cluster) sampleQueueDepth() {
	if c.sQueueDepth == nil {
		return
	}
	c.sQueueDepth.Sample(c.sim.Now(), float64(c.QueueLen()))
}

// Nodes returns the cluster's node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Free returns the number of currently free nodes.
func (c *Cluster) Free() int { return c.free }

// QueueLen returns the number of pending requests.
func (c *Cluster) QueueLen() int { return len(c.queue) - c.holes }

// QueuedWork returns the pending queue's requested work in
// node-seconds (sum of estimate x nodes over pending requests).
func (c *Cluster) QueuedWork() float64 { return c.queuedWork }

// Stats returns a copy of the cluster's counters.
func (c *Cluster) Stats() Stats { return c.stats }

// Submit enqueues r at the current simulation time. The request must
// not have been submitted elsewhere.
func (c *Cluster) Submit(r *Request) {
	if r.cluster != nil {
		panic("sched: request already submitted to a cluster")
	}
	if r.Nodes < 1 || r.Nodes > c.cfg.Nodes {
		panic(fmt.Sprintf("sched: request for %d nodes on %d-node cluster %s", r.Nodes, c.cfg.Nodes, c.Name))
	}
	if r.Estimate < r.Runtime {
		panic("sched: estimate below actual runtime")
	}
	if c.classRunning != nil && (r.Class < 0 || int(r.Class) >= len(c.classRunning)) {
		panic(fmt.Sprintf("sched: request of class %d on %s, which limits %d classes", r.Class, c.Name, len(c.classRunning)))
	}
	if c.cfg.Alg == CBF && r.Estimate <= 0 {
		// A zero-length reservation holds nothing in the profile while
		// the request holds nodes for the rest of the pass that starts
		// it, so the next reservation due in that pass finds too few free.
		panic(fmt.Sprintf("sched: CBF cannot reserve a request with estimate %v on %s: it needs a positive requested time", r.Estimate, c.Name))
	}
	r.cluster = c
	r.Submit = c.sim.Now()
	r.Start = math.NaN()
	r.End = math.NaN()
	r.Reserved = math.NaN()
	r.resStart = math.NaN()
	r.State = Pending
	r.queued = true
	r.slot = len(c.queue)
	c.queue = append(c.queue, r)
	c.queuedWork += r.Estimate * float64(r.Nodes)
	c.stats.Submitted++
	if q := c.QueueLen(); q > c.stats.MaxQueue {
		c.stats.MaxQueue = q
	}
	c.sampleQueueDepth()
	c.kick()
}

// Cancel withdraws a pending request and reports whether it was
// removed. Canceling a running, finished, or already-canceled request
// returns false (the paper's protocol only cancels redundant copies
// that have not started).
func (c *Cluster) Cancel(r *Request) bool {
	if r.cluster != c {
		panic("sched: cancel on wrong cluster")
	}
	if r.State != Pending {
		return false
	}
	r.State = Canceled
	if r == c.easyHead {
		c.easyHead = nil
	}
	c.removeFromQueue(r)
	c.queuedWork -= r.Estimate * float64(r.Nodes)
	c.stats.Canceled++
	c.sampleQueueDepth()
	if c.cfg.Alg == CBF {
		if res := r.resStart; !math.IsNaN(res) {
			// Release the reservation's profile allocation.
			c.profile.AddBusy(res, res+r.Estimate, -r.Nodes)
			c.noteRelease(res, res+r.Estimate)
			r.resStart = math.NaN()
			if c.inPass {
				c.timerStale = true
			} else if res == c.timerAt {
				// The timer may have stood for r alone. Not left to the
				// kick below: when another cluster's pass at this very
				// instant withdrew r, the timer is queued ahead of that
				// kick and would fire with nothing due.
				c.armTimer(c.nextDue())
			}
		}
		if c.cfg.CompressOnCancel && !c.cfg.DisableCompression {
			c.needCompress = true
		}
	}
	if !c.cfg.DisableCancelBackfill {
		c.kick()
	}
	return true
}

// removeFromQueue clears the request's queue slot in O(1) using the
// index recorded at Submit and maintained by compactQueue. Under
// SchemeAll most requests leave the queue through this path (all but
// one copy per job is canceled), so a linear scan here is quadratic
// over a saturated queue.
func (c *Cluster) removeFromQueue(r *Request) {
	if !r.queued {
		return
	}
	r.queued = false
	if r.slot < 0 || r.slot >= len(c.queue) || c.queue[r.slot] != r {
		panic(fmt.Sprintf("sched: %s: corrupt queue slot %d for job %d", c.Name, r.slot, r.JobID))
	}
	c.queue[r.slot] = nil
	r.slot = -1
	c.holes++
	if c.holes > 64 && c.holes*4 > len(c.queue) {
		if c.inPass {
			// Passes iterate the queue by index; defer compaction.
			c.needCompact = true
		} else {
			c.compactQueue()
		}
	}
}

// compactQueue squeezes the nil holes out of the queue and moves
// passQueue's scan cursor and admitCBF's along with the slots they
// pointed at.
func (c *Cluster) compactQueue() {
	w, easy, cbf := 0, 0, 0
	for i, q := range c.queue {
		if q != nil {
			c.queue[w] = q
			q.slot = w
			w++
			if i < c.easyCursor {
				easy = w
			}
			if i < c.cbfCursor {
				cbf = w
			}
		}
	}
	c.easyCursor, c.cbfCursor = easy, cbf
	for i := w; i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = c.queue[:w]
	c.holes = 0
}

// kick schedules a coalesced scheduling pass at the current time. The
// pass runs at priority 1 so all same-time submissions, completions,
// and cancellations are visible to a single pass.
func (c *Cluster) kick() {
	if c.kickEv != nil {
		return
	}
	c.kickEv = c.sim.ScheduleFn(c.sim.Now(), 1, kickAction, c)
}

// kickAction and finishAction are the package-level event actions of
// the two per-job hot paths; ScheduleFn with these never allocates.
func kickAction(a any) {
	c := a.(*Cluster)
	c.kickEv = nil
	c.pass()
}

func finishAction(a any) {
	r := a.(*Request)
	r.cluster.finish(r)
}

// pass runs one scheduling pass for the cluster's algorithm.
func (c *Cluster) pass() {
	c.stats.Passes++
	c.inPass = true
	if c.cfg.Alg == CBF {
		c.passCBF()
	} else {
		c.passQueue()
	}
	c.inPass = false
	if c.needCompact {
		c.needCompact = false
		c.compactQueue()
	}
}

// start transitions r to Running, allocates nodes, notifies OnStart,
// and schedules completion after the actual runtime.
func (c *Cluster) start(r *Request) {
	if r.State != Pending {
		panic("sched: starting non-pending request")
	}
	if r.Nodes > c.free {
		panic(fmt.Sprintf("sched: start of %d-node request with %d free on %s", r.Nodes, c.free, c.Name))
	}
	now := c.sim.Now()
	r.State = Running
	r.Start = now
	c.free -= r.Nodes
	c.removeFromQueue(r)
	c.queuedWork -= r.Estimate * float64(r.Nodes)
	c.insertRunning(r)
	if c.classRunning != nil {
		c.classRunning[r.Class]++
	}
	c.stats.Started++
	if len(c.running) > c.stats.MaxRunning {
		c.stats.MaxRunning = len(c.running)
	}
	if c.backfilling {
		c.cStartsBackfill.Inc()
	} else {
		c.cStartsInOrder.Inc()
	}
	c.sampleQueueDepth()
	r.finishEv = c.sim.ScheduleFn(now+r.Runtime, 0, finishAction, r)
	if c.OnStart != nil {
		c.OnStart(r)
	}
}

// finish completes a running request, releases its nodes, and triggers
// rescheduling (backfilling on early completion, Section 1).
func (c *Cluster) finish(r *Request) {
	if r.State != Running {
		panic("sched: finishing non-running request")
	}
	now := c.sim.Now()
	r.State = Done
	r.End = now
	r.finishEv = nil
	c.removeRunning(r)
	if c.classRunning != nil {
		c.classRunning[r.Class]--
	}
	c.free += r.Nodes
	c.easyHead = nil
	c.stats.Finished++
	c.stats.BusyCPUSeconds += (now - r.Start) * float64(r.Nodes)
	if c.cfg.Alg == CBF {
		// Release the unused tail of this job's profile allocation
		// (the job finished earlier than its requested end), then
		// compress reservations unless the ablation disables it.
		end := r.Start + r.Estimate
		if now < end {
			c.profile.AddBusy(now, end, -r.Nodes)
			c.noteRelease(now, end)
		}
		if !c.cfg.DisableCompression {
			c.needCompress = true
		}
	}
	c.kick()
	if c.OnFinish != nil {
		c.OnFinish(r)
	}
}

// runningAfter returns the index of the first running request whose
// requested end is after end (len(c.running) when there is none).
func (c *Cluster) runningAfter(end float64) int {
	lo, hi := 0, len(c.running)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.running[mid].requestedEnd() > end {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertRunning files a request that just started behind every running
// request with the same or an earlier requested end.
func (c *Cluster) insertRunning(r *Request) {
	i := c.runningAfter(r.requestedEnd())
	c.running = append(c.running, nil)
	copy(c.running[i+1:], c.running[i:])
	c.running[i] = r
}

// removeRunning takes r out of the running set, looking only at the
// requests that share its requested end.
func (c *Cluster) removeRunning(r *Request) {
	end := r.requestedEnd()
	for i := c.runningAfter(end) - 1; i >= 0 && c.running[i].requestedEnd() == end; i-- {
		if c.running[i] == r {
			last := len(c.running) - 1
			copy(c.running[i:], c.running[i+1:])
			c.running[last] = nil
			c.running = c.running[:last]
			return
		}
	}
	panic(fmt.Sprintf("sched: %s: job %d missing from the running set", c.Name, r.JobID))
}

// releasedBy returns the nodes the scheduler may count free at now
// beyond c.free — running requests whose requested end has passed, such
// as a zero-estimate start of this very pass — and the index of the
// first running request still holding nodes after now.
func (c *Cluster) releasedBy(now float64) (nodes, next int) {
	for next < len(c.running) && c.running[next].requestedEnd() <= now {
		nodes += c.running[next].Nodes
		next++
	}
	return nodes, next
}

// nextRelease returns the requested end of c.running[i], the nodes all
// requests tied at that end give back, and the index after them.
func (c *Cluster) nextRelease(i int) (end float64, nodes, next int) {
	end = c.running[i].requestedEnd()
	for next = i; next < len(c.running) && c.running[next].requestedEnd() == end; next++ {
		nodes += c.running[next].Nodes
	}
	return end, nodes, next
}

// noteRelease widens the released-capacity window consulted by the
// next CBF compression pass to cover [start, end).
func (c *Cluster) noteRelease(start, end float64) {
	if start < c.relStart {
		c.relStart = start
	}
	if end > c.relEnd {
		c.relEnd = end
	}
}

// Pending returns the pending requests in queue (arrival) order.
func (c *Cluster) Pending() []*Request {
	out := make([]*Request, 0, c.QueueLen())
	for _, r := range c.queue {
		if r != nil && r.State == Pending {
			out = append(out, r)
		}
	}
	return out
}

// checkInvariants validates node accounting, the running set's order
// and the per-class running counts; used by tests.
func (c *Cluster) checkInvariants() error {
	used := 0
	for i, r := range c.running {
		used += r.Nodes
		if i == 0 {
			continue
		}
		prev := c.running[i-1]
		if pe, e := prev.requestedEnd(), r.requestedEnd(); pe > e || pe == e && prev.Start > r.Start {
			return fmt.Errorf("sched: %s running set out of order at %d: job %d (start %v, end %v) before job %d (start %v, end %v)",
				c.Name, i, prev.JobID, prev.Start, pe, r.JobID, r.Start, e)
		}
	}
	if c.classRunning != nil {
		byClass := make([]int, len(c.classRunning))
		for _, r := range c.running {
			byClass[r.Class]++
		}
		if !slices.Equal(byClass, c.classRunning) {
			return fmt.Errorf("sched: %s counts %v running per class, the running set holds %v", c.Name, c.classRunning, byClass)
		}
	}
	if used+c.free != c.cfg.Nodes {
		return fmt.Errorf("sched: %s node leak: used=%d free=%d total=%d", c.Name, used, c.free, c.cfg.Nodes)
	}
	if c.free < 0 {
		return fmt.Errorf("sched: %s negative free nodes %d", c.Name, c.free)
	}
	return nil
}
