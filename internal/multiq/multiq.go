// Package multiq implements option (iii) of the paper's Section 2,
// left as future work there: redundant batch requests sent to multiple
// batch queues of a single resource. Real batch schedulers expose
// several queues over one node pool — e.g. a "short" queue with a tight
// walltime limit served at high priority and a "long" queue without
// limits — and "different queues typically correspond to higher service
// unit costs". A user unsure whether the short queue's faster service
// outweighs its limits can submit to several queues at once and cancel
// the losers when one copy starts.
//
// The Resource here is one node pool with multiple prioritized queues
// and EASY-style backfilling across them: requests are considered in
// (queue priority, arrival) order, the first blocked request receives
// a shadow reservation, and later requests from any queue may backfill
// if they do not delay it.
package multiq

import (
	"fmt"
	"math"

	"redreq/internal/des"
	"redreq/internal/sched"
)

// QueueSpec describes one queue of the resource.
type QueueSpec struct {
	// Name identifies the queue ("short", "long", ...).
	Name string
	// Priority orders service: lower values are served first.
	Priority int
	// MaxWalltime rejects requests whose estimate exceeds it
	// (0 = unlimited).
	MaxWalltime float64
	// MaxNodes rejects requests wider than this (0 = pool size).
	MaxNodes int
	// MaxRunning caps the number of simultaneously running jobs
	// from this queue (0 = unlimited), the PBS-style per-queue slot
	// limit. A slot-limited queue holds its pending requests without
	// blocking other queues, which is what makes submitting the same
	// job to several queues of one resource genuinely useful.
	MaxRunning int
}

// State is a request's lifecycle state.
type State int

const (
	// Pending requests wait in a queue.
	Pending State = iota
	// Running requests hold nodes.
	Running
	// Done requests completed.
	Done
	// Canceled requests were withdrawn while pending.
	Canceled
)

// Request is one job request in one queue of the resource.
type Request struct {
	JobID    int64
	Nodes    int
	Runtime  float64
	Estimate float64
	Queue    string

	Submit, Start, End float64
	State              State

	res *Resource
	seq int64
}

// Wait returns the queue waiting time; valid once started.
func (r *Request) Wait() float64 { return r.Start - r.Submit }

// Resource is one parallel machine with several batch queues.
type Resource struct {
	sim    *des.Simulation
	nodes  int
	free   int
	queues []QueueSpec
	byName map[string]int

	pending [][]*Request // per queue, arrival order (nil holes)
	running []*Request
	runPerQ []int
	kickEv  *des.Event
	seq     int64

	// OnStart and OnFinish mirror sched.Cluster's hooks.
	OnStart  func(*Request)
	OnFinish func(*Request)
}

// NewResource builds a resource with the given pool size and queues.
func NewResource(sim *des.Simulation, nodes int, queues []QueueSpec) (*Resource, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("multiq: need at least one node")
	}
	if len(queues) == 0 {
		return nil, fmt.Errorf("multiq: need at least one queue")
	}
	r := &Resource{
		sim:     sim,
		nodes:   nodes,
		free:    nodes,
		queues:  queues,
		byName:  make(map[string]int, len(queues)),
		pending: make([][]*Request, len(queues)),
		runPerQ: make([]int, len(queues)),
	}
	for i, q := range queues {
		if q.Name == "" {
			return nil, fmt.Errorf("multiq: queue %d has no name", i)
		}
		if _, dup := r.byName[q.Name]; dup {
			return nil, fmt.Errorf("multiq: duplicate queue %q", q.Name)
		}
		if q.MaxWalltime < 0 || q.MaxNodes < 0 || q.MaxNodes > nodes || q.MaxRunning < 0 {
			return nil, fmt.Errorf("multiq: queue %q has invalid limits", q.Name)
		}
		r.byName[q.Name] = i
	}
	return r, nil
}

// Nodes returns the pool size.
func (r *Resource) Nodes() int { return r.nodes }

// Free returns currently free nodes.
func (r *Resource) Free() int { return r.free }

// QueueLen returns the pending count of the named queue (-1 if the
// queue does not exist).
func (r *Resource) QueueLen(name string) int {
	qi, ok := r.byName[name]
	if !ok {
		return -1
	}
	n := 0
	for _, req := range r.pending[qi] {
		if req != nil && req.State == Pending {
			n++
		}
	}
	return n
}

// Eligible reports whether a request shape is accepted by the named
// queue.
func (r *Resource) Eligible(name string, nodes int, estimate float64) bool {
	qi, ok := r.byName[name]
	if !ok {
		return false
	}
	q := r.queues[qi]
	if nodes < 1 || nodes > r.nodes {
		return false
	}
	if q.MaxNodes > 0 && nodes > q.MaxNodes {
		return false
	}
	if q.MaxWalltime > 0 && estimate > q.MaxWalltime {
		return false
	}
	return true
}

// Submit enqueues req into the named queue at the current simulation
// time. It returns an error when the queue rejects the shape.
func (r *Resource) Submit(req *Request, queue string) error {
	qi, ok := r.byName[queue]
	if !ok {
		return fmt.Errorf("multiq: unknown queue %q", queue)
	}
	if !r.Eligible(queue, req.Nodes, req.Estimate) {
		return fmt.Errorf("multiq: queue %q rejects %d nodes / %.0fs", queue, req.Nodes, req.Estimate)
	}
	if req.Estimate < req.Runtime {
		return fmt.Errorf("multiq: estimate below runtime")
	}
	if req.res != nil {
		return fmt.Errorf("multiq: request already submitted")
	}
	req.res = r
	req.Queue = queue
	req.Submit = r.sim.Now()
	req.Start = math.NaN()
	req.End = math.NaN()
	req.State = Pending
	r.seq++
	req.seq = r.seq
	r.pending[qi] = append(r.pending[qi], req)
	r.kick()
	return nil
}

// Cancel withdraws a pending request; it reports whether the request
// was removed.
func (r *Resource) Cancel(req *Request) bool {
	if req.res != r {
		panic("multiq: cancel on wrong resource")
	}
	if req.State != Pending {
		return false
	}
	req.State = Canceled
	qi := r.byName[req.Queue]
	for i, p := range r.pending[qi] {
		if p == req {
			r.pending[qi][i] = nil
			break
		}
	}
	r.kick()
	return true
}

func (r *Resource) kick() {
	if r.kickEv != nil {
		return
	}
	r.kickEv = r.sim.ScheduleFn(r.sim.Now(), 1, kickAction, r)
}

// kickAction is the package-level action of the coalesced pass event,
// like sched's: ScheduleFn with it allocates no closure per pass.
func kickAction(a any) {
	r := a.(*Resource)
	r.kickEv = nil
	r.pass()
}

// order returns pending requests in service order: queue priority
// first, then arrival (submission sequence) within and across equal
// priorities.
func (r *Resource) order() []*Request {
	var out []*Request
	for qi := range r.pending {
		w := 0
		for _, req := range r.pending[qi] {
			if req != nil && req.State == Pending {
				r.pending[qi][w] = req
				w++
			}
		}
		r.pending[qi] = r.pending[qi][:w]
		out = append(out, r.pending[qi]...)
	}
	// Insertion sort by (priority, seq); queues are individually
	// FIFO so the sequence is nearly sorted.
	for i := 1; i < len(out); i++ {
		x := out[i]
		j := i - 1
		for j >= 0 && less(r, x, out[j]) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = x
	}
	return out
}

func less(r *Resource, a, b *Request) bool {
	pa := r.queues[r.byName[a.Queue]].Priority
	pb := r.queues[r.byName[b.Queue]].Priority
	if pa != pb {
		return pa < pb
	}
	return a.seq < b.seq
}

// held reports whether a queue is at its running-slot limit.
func (r *Resource) held(queue string) bool {
	qi := r.byName[queue]
	q := r.queues[qi]
	return q.MaxRunning > 0 && r.runPerQ[qi] >= q.MaxRunning
}

// pass runs one EASY-style scheduling pass over all queues. Requests
// from slot-limited queues are held: they neither start nor block
// other queues.
func (r *Resource) pass() {
	now := r.sim.Now()
	order := r.order()
	i := 0
	var head *Request
	for ; i < len(order); i++ {
		req := order[i]
		if req.State != Pending || r.held(req.Queue) {
			continue
		}
		if req.Nodes > r.free {
			head = req
			break
		}
		r.start(req)
	}
	if head == nil || r.free == 0 {
		return
	}
	prof := sched.NewProfile(now, r.nodes)
	for _, run := range r.running {
		end := run.Start + run.Estimate
		if end > now {
			prof.AddBusy(now, end, run.Nodes)
		}
	}
	shadow := prof.FindAnchor(now, head.Estimate, head.Nodes)
	prof.AddBusy(shadow, shadow+head.Estimate, head.Nodes)
	for j := i + 1; j < len(order) && r.free > 0; j++ {
		req := order[j]
		if req.State != Pending || req.Nodes > r.free || r.held(req.Queue) {
			continue
		}
		if prof.FindAnchor(now, req.Estimate, req.Nodes) == now {
			r.start(req)
			prof.AddBusy(now, now+req.Estimate, req.Nodes)
		}
	}
}

func (r *Resource) start(req *Request) {
	if req.Nodes > r.free {
		panic("multiq: start without capacity")
	}
	now := r.sim.Now()
	req.State = Running
	req.Start = now
	r.free -= req.Nodes
	qi := r.byName[req.Queue]
	for i, p := range r.pending[qi] {
		if p == req {
			r.pending[qi][i] = nil
			break
		}
	}
	r.running = append(r.running, req)
	r.runPerQ[qi]++
	r.sim.Schedule(now+req.Runtime, func() { r.finish(req) })
	if r.OnStart != nil {
		r.OnStart(req)
	}
}

func (r *Resource) finish(req *Request) {
	req.State = Done
	req.End = r.sim.Now()
	r.free += req.Nodes
	r.runPerQ[r.byName[req.Queue]]--
	for i, p := range r.running {
		if p == req {
			r.running[i] = r.running[len(r.running)-1]
			r.running = r.running[:len(r.running)-1]
			break
		}
	}
	r.kick()
	if r.OnFinish != nil {
		r.OnFinish(req)
	}
}
