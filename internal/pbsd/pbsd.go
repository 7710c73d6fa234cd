// Package pbsd is a real (not simulated) batch scheduler daemon, the
// stand-in for the OpenPBS/Maui installation measured in Section 4.1.
// It manages a queue of pending jobs over a pool of virtual compute
// nodes and accepts qsub/qdel/qstat operations either through a direct
// API or over a TCP line protocol.
//
// The daemon has one scheduler, and it is incremental: each event
// examines only the jobs it could affect. A submission examines the
// arriving job alone (start it if the queue was empty and it fits, or
// backfill it against the head's shadow); a cancel triggers a rescan of
// the queue only when it exposed a new head and the free-capacity
// watermark says some pending job could actually start; a completion
// triggers one only when the released nodes cross the watermark.
// Per-operation cost is O(1) until work can really start, which is what
// the fast-path benchmarks measure.
//
// The paper-faithful mode (Config.FullScanCycle) decides nothing
// differently. It charges every cycle the work of a Maui-like
// scheduling pass before the incremental reaction runs: the priority of
// every pending job is recomputed (priority = queue age) and the queue
// is sorted by it. Per-operation work therefore grows with queue
// length, which is what produces the paper's Figure 5 shape
// (submission/cancellation throughput decaying as the queue grows).
package pbsd

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redreq/internal/obs"
)

// JobState is the lifecycle state of a daemon job.
type JobState int

const (
	// Queued jobs wait for nodes.
	Queued JobState = iota
	// Started jobs hold nodes.
	Started
	// Completed jobs finished or were killed at their walltime.
	Completed
	// Deleted jobs were removed by qdel while queued.
	Deleted
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "Q"
	case Started:
		return "R"
	case Completed:
		return "C"
	case Deleted:
		return "D"
	default:
		return "?"
	}
}

// Job is one daemon job.
type Job struct {
	ID       int64
	Name     string
	Nodes    int
	Walltime time.Duration
	Submit   time.Time
	Start    time.Time
	State    JobState

	elem     *list.Element
	priority float64
}

// Config configures the daemon.
type Config struct {
	// Nodes is the size of the virtual node pool.
	Nodes int
	// Execute actually runs jobs (timers fire at walltime). The
	// Figure 5 harness disables execution and instead submits a
	// blocker job that monopolizes the pool, as in the paper.
	Execute bool
	// FullScanCycle charges every scheduling cycle the paper-faithful
	// Maui-like pass: the cycle refreshes the priority (priority = queue
	// age) of every pending job and sorts the whole queue by it, coupling
	// per-operation cost to queue depth (the Figure 5 measurement). The
	// decisions are the incremental cycle's either way, since priority =
	// queue age orders the queue exactly as it was submitted; when false
	// (the default), an event examines only the jobs it could start, so
	// per-operation cost stays O(1) at any queue depth.
	FullScanCycle bool
	// JournalDir, when set, persists every queue-changing event on
	// disk (PBS keeps job files under its spool); adds realistic I/O
	// to every submission, and doubles as a write-ahead log: a daemon
	// constructed over a directory with an existing journal replays it
	// and recovers its pending queue exactly (see journal.go).
	JournalDir string
	// GroupCommit batches journal lines from concurrent requests into
	// one write + fsync per commit window instead of one write per
	// event: an operation's acknowledgement still waits for its batch
	// to reach disk, but concurrent operations share the flush. Only the
	// journal's write discipline changes; the daemon logs and commits
	// every event the same way, and the recovery invariants are
	// unchanged (torn tail tolerated, R-without-C requeued in order).
	// Requires JournalDir.
	GroupCommit bool
	// MaxQueue caps the pending-queue length; submissions past the
	// cap are shed with ErrBusy (a BUSY response on the wire) instead
	// of growing the queue — and the per-operation scheduling cost —
	// without bound. 0 means unlimited.
	MaxQueue int
	// AdmitBudget, when positive, is the walltime-to-schedule budget
	// for CoDel-style admission control: an arriving submission is
	// dropped with ErrLate (a distinct LATE wire response) when its
	// estimated wait to reach the head of the queue — current queue
	// length times an EWMA of the recent per-job drain interval —
	// already exceeds the budget. Where MaxQueue protects queue
	// *slots*, AdmitBudget protects queue *delay*: under a slow drain
	// it sheds far before the cap, and under a fast drain it admits
	// deep queues that will still clear in time.
	AdmitBudget time.Duration
	// WriteTimeout bounds each response write on the TCP path so one
	// stalled client cannot pin a handler goroutine forever; 0 uses
	// a 10 s default.
	WriteTimeout time.Duration
	// Trace, when non-nil, collects wall-clock per-command latency
	// histograms (pbsd.latency.<cmd>) and protocol error counters
	// (pbsd.errors, pbsd.errors.line_too_long) on the TCP path.
	Trace *obs.Trace
}

// watermarkIdle is the free-capacity watermark when nothing is
// pending: no release can cross it, so no event triggers a scan.
const watermarkIdle = math.MaxInt

// Server is the batch scheduler daemon.
//
// Two locks partition the mutable state so status queries and the
// scheduling cycle never serialize behind each other:
//
//   - qmu guards the pending queue: the queue list, the jobs map
//     (queued jobs only), ID allocation, admission-control state, and
//     the incremental-cycle watermark.
//   - rmu guards the running set. Lock order is qmu before rmu;
//     nothing acquires qmu while holding rmu.
//
// Gauges (queue length, running count, free nodes) and the cycle
// counters are atomics, so Stat and Counters read without taking
// either lock and never contend with submit/cancel.
type Server struct {
	cfg Config

	qmu    sync.Mutex
	nextID int64
	queue  *list.List // *Job in queue order
	jobs   map[int64]*Job
	closed bool
	// watermark is the smallest node request among pending jobs
	// (watermarkIdle when none): an event can only start work when
	// free >= watermark, so events below it skip the scan entirely.
	// It may run stale-low after a cancel (costing at most a wasted
	// scan), never stale-high.
	watermark int

	rmu     sync.Mutex
	running map[int64]*Job

	qlen atomic.Int64
	nrun atomic.Int64
	free atomic.Int64

	// cycles counts completed scheduling cycles; scanned counts
	// total pending jobs examined across cycles (for tests and the
	// harness to verify per-op work grows with queue length in
	// full-scan mode and stays flat in incremental mode).
	cycles  atomic.Uint64
	scanned atomic.Uint64

	journal   *journal
	recovered int

	// Admission-control drain tracking (under qmu): an EWMA of the
	// interval between queue-draining events (deletes, starts), in
	// seconds, and the wall-clock time of the last one. Zero until two
	// drains have been observed, during which admission control stays
	// open.
	drainEWMA float64
	lastDrain time.Time

	// Protocol-path instruments (nil when tracing is off); resolved
	// once at New so the dispatch loop pays no map lookups.
	hLatency     map[string]*obs.Histogram
	cProtoErrors *obs.Counter
	cLineTooLong *obs.Counter
	cShed        *obs.Counter
	cLate        *obs.Counter
}

// ErrUnknownJob is returned by Delete for nonexistent or finished jobs.
var ErrUnknownJob = errors.New("pbsd: unknown job")

// ErrTooLarge is returned when a job requests more nodes than exist.
var ErrTooLarge = errors.New("pbsd: request exceeds node pool")

// ErrBusy is returned by Submit when the pending queue is at its
// configured cap: the daemon sheds the request instead of degrading.
// Callers should back off and retry.
var ErrBusy = errors.New("pbsd: queue full")

// ErrLate is returned by Submit when admission control estimates the
// request cannot meet its walltime-to-schedule budget (a LATE response
// on the wire): the queue is draining too slowly for a new arrival to
// reach the scheduler in time, so accepting it would only add dead
// weight. Callers should back off harder than for ErrBusy.
var ErrLate = errors.New("pbsd: queue delay exceeds admission budget")

// Walltime converts a walltime in seconds, as the line protocol and
// the middleware envelope carry it, to the Duration Submit takes. It
// rejects every value that does not convert to a positive Duration:
// NaN, anything under a nanosecond, and anything at or past 2^63 ns
// (about 292 years), where Go leaves a float-to-integer conversion
// implementation-defined.
func Walltime(secs float64) (time.Duration, error) {
	ns := secs * float64(time.Second)
	if !(ns >= 1 && ns < 1<<63) {
		return 0, fmt.Errorf("pbsd: walltime %v s is not a positive Duration", secs)
	}
	return time.Duration(ns), nil
}

// New creates a daemon with the given configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("pbsd: need at least one node")
	}
	if cfg.GroupCommit && cfg.JournalDir == "" {
		return nil, fmt.Errorf("pbsd: GroupCommit requires JournalDir")
	}
	s := &Server{
		cfg:       cfg,
		queue:     list.New(),
		jobs:      make(map[int64]*Job),
		running:   make(map[int64]*Job),
		watermark: watermarkIdle,
	}
	s.free.Store(int64(cfg.Nodes))
	if cfg.JournalDir != "" {
		j, pending, maxID, err := openJournal(cfg.JournalDir, cfg.GroupCommit)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.nextID = maxID
		for _, job := range pending {
			job.elem = s.queue.PushBack(job)
			s.jobs[job.ID] = job
		}
		s.qlen.Store(int64(len(pending)))
		s.recovered = len(pending)
	}
	if tr := cfg.Trace; tr != nil {
		s.hLatency = make(map[string]*obs.Histogram)
		for _, cmd := range []string{"QSUB", "QDEL", "QDELHEAD", "QSTAT", "PING"} {
			s.hLatency[cmd] = tr.Histogram("pbsd.latency." + strings.ToLower(cmd))
		}
		s.cProtoErrors = tr.Counter("pbsd.errors")
		s.cLineTooLong = tr.Counter("pbsd.errors.line_too_long")
		s.cShed = tr.Counter("pbsd.shed")
		s.cLate = tr.Counter("pbsd.late")
		tr.Counter("pbsd.recovered").Add(int64(s.recovered))
	}
	if s.recovered > 0 {
		// Recovered jobs compete for nodes again immediately.
		s.qmu.Lock()
		s.beginCycle()
		if cfg.Execute {
			s.rescanLocked()
		}
		s.qmu.Unlock()
	}
	return s, nil
}

// errClosed refuses queue changes after Close.
var errClosed = errors.New("pbsd: server closed")

// Submit enqueues a job and runs a scheduling cycle. It returns the
// assigned job ID.
//
// The job's journal line is logged under the queue lock, before the
// job is queued, so log order matches queue order and a failed write
// leaves nothing behind. The call then commits the line's batch outside
// the lock before acknowledging; if that flush fails the journal is
// sticky-failed and the unacknowledged job is withdrawn.
func (s *Server) Submit(name string, nodes int, walltime time.Duration) (int64, error) {
	if nodes < 1 || walltime <= 0 {
		return 0, fmt.Errorf("pbsd: invalid request: %d nodes, %v walltime", nodes, walltime)
	}
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return 0, errClosed
	}
	if nodes > s.cfg.Nodes {
		s.qmu.Unlock()
		return 0, ErrTooLarge
	}
	if s.cfg.MaxQueue > 0 && s.queue.Len() >= s.cfg.MaxQueue {
		s.qmu.Unlock()
		s.cShed.Inc()
		return 0, ErrBusy
	}
	if s.cfg.AdmitBudget > 0 && s.drainEWMA > 0 {
		wait := time.Duration(float64(s.queue.Len()) * s.drainEWMA * float64(time.Second))
		if wait > s.cfg.AdmitBudget {
			s.qmu.Unlock()
			s.cLate.Inc()
			return 0, ErrLate
		}
	}
	s.nextID++
	j := &Job{
		ID:       s.nextID,
		Name:     name,
		Nodes:    nodes,
		Walltime: walltime,
		Submit:   time.Now(),
		State:    Queued,
	}
	batch, err := s.journal.log('S', j)
	if err != nil {
		s.qmu.Unlock()
		return 0, err
	}
	j.elem = s.queue.PushBack(j)
	s.jobs[j.ID] = j
	s.qlen.Add(1)
	s.cycleSubmit(j)
	s.qmu.Unlock()
	if err := s.journal.commit(batch); err != nil {
		// Withdraw the job if it is still pending so an unacknowledged
		// submission cannot linger.
		s.qmu.Lock()
		if s.jobs[j.ID] == j {
			s.dequeueLocked(j)
		}
		s.qmu.Unlock()
		return 0, err
	}
	return j.ID, nil
}

// Delete removes a queued job (qdel) and runs a scheduling cycle.
// Deleting a running or finished job returns ErrUnknownJob, matching
// the harness's cancel-only-pending protocol. After Close, Delete and
// DeleteHead are refused with Submit's error.
func (s *Server) Delete(id int64) error {
	s.qmu.Lock()
	return s.deleteAndUnlock(s.jobs[id])
}

// DeleteHead removes the job at the head of the queue, the
// maximum-churn deletion pattern of the paper's measurement, and
// returns its ID. It returns ErrUnknownJob when the queue is empty.
func (s *Server) DeleteHead() (int64, error) {
	s.qmu.Lock()
	var j *Job
	if front := s.queue.Front(); front != nil {
		j = front.Value.(*Job)
	}
	if err := s.deleteAndUnlock(j); err != nil {
		return 0, err
	}
	return j.ID, nil
}

// deleteAndUnlock removes the queued job j (nil when there is none)
// and runs the scheduling cycle under qmu, which the caller holds and
// which it releases before committing the job's D line.
//
// The D line is logged before the queue changes: a failed per-event
// write leaves the job queued and the log without a D. A group batch
// that fails to reach disk fails only the commit, after the removal:
// the delete was not acknowledged durably and recovery may resurrect
// the job, which is the safe direction.
func (s *Server) deleteAndUnlock(j *Job) error {
	var err error
	var batch uint64
	switch {
	case s.closed:
		err = errClosed
	case j == nil:
		err = ErrUnknownJob
	default:
		batch, err = s.journal.log('D', j)
	}
	if err != nil {
		s.qmu.Unlock()
		return err
	}
	wasHead := s.queue.Front() == j.elem
	j.State = Deleted
	s.dequeueLocked(j)
	s.noteDrain()
	s.cycleRemoval(wasHead)
	s.qmu.Unlock()
	return s.journal.commit(batch)
}

// dequeueLocked takes a pending job out of the queue; callers hold
// qmu.
func (s *Server) dequeueLocked(j *Job) {
	s.queue.Remove(j.elem)
	delete(s.jobs, j.ID)
	s.qlen.Add(-1)
}

// noteDrain updates the admission-control drain EWMA on a
// queue-draining event; callers hold qmu.
func (s *Server) noteDrain() {
	now := time.Now()
	if !s.lastDrain.IsZero() {
		dt := now.Sub(s.lastDrain).Seconds()
		if s.drainEWMA == 0 {
			s.drainEWMA = dt
		} else {
			const alpha = 0.1
			s.drainEWMA = (1-alpha)*s.drainEWMA + alpha*dt
		}
	}
	s.lastDrain = now
}

// Stat returns queue, running, and free-node counts. It reads atomic
// gauges and takes no lock, so it never contends with a scheduling
// cycle; the three values are individually current but not a single
// consistent snapshot.
func (s *Server) Stat() (queued, running, free int) {
	return int(s.qlen.Load()), int(s.nrun.Load()), int(s.free.Load())
}

// Counters returns the number of scheduling cycles run and the total
// pending jobs scanned across them. Lock-free, like Stat.
func (s *Server) Counters() (cycles, scanned uint64) {
	return s.cycles.Load(), s.scanned.Load()
}

// Recovered reports how many pending jobs were replayed from the
// journal when the daemon started. The count is fixed at construction.
func (s *Server) Recovered() int {
	return s.recovered
}

// Pending returns a snapshot of the queued jobs in queue order
// (copies; mutating them does not touch daemon state). The result is
// sized up front and the walk holds only the queue lock — the running
// set is not consulted, so Pending never blocks job completions.
func (s *Server) Pending() []Job {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	out := make([]Job, 0, s.queue.Len())
	for e := s.queue.Front(); e != nil; e = e.Next() {
		j := *e.Value.(*Job)
		j.elem = nil
		out = append(out, j)
	}
	return out
}

// Close shuts the daemon down and releases the journal (flushing any
// group-commit batch still in memory).
func (s *Server) Close() error {
	s.qmu.Lock()
	s.closed = true
	j := s.journal
	s.qmu.Unlock()
	if j != nil {
		return j.close()
	}
	return nil
}

// beginCycle counts one scheduling cycle; callers hold qmu. Under
// FullScanCycle it also charges the cycle the Maui-like pass the paper
// measured: every pending job is counted into scanned, its priority
// (queue age) refreshed, and the queue sorted by it. The sorted order
// is never read: priority = queue age sorts the queue into its own
// order, so the incremental reaction that follows decides exactly what
// the pass would. The pass is kept for its cost, which grows with queue
// depth as Figure 5's does.
func (s *Server) beginCycle() {
	s.cycles.Add(1)
	if !s.cfg.FullScanCycle {
		return
	}
	n := s.queue.Len()
	s.scanned.Add(uint64(n))
	if n == 0 {
		return
	}
	now := time.Now()
	order := make([]*Job, 0, n)
	for e := s.queue.Front(); e != nil; e = e.Next() {
		j := e.Value.(*Job)
		j.priority = now.Sub(j.Submit).Seconds()
		order = append(order, j)
	}
	sortByPriority(order)
}

// cycleSubmit is the scheduling reaction to one enqueued job; callers
// hold qmu. Only the arriving job is examined: it starts immediately
// when it is the only pending job and fits, backfills against the
// head's shadow otherwise, and is queued (lowering the watermark) when
// neither applies. The head itself cannot have become startable —
// capacity did not change.
func (s *Server) cycleSubmit(j *Job) {
	s.beginCycle()
	if !s.cfg.Execute {
		// Nothing ever starts: the arriving job just queues, and no
		// examination can change that.
		return
	}
	s.scanned.Add(1)
	now := time.Now()
	if int64(j.Nodes) <= s.free.Load() {
		if s.queue.Len() == 1 {
			s.startLocked(j, now)
			s.watermark = watermarkIdle
			return
		}
		// The head is blocked (a fitting head would have started on an
		// earlier event); backfill the arrival if it both fits now and
		// ends before the head's shadow start.
		head := s.queue.Front().Value.(*Job)
		if now.Add(j.Walltime).Before(s.shadowLocked(head, now)) {
			s.startLocked(j, now)
			return
		}
	}
	if j.Nodes < s.watermark {
		s.watermark = j.Nodes
	}
}

// cycleRemoval reacts to a queued job's removal; callers hold qmu.
// Removing a non-head job changes neither capacity nor the backfill
// shadow, so only a head removal — which exposes a new head and a new
// shadow — can start work, and then only when the free capacity has
// already crossed the watermark.
func (s *Server) cycleRemoval(wasHead bool) {
	s.beginCycle()
	if !s.cfg.Execute {
		return
	}
	if s.queue.Len() == 0 {
		s.watermark = watermarkIdle
		return
	}
	if wasHead && s.free.Load() >= int64(s.watermark) {
		s.rescanLocked()
	}
}

// cycleRelease reacts to nodes returned by a completed job; callers
// hold qmu. The release can only start work when it lifts free
// capacity over the watermark.
func (s *Server) cycleRelease() {
	s.beginCycle()
	if s.queue.Len() > 0 && s.free.Load() >= int64(s.watermark) {
		s.rescanLocked()
	}
}

// rescanLocked is the one pass over the pending queue, run only when an
// event crossed the watermark (and on recovery); callers hold qmu and
// Execute is on. It walks the queue in order, starting the jobs that
// fit until one is blocked, then backfills the jobs behind it that fit
// right now and end before the blocked job could plausibly start
// (simple shadow: earliest completion among running jobs). Whatever
// stays pending sets the new watermark. The event that triggered the
// pass counts the cycle; the pass counts the jobs it examined.
func (s *Server) rescanLocked() {
	s.scanned.Add(uint64(s.queue.Len()))
	now := time.Now()
	var blocked *Job
	var shadow time.Time
	s.watermark = watermarkIdle
	for e := s.queue.Front(); e != nil; {
		j := e.Value.(*Job)
		e = e.Next() // before a start takes j out of the queue
		fits := int64(j.Nodes) <= s.free.Load()
		switch {
		case fits && (blocked == nil || now.Add(j.Walltime).Before(shadow)):
			s.startLocked(j, now)
			continue
		case blocked == nil:
			blocked = j
			shadow = s.shadowLocked(j, now)
		}
		s.watermark = min(s.watermark, j.Nodes)
	}
}

// shadowLocked estimates when the blocked job could start: the time by
// which enough running jobs will have reached their walltime. Callers
// hold qmu; the running set is read under rmu.
func (s *Server) shadowLocked(blocked *Job, now time.Time) time.Time {
	s.rmu.Lock()
	running := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		running = append(running, j)
	}
	s.rmu.Unlock()
	// A running job's Start, Walltime and Nodes were set when it started,
	// under the qmu the caller holds, and do not change. Jobs ending at
	// the same instant give the same shadow in any order.
	end := func(j *Job) time.Time { return j.Start.Add(j.Walltime) }
	slices.SortFunc(running, func(a, b *Job) int { return end(a).Compare(end(b)) })
	avail := int(s.free.Load())
	for _, j := range running {
		avail += j.Nodes
		if avail >= blocked.Nodes {
			return end(j)
		}
	}
	return now.Add(1000 * time.Hour)
}

// startLocked moves a pending job to the running set; callers hold
// qmu (rmu is taken briefly for the running-set insert).
func (s *Server) startLocked(j *Job, now time.Time) {
	j.State = Started
	j.Start = now
	s.free.Add(-int64(j.Nodes))
	s.dequeueLocked(j)
	s.rmu.Lock()
	s.running[j.ID] = j
	s.rmu.Unlock()
	s.nrun.Add(1)
	// A start drains the queue like a delete does. Its R line is not
	// waited for, and a failed write is tolerable: replay requeues a job
	// whose S line has no C after it, R or no R.
	s.journal.logAsync('R', j)
	s.noteDrain()
	id := j.ID
	time.AfterFunc(j.Walltime, func() { s.complete(id) })
}

// complete retires a running job at its walltime. It takes rmu alone
// for the running-set removal, releases capacity, and only then takes
// qmu for the scheduling reaction — never both at once in the
// qmu-then-rmu order reserved for the cycle path.
func (s *Server) complete(id int64) {
	s.rmu.Lock()
	j, ok := s.running[id]
	if ok {
		j.State = Completed
		delete(s.running, id)
	}
	s.rmu.Unlock()
	if !ok {
		return
	}
	s.nrun.Add(-1)
	s.free.Add(int64(j.Nodes))
	s.journal.logAsync('C', j)
	s.qmu.Lock()
	if !s.closed {
		s.cycleRelease()
	}
	s.qmu.Unlock()
}

func sortByPriority(js []*Job) {
	// Insertion-ordered stable sort by descending priority. The
	// queue is nearly sorted between cycles (priorities age
	// uniformly), so a simple binary-insertion sort behaves well and
	// keeps the dominant cost the O(n) priority refresh, matching
	// the measured near-linear throughput decay.
	for i := 1; i < len(js); i++ {
		j := js[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if js[mid].priority >= j.priority {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(js[lo+1:i+1], js[lo:i])
		js[lo] = j
	}
}
