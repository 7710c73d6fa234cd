// Package des is a minimal discrete-event simulation kernel: a virtual
// clock and a priority queue of timestamped events with deterministic
// tie-breaking. It substitutes for the SimGrid toolkit used by the
// paper; since the paper's simulations ignore all network overheads
// (Section 3.1.2), event-driven process scheduling is the only facility
// required.
//
// The queue is a heap plus a few FIFO lanes. An event filed at a fixed
// delay from Now() — 0 for ScheduleFn at Now(), the delay itself for
// ScheduleAfter — joins the lane of its (delay, priority) pair, where
// events arrive already in firing order, instead of sifting through the
// heap; every other event goes to the heap, and so does a lane-bound one
// when every lane is taken. Each step fires the least of the heap head
// and the lane heads, so events fire in the one (time, priority,
// insertion) order whichever part of the queue holds them.
//
// Event structs are pooled: once an event has fired or a canceled
// event has been reaped from the queue, its struct is recycled by a
// later Schedule call. Callers must therefore drop their references to
// an event when it fires (conventionally, the event's own action nils
// the field holding it) and after canceling it; passing a recycled
// pointer to Cancel would cancel an unrelated live event. Every caller
// in this repository follows that discipline; see DESIGN.md
// ("Hot-path complexity").
package des

import (
	"math"

	"redreq/internal/obs"
)

// Event is a scheduled callback. Events at equal times fire in
// (priority, insertion order). A canceled event is skipped when popped.
type Event struct {
	Time     float64
	Priority int

	fn       func(any)
	arg      any
	canceled bool
	// key is the event's packed ordering word (see entry) and next
	// links it to the event behind it while it waits in a lane.
	key  uint64
	next *Event
}

// Canceled reports whether the event has been canceled. It is only
// meaningful while the caller still legitimately holds the event (see
// the package comment on pooling).
func (e *Event) Canceled() bool { return e.canceled }

// entry is one queued event in the priority queue. The ordering key
// lives in the entry itself so heap comparisons read contiguous memory
// instead of dereferencing *Event: key packs (priority, insertion
// sequence) into one word — priority in the top 16 bits (biased to
// order negatives correctly), sequence in the low 48 — so ties resolve
// with a single integer compare. The events popped are identical to a
// binary heap's because (time, key) is a total order (seq is unique).
type entry struct {
	time float64
	key  uint64
	ev   *Event
}

// packKey combines priority and sequence number into one ordering
// word. Priorities must fit int16 (every scheduler priority is 0..2;
// the guard is in ScheduleFn) and 2^48 events outlast any plausible
// simulation.
func packKey(priority int, seq uint64) uint64 {
	return uint64(priority+1<<15)<<48 | seq&(1<<48-1)
}

func entryLess(a, b *entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.key < b.key
}

// eventQueue is a 4-ary min-heap laid out flat in a slice: children of
// node i are 4i+1..4i+4. Compared to container/heap over []*Event it
// halves the tree depth, keeps sift comparisons inside one or two cache
// lines, and avoids the interface boxing and per-swap Event.index
// bookkeeping — the queue was the hottest site in the whole simulator
// (see DESIGN.md "Hot-path complexity").
type eventQueue []entry

func (q *eventQueue) push(e entry) {
	h := append(*q, e)
	// Sift up: move the hole toward the root, writing e once at the end.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the minimum entry. The caller must know the
// queue is non-empty.
func (q *eventQueue) pop() entry {
	h := *q
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = entry{} // release the *Event so the pool can own it alone
	h = h[:n]
	*q = h
	if n > 0 {
		// Bottom-up pop: pull the min child up into the hole all the
		// way to a leaf (3 compares per level, none against e), then
		// sift the displaced last entry e up from the leaf. Since e
		// came from the bottom of the heap it almost always belongs
		// near a leaf, so the up-phase is O(1) in practice — cheaper
		// than the classic sift-down's extra compare-against-e per
		// level.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if entryLess(&h[j], &h[m]) {
					m = j
				}
			}
			h[i] = h[m]
			i = m
		}
		for i > 0 {
			p := (i - 1) / 4
			if !entryLess(&e, &h[p]) {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = e
	}
	return top
}

// lane is a FIFO of queued events linked through Event.next, filed at
// one (delay, priority) pair. Events join it in (time, key) order, so
// its head is its minimum.
type lane struct {
	head, tail *Event
	delay      float64
	priority   int
}

// laneSlots bounds the lanes a Simulation keeps. The simulator needs
// seven at most: one per priority it files at Now() (arrivals,
// completions, passes and CBF timers, GIS publishes) and, under a
// control latency, one each for deliveries, cancels and publishes.
const laneSlots = 8

// Simulation is a discrete-event simulation instance. It is not safe
// for concurrent use; run one Simulation per goroutine.
type Simulation struct {
	now       float64
	queue     eventQueue
	seq       uint64
	processed uint64
	free      []*Event // recycled Event structs
	// batch holds Event structs not yet handed out: past the free
	// list's high-water mark, events are carved from it, one
	// allocation per eventBatch events instead of one per event.
	batch []Event

	// lanes[:nlanes] are the lanes claimed so far, inline so that no
	// lane ever allocates; laned counts the events waiting in them.
	lanes  [laneSlots]lane
	nlanes int
	laned  int

	// Trace instruments, resolved once by SetTrace; all nil (free
	// no-ops) when tracing is off, keeping the hot loop unchanged.
	cScheduled  *obs.Counter
	cSchedNow   *obs.Counter
	cSchedAfter *obs.Counter
	cFired      *obs.Counter
	cCanceled   *obs.Counter
	gQueue      *obs.Gauge
}

// New returns a Simulation with the clock at 0.
func New() *Simulation { return &Simulation{} }

// SetTrace attaches trace instruments to the simulation: counters
// des.scheduled, des.scheduled_now (the share of des.scheduled filed
// for the current instant), des.scheduled_after (the share filed by
// ScheduleAfter for a later instant), des.fired, des.canceled and the
// des.queue gauge (whose Max is the event-queue high-water mark, heap
// and lanes summed). A nil trace detaches them.
func (s *Simulation) SetTrace(t *obs.Trace) {
	if t == nil {
		s.cScheduled, s.cSchedNow, s.cSchedAfter, s.cFired, s.cCanceled, s.gQueue = nil, nil, nil, nil, nil, nil
		return
	}
	s.cScheduled = t.Counter("des.scheduled")
	s.cSchedNow = t.Counter("des.scheduled_now")
	s.cSchedAfter = t.Counter("des.scheduled_after")
	s.cFired = t.Counter("des.fired")
	s.cCanceled = t.Counter("des.canceled")
	s.gQueue = t.Gauge("des.queue")
}

// Now returns the current virtual time in seconds.
func (s *Simulation) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulation) Processed() uint64 { return s.processed }

// Pending returns the number of events currently queued (including
// canceled events not yet reaped).
func (s *Simulation) Pending() int { return len(s.queue) + s.laned }

// runClosure is the fn of events scheduled with Schedule/ScheduleP:
// the closure itself rides in the event's arg slot.
func runClosure(a any) { a.(func())() }

// Schedule queues action to run at time at with priority 0. Scheduling
// in the past, or at a NaN time, panics: it indicates a simulation bug.
func (s *Simulation) Schedule(at float64, action func()) *Event {
	return s.ScheduleFn(at, 0, runClosure, action)
}

// ScheduleP queues action to run at time at with an explicit priority;
// among events with equal time, lower priorities run first, and equal
// priorities run in insertion order. The returned Event may be a
// recycled struct; it is valid until it fires or is canceled.
func (s *Simulation) ScheduleP(at float64, priority int, action func()) *Event {
	return s.ScheduleFn(at, priority, runClosure, action)
}

// ScheduleFn queues fn(arg) to run at time at. It is the
// allocation-free form of ScheduleP: when fn is a package-level
// function and arg a pointer, scheduling an event costs no heap
// allocation at all (a per-event closure would), which matters on the
// simulator hot path where every start schedules a completion and
// every state change schedules a pass.
func (s *Simulation) ScheduleFn(at float64, priority int, fn func(any), arg any) *Event {
	return s.schedule(at, 0, priority, fn, arg)
}

// ScheduleAfter queues fn(arg) to run delay seconds from now, at
// Now()+delay, like ScheduleFn. A caller that files a stream of events
// at one fixed delay and priority — a control-message latency, a
// publish interval — should use it: such a stream arrives in firing
// order and waits in a lane of its own instead of the heap. A negative
// or non-finite delay panics.
func (s *Simulation) ScheduleAfter(delay float64, priority int, fn func(any), arg any) *Event {
	if !(delay >= 0 && delay <= math.MaxFloat64) {
		panic("des: delay not finite and non-negative")
	}
	return s.schedule(s.now+delay, delay, priority, fn, arg)
}

// eventBatch is the number of Event structs allocated together once
// the free list runs dry.
const eventBatch = 256

// schedule files an event under the next place in the insertion order.
// An event for the current instant, or one filed by ScheduleAfter
// (delay > 0), goes to the lane of its (delay, priority) pair; any
// other goes to the heap.
func (s *Simulation) schedule(at, delay float64, priority int, fn func(any), arg any) *Event {
	// Written so that NaN, for which every comparison is false and which
	// would silently break entryLess's order, is rejected too.
	if !(at >= s.now) {
		panic("des: scheduling event in the past")
	}
	if priority < -1<<15 || priority >= 1<<15 {
		panic("des: priority outside int16 range")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.canceled = false
	} else {
		if len(s.batch) == 0 {
			s.batch = make([]Event, eventBatch)
		}
		e = &s.batch[0]
		s.batch = s.batch[1:]
	}
	e.Time, e.Priority, e.fn, e.arg = at, priority, fn, arg
	s.seq++
	e.key = packKey(priority, s.seq)
	laned := false
	switch {
	case at == s.now:
		s.cSchedNow.Inc()
		laned = s.file(e, delay)
	case delay > 0:
		s.cSchedAfter.Inc()
		laned = s.file(e, delay)
	}
	if !laned {
		s.queue.push(entry{time: at, key: e.key, ev: e})
	}
	s.cScheduled.Inc()
	if s.gQueue != nil {
		s.gQueue.Set(int64(s.Pending()))
	}
	return e
}

// file appends e to the lane of (delay, e.Priority), claiming a lane
// for the pair if it has none: a fresh slot while any is left, else one
// that has emptied. It reports false, leaving e for the heap, when every
// lane is taken. The clock never runs back and seq only grows, so e
// never sorts before its lane's tail.
func (s *Simulation) file(e *Event, delay float64) bool {
	var l, spare *lane
	for i := range s.lanes[:s.nlanes] {
		c := &s.lanes[i]
		if c.delay == delay && c.priority == e.Priority {
			l = c
			break
		}
		if spare == nil && c.head == nil {
			spare = c
		}
	}
	switch {
	case l != nil: // the pair's own lane
	case s.nlanes < len(s.lanes):
		l = &s.lanes[s.nlanes]
		s.nlanes++
		l.delay, l.priority = delay, e.Priority
	case spare != nil:
		l = spare
		l.delay, l.priority = delay, e.Priority
	default:
		return false
	}
	if l.tail == nil {
		l.head = e
	} else {
		l.tail.next = e
	}
	l.tail = e
	s.laned++
	return true
}

// before is entryLess on unpacked (time, key) pairs.
func before(at float64, key uint64, bt float64, bkey uint64) bool {
	return at < bt || at == bt && key < bkey
}

// recycle returns a popped event to the free list. The action and its
// argument are dropped immediately so they do not outlive the event.
func (s *Simulation) recycle(e *Event) {
	e.fn, e.arg = nil, nil
	s.free = append(s.free, e)
}

// Cancel marks e so its action will not run; the event is reaped (and
// its struct recycled) when it reaches the head of the queue. Cancel
// is O(1). Canceling nil or an already-canceled event is a no-op;
// canceling an event that has already fired is a misuse — the struct
// may have been recycled for an unrelated event (see the package
// comment).
func (s *Simulation) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	s.cCanceled.Inc()
}

// next returns the earliest queued event and the lane that holds it
// (nil for the heap), or a nil event when nothing is queued. The heap
// head is its minimum and each lane's head is the lane's, so the least
// of them is the minimum of the whole queue.
func (s *Simulation) next() (*lane, *Event) {
	var l *lane
	var e *Event
	if len(s.queue) > 0 {
		e = s.queue[0].ev
	}
	for i := range s.lanes[:s.nlanes] {
		if h := s.lanes[i].head; h != nil && (e == nil || before(h.Time, h.key, e.Time, e.key)) {
			l, e = &s.lanes[i], h
		}
	}
	return l, e
}

// take removes the head of lane l, or of the heap when l is nil.
func (s *Simulation) take(l *lane) *Event {
	if l == nil {
		return s.queue.pop().ev
	}
	e := l.head
	l.head, e.next = e.next, nil
	if l.head == nil {
		l.tail = nil
	}
	s.laned--
	return e
}

// peek returns the earliest live event and where it waits, reaping and
// recycling the canceled events ahead of it; a nil event means nothing
// live is queued.
func (s *Simulation) peek() (*lane, *Event) {
	for {
		l, e := s.next()
		if e == nil || !e.canceled {
			return l, e
		}
		s.recycle(s.take(l))
	}
}

// fire takes e, the live head of l (of the heap when l is nil), and
// runs it.
func (s *Simulation) fire(l *lane, e *Event) {
	s.take(l)
	s.now = e.Time
	s.processed++
	s.cFired.Inc()
	e.fn(e.arg)
	// Recycle after the action: events scheduled from within it can
	// never alias the struct that is still firing.
	s.recycle(e)
}

// Step executes the next event, if any, and reports whether one ran.
// Canceled events encountered at the head are reaped and recycled.
func (s *Simulation) Step() bool {
	l, e := s.peek()
	if e == nil {
		return false
	}
	s.fire(l, e)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulation) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with Time <= t, then advances the clock to
// t. Events scheduled beyond t remain queued. The live head (not the
// raw one) decides whether to step, so canceled events sitting at the
// head with Time <= t cannot push execution past the deadline.
func (s *Simulation) RunUntil(t float64) {
	for {
		l, e := s.peek()
		if e == nil || e.Time > t {
			break
		}
		s.fire(l, e)
	}
	if s.now < t {
		s.now = t
	}
}

// Peek returns the time of the next non-canceled event and true, or 0
// and false when the queue is empty. Canceled events at the head are
// reaped and recycled.
func (s *Simulation) Peek() (float64, bool) {
	if _, e := s.peek(); e != nil {
		return e.Time, true
	}
	return 0, false
}
