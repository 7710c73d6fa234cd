package des

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"redreq/internal/obs"
)

func nop(any) {}

func TestTraceCounters(t *testing.T) {
	tr := obs.New()
	s := New()
	s.SetTrace(tr)
	e := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	s.Schedule(3, func() {})
	// One event in the lane of delay 0 and two in that of delay 4: the
	// des.queue gauge sums them with the heap's three.
	s.Schedule(0, func() {})
	s.ScheduleAfter(4, 0, nop, nil)
	s.ScheduleAfter(4, 0, nop, nil)
	s.Cancel(e)
	s.Run()
	snap := tr.Snapshot()
	for name, want := range map[string]int64{
		"des.scheduled":       6,
		"des.scheduled_now":   1,
		"des.scheduled_after": 2,
		"des.fired":           5,
		"des.canceled":        1,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if got := tr.Gauge("des.queue").Max(); got != 6 {
		t.Fatalf("des.queue high-water = %d, want 6", got)
	}
	// Detaching stops counting.
	s.SetTrace(nil)
	s.Schedule(5, func() {})
	s.ScheduleAfter(1, 0, nop, nil)
	s.Run()
	if got := tr.Snapshot().Counter("des.scheduled"); got != 6 {
		t.Fatalf("detached trace still counted: %d", got)
	}
	if got := tr.Snapshot().Counter("des.scheduled_after"); got != 2 {
		t.Fatalf("detached trace still counted des.scheduled_after: %d", got)
	}
}

// ScheduleAfter files at Now()+delay, so the delay must be a
// non-negative finite number; anything else panics and queues nothing.
func TestScheduleAfterBadDelayPanics(t *testing.T) {
	for _, delay := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := New()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleAfter(%v) did not panic", delay)
				}
			}()
			s.ScheduleAfter(delay, 0, nop, nil)
		}()
		if s.Pending() != 0 {
			t.Errorf("ScheduleAfter(%v) queued an event", delay)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
}

func TestTieBreakByPriorityThenSeq(t *testing.T) {
	s := New()
	var order []string
	s.ScheduleP(5, 1, func() { order = append(order, "p1-first") })
	s.ScheduleP(5, 0, func() { order = append(order, "p0-a") })
	s.ScheduleP(5, 0, func() { order = append(order, "p0-b") })
	s.ScheduleP(5, 2, func() { order = append(order, "p2") })
	s.Run()
	want := []string{"p0-a", "p0-b", "p1-first", "p2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Double-cancel before the event is reaped is a no-op.
	s.Cancel(e)
	s.Schedule(2, func() {})
	s.Run()
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New()
	fired := false
	var e2 *Event
	s.Schedule(1, func() { s.Cancel(e2) })
	e2 = s.Schedule(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event canceled by earlier event still fired")
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	s := New()
	var times []float64
	s.Schedule(1, func() {
		s.Schedule(1, func() { times = append(times, s.Now()) }) // same time
		s.Schedule(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 5 {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.Schedule(5, func() {})
}

// Regression: a NaN time compares false with everything, so "at < now"
// let it into the heap, where it breaks entryLess's total order for
// every entry it is compared with.
func TestScheduleNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling at NaN")
		}
		if s.Pending() != 0 {
			t.Fatalf("rejected event was queued: Pending = %d", s.Pending())
		}
	}()
	s.Schedule(math.NaN(), func() {})
}

// Events scheduled at the current instant wait in lanes; Pending,
// the des.queue gauge and des.scheduled count them with the rest, and
// des.scheduled_now counts them alone.
func TestSameInstantEventsAreCounted(t *testing.T) {
	tr := obs.New()
	s := New()
	s.SetTrace(tr)
	var order []string
	s.Schedule(5, func() {
		s.ScheduleP(5, 1, func() { order = append(order, "now-p1") })
		s.ScheduleP(5, 0, func() { order = append(order, "now-p0") })
		s.Schedule(7, func() { order = append(order, "later") })
		if got := s.Pending(); got != 4 {
			t.Errorf("Pending inside the action = %d, want 4 (two at now, two later)", got)
		}
	})
	s.ScheduleP(5, 0, func() { order = append(order, "queued-p0") })
	s.Run()
	if want := []string{"queued-p0", "now-p0", "now-p1", "later"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	snap := tr.Snapshot()
	if got := snap.Counter("des.scheduled"); got != 5 {
		t.Fatalf("des.scheduled = %d, want 5", got)
	}
	if got := snap.Counter("des.scheduled_now"); got != 2 {
		t.Fatalf("des.scheduled_now = %d, want 2", got)
	}
	if got := tr.Gauge("des.queue").Max(); got != 4 {
		t.Fatalf("des.queue high-water = %d, want 4", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(10)
	if len(fired) != 5 || s.Now() != 10 {
		t.Fatalf("fired %v, now %v", fired, s.Now())
	}
}

func TestPeek(t *testing.T) {
	s := New()
	if _, ok := s.Peek(); ok {
		t.Fatal("Peek on empty queue reported an event")
	}
	e := s.Schedule(7, func() {})
	if at, ok := s.Peek(); !ok || at != 7 {
		t.Fatalf("Peek = %v, %v", at, ok)
	}
	s.Cancel(e)
	if _, ok := s.Peek(); ok {
		t.Fatal("Peek returned canceled event")
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Schedule(float64(i), func() {})
	}
	e := s.Schedule(99, func() {})
	s.Cancel(e)
	s.Run()
	if s.Processed() != 10 {
		t.Fatalf("Processed = %d, want 10", s.Processed())
	}
}

// Regression: Cancel(nil) must be a true no-op, not a nil dereference
// (it used to fall into the mark-canceled branch and panic).
func TestCancelNil(t *testing.T) {
	s := New()
	s.Cancel(nil) // must not panic
	fired := false
	s.Schedule(1, func() { fired = true })
	s.Cancel(nil) // with a non-empty queue too
	s.Run()
	if !fired {
		t.Fatal("unrelated event did not fire after Cancel(nil)")
	}
}

func TestDoubleCancel(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() { t.Fatal("canceled event fired") })
	s.Cancel(e)
	s.Cancel(e) // second cancel is a no-op
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Cancellation is lazy: the event stays queued until reaped.
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1 (unreaped)", s.Pending())
	}
	if _, ok := s.Peek(); ok {
		t.Fatal("Peek saw the canceled event")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Peek reaped, want 0", s.Pending())
	}
	s.Run()
}

// Fired and reaped events are recycled through the free list: the next
// Schedule reuses the struct instead of allocating.
func TestEventPooling(t *testing.T) {
	s := New()
	e1 := s.Schedule(1, func() {})
	s.Run()
	e2 := s.Schedule(2, func() {})
	if e1 != e2 {
		t.Fatal("fired event struct was not recycled")
	}
	if e2.Canceled() {
		t.Fatal("recycled event inherited the canceled flag")
	}
	s.Cancel(e2)
	if _, ok := s.Peek(); ok { // reaps the canceled event
		t.Fatal("Peek saw a canceled event")
	}
	e3 := s.Schedule(3, func() {})
	if e3 != e2 {
		t.Fatal("reaped canceled event struct was not recycled")
	}
	if e3.Canceled() {
		t.Fatal("recycled event inherited the canceled flag")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Run()
		s.Schedule(s.Now()+1, func() {})
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f per op, want 0", allocs)
	}
}

// Regression for RunUntil: canceled events at the heap head with
// Time <= t used to be popped by Step, which then fired the *next*
// non-canceled event even when its Time > t, advancing the clock past
// the deadline.
func TestRunUntilCanceledHeadDeadline(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { t.Fatal("canceled event fired") })
	s.Schedule(10, func() { fired = true })
	s.Cancel(e)
	s.RunUntil(5)
	if fired {
		t.Fatal("RunUntil(5) fired an event scheduled at 10")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	s.RunUntil(10)
	if !fired {
		t.Fatal("event at 10 did not fire by RunUntil(10)")
	}
}

// Canceling the head of the queue must leave Peek and RunUntil seeing
// only live events.
func TestCancelHeadPeekRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	head := s.Schedule(1, func() { fired = append(fired, 1) })
	s.Schedule(2, func() { fired = append(fired, 2) })
	s.Schedule(9, func() { fired = append(fired, 9) })
	s.Cancel(head)
	if at, ok := s.Peek(); !ok || at != 2 {
		t.Fatalf("Peek after head cancel = (%v, %v), want (2, true)", at, ok)
	}
	s.RunUntil(5)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5", s.Now())
	}
	if at, ok := s.Peek(); !ok || at != 9 {
		t.Fatalf("Peek = (%v, %v), want (9, true)", at, ok)
	}
}

// Canceling every queued event leaves RunUntil advancing the clock with
// nothing to fire.
func TestRunUntilAllCanceled(t *testing.T) {
	s := New()
	var evs []*Event
	for i := 1; i <= 5; i++ {
		evs = append(evs, s.Schedule(float64(i), func() { t.Fatal("canceled event fired") }))
	}
	for _, e := range evs {
		s.Cancel(e)
	}
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Fatalf("Now = %v, want 10", s.Now())
	}
	if s.Processed() != 0 {
		t.Fatalf("Processed = %d, want 0", s.Processed())
	}
}

// Randomized: events fire in nondecreasing time order, and all
// non-canceled events fire exactly once.
func TestRandomizedOrdering(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		s := New()
		var fired []float64
		canceled := make(map[int]bool)
		var events []*Event
		n := 200
		for i := 0; i < n; i++ {
			at := float64(r.IntN(1000))
			events = append(events, s.Schedule(at, func() { fired = append(fired, at) }))
		}
		for i := 0; i < 50; i++ {
			k := r.IntN(n)
			if !canceled[k] {
				canceled[k] = true
				s.Cancel(events[k])
			}
		}
		s.Run()
		if len(fired) != n-len(canceled) {
			t.Fatalf("fired %d, want %d", len(fired), n-len(canceled))
		}
		if !sort.Float64sAreSorted(fired) {
			t.Fatal("events fired out of order")
		}
	}
}
