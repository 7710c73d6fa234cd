package des

import (
	"math/rand/v2"
	"testing"
)

// orderScript interprets a byte string as a script against one
// Simulation and checks the kernel's one contract on every event it
// fires: among the events that are live at that moment, the one that
// fires is the first by (time, priority, insertion sequence) — the
// sequence a stable sort of the live events by (time, priority) gives.
// The script schedules in the future and at Now(), by time and by delay
// (ScheduleAfter), from the top level and from inside firing actions, at
// priorities -1..2, cancels live events, and interleaves Step, RunUntil
// and Peek. Times are small integers so ties are the common case, and
// the script files at more (delay, priority) pairs than the kernel has
// lanes, so events meant for a lane also go to the heap with every lane
// taken — the one way route lets them get there. Firing actions read
// their follow-on operations from the same script, and two script bytes
// schedule at most 23 events, so every script terminates.
type orderScript struct {
	t    *testing.T
	sim  *Simulation
	data []byte

	// model is one record per event ever scheduled, in insertion order.
	model []orderEvent
	live  int
	fired int

	// firedLaned counts events fired from a lane; lanesFull counts
	// events filed for a lane that went to the heap because every lane
	// was taken.
	firedLaned, lanesFull int
}

type orderEvent struct {
	time     float64
	priority int
	ev       *Event // nil once fired or canceled
	laned    bool   // filed in a lane
}

func (o *orderScript) next() (byte, bool) {
	if len(o.data) == 0 {
		return 0, false
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b, true
}

// first returns the index of the live record that must fire next, or -1.
// Insertion order is the model's index order, so a strict "less" scan
// keeps the earliest-inserted among equals.
func (o *orderScript) first() int {
	min := -1
	for i := range o.model {
		e := &o.model[i]
		if e.ev == nil {
			continue
		}
		if min < 0 {
			min = i
		} else if m := &o.model[min]; e.time < m.time || e.time == m.time && e.priority < m.priority {
			min = i
		}
	}
	return min
}

func orderFire(a any) {
	ref := a.(*orderRef)
	o, id := ref.o, ref.id
	if want := o.first(); want != id {
		w, g := o.model[want], o.model[id]
		o.t.Fatalf("at t=%v event %d (time %v, priority %d) fired while event %d (time %v, priority %d) was live",
			o.sim.Now(), id, g.time, g.priority, want, w.time, w.priority)
	}
	if got := o.sim.Now(); got != o.model[id].time {
		o.t.Fatalf("event %d scheduled for %v fired at %v", id, o.model[id].time, got)
	}
	o.model[id].ev = nil
	o.live--
	o.fired++
	if o.model[id].laned {
		o.firedLaned++
	}
	// The action reacts: up to two follow-on operations.
	b, _ := o.next()
	for k := 0; k < int(b%3); k++ {
		x, ok := o.next()
		if !ok {
			return
		}
		switch x % 4 {
		case 0:
			// The top bit picks the delay form; the event is the same.
			if delay, priority := float64(1+x/4%5), int(x/20%4)-1; x >= 128 {
				o.after(delay, priority)
			} else {
				o.schedule(o.sim.Now()+delay, priority)
			}
		case 1, 2:
			o.schedule(o.sim.Now(), int(x/4%4)-1)
		case 3:
			o.cancel(int(x / 4))
		}
	}
}

type orderRef struct {
	o  *orderScript
	id int
}

func (o *orderScript) schedule(at float64, priority int) {
	id := len(o.model)
	ev := o.sim.ScheduleFn(at, priority, orderFire, &orderRef{o, id})
	o.model = append(o.model, orderEvent{time: at, priority: priority, ev: ev})
	o.live++
	if at == o.sim.Now() {
		o.route(id, 0)
	}
}

// after schedules an event delay from now, by ScheduleAfter.
func (o *orderScript) after(delay float64, priority int) {
	id := len(o.model)
	ev := o.sim.ScheduleAfter(delay, priority, orderFire, &orderRef{o, id})
	o.model = append(o.model, orderEvent{time: o.sim.Now() + delay, priority: priority, ev: ev})
	o.live++
	o.route(id, delay)
}

// route records where the kernel filed event id, which was meant for
// the lane of (delay, its priority): in a lane, or in the heap, which it
// may only be for want of a lane — the pair has none, and every slot is
// claimed by a lane that holds events.
func (o *orderScript) route(id int, delay float64) {
	rec := &o.model[id]
	s := o.sim
	for i := range s.lanes[:s.nlanes] {
		l := &s.lanes[i]
		for e := l.head; e != nil; e = e.next {
			if e == rec.ev {
				rec.laned = true
				return
			}
		}
	}
	for i := range s.lanes[:s.nlanes] {
		if l := &s.lanes[i]; l.head == nil || l.delay == delay && l.priority == rec.priority {
			o.t.Fatalf("event %d (delay %v, priority %d) went to the heap beside lane %d (delay %v, priority %d, empty %v)",
				id, delay, rec.priority, i, l.delay, l.priority, l.head == nil)
		}
	}
	if s.nlanes < len(s.lanes) {
		o.t.Fatalf("event %d (delay %v, priority %d) went to the heap with %d of %d lanes claimed",
			id, delay, rec.priority, s.nlanes, len(s.lanes))
	}
	o.lanesFull++
}

// cancel withdraws the k-th live event (modulo their number).
func (o *orderScript) cancel(k int) {
	if o.live == 0 {
		return
	}
	k %= o.live
	for i := range o.model {
		if e := &o.model[i]; e.ev != nil {
			if k == 0 {
				o.sim.Cancel(e.ev)
				e.ev = nil
				o.live--
				return
			}
			k--
		}
	}
}

// checkDrained requires that no live event is left at or before limit.
func (o *orderScript) checkDrained(what string, limit float64) {
	if i := o.first(); i >= 0 {
		if at := o.model[i].time; at <= limit {
			o.t.Fatalf("%s(%v) left event %d live at %v", what, limit, i, at)
		}
	}
	if o.sim.Pending() < o.live {
		o.t.Fatalf("Pending = %d with %d live events", o.sim.Pending(), o.live)
	}
}

func (o *orderScript) run() {
	for {
		b, ok := o.next()
		if !ok {
			break
		}
		x, _ := o.next()
		now := o.sim.Now()
		switch b % 8 {
		case 0:
			o.schedule(now+float64(1+x%5), int(x/5%4)-1)
		case 1:
			o.schedule(now, int(x%4)-1)
		case 2:
			o.cancel(int(x))
		case 5:
			// Delays 0..4 at four priorities: 20 pairs for 8 lanes.
			o.after(float64(x%5), int(x/5%4)-1)
		case 3:
			want := o.live > 0
			if got := o.sim.Step(); got != want {
				o.t.Fatalf("Step = %v with %d live events", got, o.live)
			}
		case 4:
			limit := now + float64(x%4)
			o.sim.RunUntil(limit)
			o.checkDrained("RunUntil", limit)
			if o.sim.Now() != limit {
				o.t.Fatalf("RunUntil(%v) left the clock at %v", limit, o.sim.Now())
			}
		case 6:
			at, ok := o.sim.Peek()
			if i := o.first(); ok != (i >= 0) || ok && at != o.model[i].time {
				o.t.Fatalf("Peek = (%v, %v) with first live event %d", at, ok, i)
			}
		case 7:
			// A burst at Now(), across the four priorities' lanes.
			for k := 0; k < int(x%24); k++ {
				o.schedule(now, k%4-1)
			}
		}
	}
	o.sim.Run()
	if o.live != 0 || o.sim.Pending() != 0 {
		o.t.Fatalf("after Run: %d live events, Pending = %d", o.live, o.sim.Pending())
	}
	if int(o.sim.Processed()) != o.fired {
		o.t.Fatalf("Processed = %d, model fired %d", o.sim.Processed(), o.fired)
	}
}

// runOrderScript runs the first orderScriptMax bytes of data: the model's
// scan for the next live event makes a script quadratic in its events,
// and the fuzzer grows inputs to a megabyte.
func runOrderScript(t *testing.T, data []byte) {
	(&orderScript{t: t, sim: New(), data: data[:min(len(data), orderScriptMax)]}).run()
}

const orderScriptMax = 256

// orderSeeds are the unit cases of des_test.go in script form: top-level
// operations are (opcode, operand) pairs, and each event that fires reads
// one count byte plus that many follow-on operations.
var orderSeeds = [][]byte{
	// TestEventOrdering: events at +3, +1, +2, then Run.
	{0, 2, 0, 0, 0, 1},
	// TestTieBreakByPriorityThenSeq: one instant, priorities 1, 0, 0, 2.
	{0, 14, 0, 9, 0, 9, 0, 19},
	// TestScheduleFromWithinEvent: Step fires an event whose action
	// schedules one at Now() and one five ahead.
	{0, 0, 3, 0, 2, 1, 16},
	// TestCancelFromWithinEvent: the first event's action cancels the second.
	{0, 0, 0, 1, 3, 0, 1, 3},
	// TestCancelHeadPeekRunUntil, TestRunUntilCanceledHeadDeadline: cancel
	// the head, Peek, RunUntil short of the survivor, Peek, RunUntil to it.
	{0, 0, 0, 4, 2, 0, 6, 0, 4, 2, 6, 0, 4, 3},
	// TestRunUntilAllCanceled: three events, three cancels, RunUntil.
	{0, 0, 0, 1, 0, 2, 2, 0, 2, 0, 2, 0, 4, 3},
	// Two events at +2 and one at Now(), drained by two RunUntil calls
	// with events firing in between.
	{0, 1, 0, 1, 1, 0, 4, 2, 0, 4, 3, 0, 0, 6, 0},
	// Two queued ties; the first one's action schedules two more at Now(),
	// a burst of 23 at Now() fills four lanes, then Peek and
	// RunUntil(Now()) drain the instant.
	append([]byte{0, 5, 0, 5, 3, 0, 2, 5, 9, 7, 23, 6, 0, 4, 0}, make([]byte, 26)...),
	// ScheduleFn at Now() twice, then ScheduleAfter(0), all at priority
	// 0: one lane, fired in insertion order.
	{1, 1, 1, 1, 5, 5},
	// ScheduleAfter at eight pairs claims every lane; Step fires the
	// event at Now(), emptying its lane, and a ninth pair takes that lane
	// over instead of going to the heap.
	{5, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5, 5, 6, 5, 7, 3, 0, 0, 5, 8},
	// ScheduleAfter(1) twice around ScheduleFn(Now()+1), then
	// ScheduleAfter(2), all at priority 0: one lane, then a second.
	{5, 6, 0, 5, 5, 6, 5, 7},
	// ScheduleAfter at all twenty (delay, priority) pairs: eight take
	// the lanes and the rest wait in the heap.
	{5, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5, 5, 6, 5, 7, 5, 8, 5, 9,
		5, 10, 5, 11, 5, 12, 5, 13, 5, 14, 5, 15, 5, 16, 5, 17, 5, 18, 5, 19},
}

// TestEventOrderProperty drives random scripts, and the seed scripts,
// through the order check.
func TestEventOrderProperty(t *testing.T) {
	for _, seed := range orderSeeds {
		runOrderScript(t, seed)
	}
	var fired, firedLaned, lanesFull int
	for trial := 0; trial < 5000; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 20))
		data := make([]byte, 20+r.IntN(orderScriptMax-20))
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		o := &orderScript{t: t, sim: New(), data: data}
		o.run()
		fired += o.fired
		firedLaned += o.firedLaned
		lanesFull += o.lanesFull
	}
	t.Logf("%d events fired, %d from lanes; %d filed for a lane with every lane taken", fired, firedLaned, lanesFull)
	if fired < 100000 || firedLaned < 100000 || lanesFull < 5000 {
		t.Fatalf("the scripts no longer exercise the kernel: %d events fired, %d from lanes; %d filed for a lane with every lane taken",
			fired, firedLaned, lanesFull)
	}
}

// FuzzEventOrder is the same check under the native fuzzer.
func FuzzEventOrder(f *testing.F) {
	for _, seed := range orderSeeds {
		f.Add(seed)
	}
	f.Fuzz(runOrderScript)
}
