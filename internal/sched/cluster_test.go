package sched

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"redreq/internal/des"
	"redreq/internal/obs"
)

// testReq builds a request with the given shape.
func testReq(id int64, nodes int, runtime, estimate float64) *Request {
	return &Request{JobID: id, Nodes: nodes, Runtime: runtime, Estimate: estimate}
}

// submitAt schedules a submission at time t.
func submitAt(sim *des.Simulation, c *Cluster, t float64, r *Request) {
	sim.Schedule(t, func() { c.Submit(r) })
}

func newTestCluster(t *testing.T, sim *des.Simulation, nodes int, alg Algorithm) *Cluster {
	t.Helper()
	return NewCluster(sim, "test", 0, Config{Nodes: nodes, Alg: alg})
}

// runChecked runs the simulation to completion, validating the
// cluster's invariants after every event.
func runChecked(t *testing.T, sim *des.Simulation, c *Cluster) {
	t.Helper()
	for sim.Step() {
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("t=%v: %v", sim.Now(), err)
		}
	}
}

func TestFCFSOrdering(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, FCFS)
	a := testReq(1, 4, 100, 100)
	b := testReq(2, 1, 10, 10) // could backfill, but FCFS must not
	d := testReq(3, 4, 50, 50)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	runChecked(t, sim, c)
	if a.Start != 0 {
		t.Errorf("a.Start = %v, want 0", a.Start)
	}
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100 (FCFS must not backfill)", b.Start)
	}
	if d.Start != 110 {
		t.Errorf("d.Start = %v, want 110", d.Start)
	}
}

func TestEASYBackfill(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	a := testReq(1, 4, 100, 100) // runs [0,100)
	b := testReq(2, 4, 50, 50)   // head: reserved at 100
	d := testReq(3, 1, 10, 10)   // would need a free node: none until 100
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	runChecked(t, sim, c)
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100", b.Start)
	}
	// No free nodes while a runs, so d cannot backfill before 100;
	// at 100 b (head) starts on all 4 nodes; d runs at 150.
	if d.Start != 150 {
		t.Errorf("d.Start = %v, want 150", d.Start)
	}
}

func TestEASYBackfillJumpsAhead(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	a := testReq(1, 2, 100, 100) // runs [0,100) on 2 nodes
	b := testReq(2, 4, 50, 50)   // head: blocked until 100
	d := testReq(3, 2, 80, 80)   // fits now, ends at 82 <= 100: backfills
	e := testReq(4, 2, 200, 200) // fits "now" only after d's nodes... no free nodes
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	submitAt(sim, c, 3, e)
	runChecked(t, sim, c)
	if d.Start != 2 {
		t.Errorf("d.Start = %v, want 2 (backfill)", d.Start)
	}
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100 (reservation kept)", b.Start)
	}
	if e.Start < 100 {
		t.Errorf("e.Start = %v, must not delay head's reservation", e.Start)
	}
}

func TestEASYNoDelayOfHead(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	a := testReq(1, 2, 100, 100) // [0,100) on 2 nodes
	b := testReq(2, 4, 50, 50)   // head: shadow time 100
	d := testReq(3, 2, 150, 150) // fits now but would run past 100 on the 2 free nodes
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	runChecked(t, sim, c)
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100", b.Start)
	}
	if d.Start != 150 {
		t.Errorf("d.Start = %v, want 150 (after head)", d.Start)
	}
}

func TestEASYEarlyCompletionTriggersBackfill(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	a := testReq(1, 4, 30, 100) // requests 100 but finishes at 30
	b := testReq(2, 4, 50, 50)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	runChecked(t, sim, c)
	if b.Start != 30 {
		t.Errorf("b.Start = %v, want 30 (start on early completion)", b.Start)
	}
}

func TestCancelFreesBackfillOpportunity(t *testing.T) {
	for _, alg := range []Algorithm{FCFS, EASY, CBF} {
		sim := des.New()
		c := newTestCluster(t, sim, 4, alg)
		a := testReq(1, 4, 100, 100)
		b := testReq(2, 4, 50, 50)
		d := testReq(3, 4, 10, 10)
		submitAt(sim, c, 0, a)
		submitAt(sim, c, 1, b)
		submitAt(sim, c, 2, d)
		sim.Schedule(5, func() {
			if !c.Cancel(b) {
				t.Errorf("%v: cancel of pending request failed", alg)
			}
		})
		runChecked(t, sim, c)
		if d.Start != 100 {
			t.Errorf("%v: d.Start = %v, want 100 after cancellation of b", alg, d.Start)
		}
		if b.State != Canceled {
			t.Errorf("%v: b.State = %v, want canceled", alg, b.State)
		}
	}
}

func TestCancelRunningFails(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	a := testReq(1, 2, 100, 100)
	submitAt(sim, c, 0, a)
	sim.Schedule(10, func() {
		if c.Cancel(a) {
			t.Error("cancel of running request must fail")
		}
	})
	runChecked(t, sim, c)
	if a.State != Done {
		t.Errorf("a.State = %v, want done", a.State)
	}
}

func TestCBFReservationAndCompression(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, CBF)
	a := testReq(1, 4, 40, 100) // requests 100, finishes at 40
	b := testReq(2, 4, 50, 50)  // reserved at 100
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	var reservedAtSubmit float64
	sim.ScheduleP(1, 2, func() { reservedAtSubmit = b.Reserved })
	runChecked(t, sim, c)
	if reservedAtSubmit != 100 {
		t.Errorf("b reserved at %v, want 100", reservedAtSubmit)
	}
	if b.Start != 40 {
		t.Errorf("b.Start = %v, want 40 (compression on early completion)", b.Start)
	}
	if b.Start > b.Reserved {
		t.Errorf("CBF promise violated: start %v after reservation %v", b.Start, b.Reserved)
	}
}

func TestCBFBackfillsIntoHole(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, CBF)
	a := testReq(1, 2, 100, 100) // [0,100) on 2 nodes
	b := testReq(2, 4, 50, 50)   // reserved [100,150)
	d := testReq(3, 2, 60, 60)   // 2 nodes free until 100: too long? 60 <= 100-1=99: fits at 1
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 1, d)
	runChecked(t, sim, c)
	if d.Start != 1 {
		t.Errorf("d.Start = %v, want 1 (conservative backfill into hole)", d.Start)
	}
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100", b.Start)
	}
}

func TestCBFNoCompressionAblation(t *testing.T) {
	sim := des.New()
	c := NewCluster(sim, "test", 0, Config{Nodes: 4, Alg: CBF, DisableCompression: true})
	a := testReq(1, 4, 40, 100)
	b := testReq(2, 4, 50, 50)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	runChecked(t, sim, c)
	// Without compression b keeps its reservation at 100 even though
	// a finished at 40.
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100 with compression disabled", b.Start)
	}
}

// TestCBFPassAtDueInstant runs a pass at the instant a reservation falls
// due, before the reservation timer fires: a pass resumes its admit walk
// at the cursor only while nothing is due, so this one starts the
// request whatever fired it. The engine's own events never do this — a
// kick scheduled at that instant orders after the timer, which was armed
// earlier — so the test calls the pass directly.
func TestCBFPassAtDueInstant(t *testing.T) {
	sim := des.New()
	c := NewCluster(sim, "test", 0, Config{Nodes: 4, Alg: CBF, DisableCompression: true})
	a := testReq(1, 4, 100, 100) // [0, 100)
	b := testReq(2, 4, 50, 50)   // reserved at 100
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	for a.State != Done && sim.Step() {
	}
	if sim.Now() != 100 || c.timerAt != 100 || c.timerEv == nil {
		t.Fatalf("t=%v: a finished with the timer at %v (event %v), want both at 100", sim.Now(), c.timerAt, c.timerEv)
	}
	c.pass()
	if b.State != Running || b.Start != 100 {
		t.Fatalf("b is %v from %v after a pass at its reservation, want running from 100", b.State, b.Start)
	}
	runChecked(t, sim, c)
}

// TestCBFTiedTimersFireInArmingOrder gives two clusters a reservation
// due at the same instant and requires their timers to fire in the order
// they were armed, whichever cluster comes first by index: the timer is
// an ordinary event, so ties go by (time, priority, insertion).
func TestCBFTiedTimersFireInArmingOrder(t *testing.T) {
	for _, first := range []int{0, 1} {
		sim := des.New()
		var started []int64
		cs := make([]*Cluster, 2)
		for i := range cs {
			cs[i] = NewCluster(sim, fmt.Sprint("c", i), i, Config{Nodes: 4, Alg: CBF})
			cs[i].SetTrace(obs.New()) // to count its timer fires
			cs[i].OnStart = func(r *Request) { started = append(started, r.JobID) }
			submitAt(sim, cs[i], 0, testReq(int64(10+i), 4, 100, 100)) // [0, 100)
		}
		// Job i is reserved at 100 on cluster i, which arms its timer
		// then: cluster first at t=1, the other at t=2.
		submitAt(sim, cs[first], 1, testReq(int64(first), 4, 50, 50))
		submitAt(sim, cs[1-first], 2, testReq(int64(1-first), 4, 50, 50))
		for sim.Step() {
			for _, c := range cs {
				if err := c.checkInvariants(); err != nil {
					t.Fatalf("t=%v: %v", sim.Now(), err)
				}
			}
		}
		fires := 0
		for _, c := range cs {
			fires += int(c.cTimerFires.Value())
		}
		if want := []int64{10, 11, int64(first), int64(1 - first)}; !slices.Equal(started, want) || fires != 2 {
			t.Errorf("armed cluster %d first: jobs started in the order %v after %d timer fires, want %v after 2",
				first, started, fires, want)
		}
	}
}

func TestCBFHoleUsableAfterCancelWithoutCompression(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, CBF)
	a := testReq(1, 4, 100, 100) // [0,100)
	b := testReq(2, 4, 50, 50)   // reserved [100,150)
	d := testReq(3, 4, 50, 50)   // reserved [150,200)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	// Cancel b at t=5; without CompressOnCancel d keeps its 150
	// reservation, but a NEW request may claim the [100,150) hole.
	e := testReq(4, 4, 40, 40)
	sim.Schedule(5, func() { c.Cancel(b) })
	submitAt(sim, c, 6, e)
	runChecked(t, sim, c)
	if e.Start != 100 {
		t.Errorf("e.Start = %v, want 100 (hole released by cancellation)", e.Start)
	}
	// a's completion at t=100 triggers compression, which legally
	// moves d earlier (to e's end at 140); never later than 150.
	if d.Start != 140 {
		t.Errorf("d.Start = %v, want 140 (compressed after a's completion)", d.Start)
	}
	if d.Start > d.Reserved {
		t.Errorf("CBF promise violated: start %v after reservation %v", d.Start, d.Reserved)
	}
}

// A request with a zero estimate would hold nodes for the rest of the
// pass that starts it and nothing in the profile, and CBF used to panic
// deep inside that pass when the next reservation fell due ("reservation
// due ... but only k/n nodes free"). Submit refuses it, by name; EASY and
// FCFS, which keep no profile, still take it.
func TestCBFRejectsZeroEstimate(t *testing.T) {
	for _, alg := range []Algorithm{FCFS, EASY} {
		sim := des.New()
		c := newTestCluster(t, sim, 4, alg)
		c.Submit(testReq(1, 4, 0, 0))
		runChecked(t, sim, c)
		if c.Stats().Finished != 1 {
			t.Errorf("%v: zero-estimate request did not run", alg)
		}
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "CBF") || !strings.Contains(msg, "estimate 0") {
			t.Fatalf("Submit of a zero-estimate request under CBF: %s, want a panic that names CBF and the estimate", msg)
		}
	}()
	c := newTestCluster(t, des.New(), 4, CBF)
	c.Submit(testReq(1, 2, 0, 0))
}

func TestDisableCancelBackfillAblation(t *testing.T) {
	sim := des.New()
	c := NewCluster(sim, "test", 0, Config{Nodes: 4, Alg: EASY, DisableCancelBackfill: true})
	a := testReq(1, 4, 100, 100)
	b := testReq(2, 4, 50, 50)
	d := testReq(3, 2, 10, 10)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	submitAt(sim, c, 2, d)
	// Cancel a... a is running; cancel b instead and verify no
	// immediate pass happens (d still cannot run anyway until a
	// ends; this exercises the flag path).
	sim.Schedule(5, func() { c.Cancel(b) })
	runChecked(t, sim, c)
	if d.Start != 100 {
		t.Errorf("d.Start = %v, want 100", d.Start)
	}
}

// TestRandomStressInvariants pushes random workloads through every
// algorithm and verifies global invariants: capacity is never
// oversubscribed, every request runs exactly once for its full
// runtime, waits are non-negative, and CBF never starts a request
// after the time promised at submission.
func TestRandomStressInvariants(t *testing.T) {
	algs := []Algorithm{FCFS, EASY, CBF}
	for _, alg := range algs {
		for trial := 0; trial < 5; trial++ {
			r := rand.New(rand.NewPCG(uint64(trial), uint64(alg)))
			sim := des.New()
			const nodes = 16
			c := newTestCluster(t, sim, nodes, alg)
			const n = 300
			reqs := make([]*Request, n)
			tArr := 0.0
			for i := 0; i < n; i++ {
				tArr += float64(r.IntN(10))
				runtime := 1 + float64(r.IntN(100))
				estimate := runtime * (1 + 2*r.Float64())
				reqs[i] = testReq(int64(i), 1+r.IntN(nodes), runtime, estimate)
				submitAt(sim, c, tArr, reqs[i])
			}
			// Cancel a random subset while pending.
			for i := 0; i < 30; i++ {
				idx := r.IntN(n)
				at := tArr * r.Float64()
				sim.Schedule(at, func() {
					if reqs[idx].Cluster() == c { // not yet submitted otherwise
						c.Cancel(reqs[idx])
					}
				})
			}
			runChecked(t, sim, c)
			type edge struct {
				t     float64
				delta int
			}
			var edges []edge
			for i, rq := range reqs {
				switch rq.State {
				case Done:
					if rq.Start < rq.Submit {
						t.Fatalf("%v trial %d: req %d started before submission", alg, trial, i)
					}
					if math.Abs((rq.End-rq.Start)-rq.Runtime) > 1e-9 {
						t.Fatalf("%v trial %d: req %d ran %v, want %v", alg, trial, i, rq.End-rq.Start, rq.Runtime)
					}
					if alg == CBF && !math.IsNaN(rq.Reserved) && rq.Start > rq.Reserved+1e-9 {
						t.Fatalf("%v trial %d: req %d started at %v after promise %v", alg, trial, i, rq.Start, rq.Reserved)
					}
					edges = append(edges, edge{rq.Start, rq.Nodes}, edge{rq.End, -rq.Nodes})
				case Canceled:
					// fine
				default:
					t.Fatalf("%v trial %d: req %d left in state %v", alg, trial, i, rq.State)
				}
			}
			sort.Slice(edges, func(a, b int) bool {
				if edges[a].t != edges[b].t {
					return edges[a].t < edges[b].t
				}
				return edges[a].delta < edges[b].delta // frees before allocs at ties
			})
			used := 0
			for _, e := range edges {
				used += e.delta
				if used > nodes {
					t.Fatalf("%v trial %d: capacity oversubscribed: %d > %d at t=%v", alg, trial, used, nodes, e.t)
				}
			}
			if used != 0 {
				t.Fatalf("%v trial %d: node leak at end: %d", alg, trial, used)
			}
		}
	}
}

// TestFinishMissingFromRunningSetPanics corrupts the running set and
// checks that finish names the cluster and the job instead of quietly
// freeing nodes nobody was recorded as holding.
func TestFinishMissingFromRunningSetPanics(t *testing.T) {
	sim := des.New()
	c := NewCluster(sim, "site7", 0, Config{Nodes: 4, Alg: EASY})
	a := testReq(42, 2, 100, 100)
	submitAt(sim, c, 0, a)
	for a.State != Running {
		if !sim.Step() {
			t.Fatal("request never started")
		}
	}
	c.running = c.running[:0]
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "site7") || !strings.Contains(msg, "job 42") {
			t.Errorf("finish of a request missing from the running set: recovered %q, want a panic naming site7 and job 42", msg)
		}
		if c.free != 2 {
			t.Errorf("free = %d after the refused finish, want 2 (untouched)", c.free)
		}
	}()
	c.finish(a)
}

func TestSubmitValidation(t *testing.T) {
	sim := des.New()
	c := newTestCluster(t, sim, 4, EASY)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized request")
		}
	}()
	c.Submit(testReq(1, 5, 10, 10))
}
