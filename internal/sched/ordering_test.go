package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"redreq/internal/des"
)

func orderedCluster(nodes int, alg Algorithm, ord Ordering) (*des.Simulation, *Cluster) {
	sim := des.New()
	c := NewCluster(sim, "test", 0, Config{Nodes: nodes, Alg: alg, Order: ord})
	return sim, c
}

func TestParseOrdering(t *testing.T) {
	cases := []struct {
		in   string
		want Ordering
	}{
		{"fcfs", OrderFCFS},
		{"FCFS", OrderFCFS},
		{"sjf", OrderSJF},
		{" aged ", OrderAged},
	}
	for _, tc := range cases {
		got, err := ParseOrdering(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOrdering(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseOrdering("lifo"); err == nil {
		t.Error("ParseOrdering(lifo) accepted")
	}
}

func TestOrderingString(t *testing.T) {
	for ord, want := range map[Ordering]string{OrderFCFS: "fcfs", OrderSJF: "sjf", OrderAged: "aged", OrderClass: "class"} {
		if got := ord.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(ord), got, want)
		}
	}
}

func TestCBFRejectsNonFCFSOrdering(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster accepted CBF with SJF ordering")
		}
	}()
	NewCluster(des.New(), "bad", 0, Config{Nodes: 1, Alg: CBF, Order: OrderSJF})
}

// SJF under FCFS dispatch: the shortest pending request starts first
// once the blocking job frees the nodes, regardless of arrival order.
func TestSJFReordersQueue(t *testing.T) {
	sim, c := orderedCluster(4, FCFS, OrderSJF)
	blocker := testReq(1, 4, 100, 100)
	long := testReq(2, 4, 80, 80)
	short := testReq(3, 4, 10, 10)
	submitAt(sim, c, 0, blocker)
	submitAt(sim, c, 1, long)
	submitAt(sim, c, 2, short)
	runChecked(t, sim, c)
	if short.Start != 100 {
		t.Errorf("short.Start = %v, want 100 (SJF must run it first)", short.Start)
	}
	if long.Start != 110 {
		t.Errorf("long.Start = %v, want 110", long.Start)
	}
}

// Equal estimates tie-break FCFS: stable sort preserves arrival order.
func TestSJFTieBreaksFCFS(t *testing.T) {
	sim, c := orderedCluster(1, FCFS, OrderSJF)
	blocker := testReq(1, 1, 50, 50)
	first := testReq(2, 1, 10, 10)
	second := testReq(3, 1, 10, 10)
	submitAt(sim, c, 0, blocker)
	submitAt(sim, c, 1, first)
	submitAt(sim, c, 2, second)
	runChecked(t, sim, c)
	if first.Start != 50 || second.Start != 60 {
		t.Errorf("tie-break broke arrival order: first=%v second=%v, want 50/60", first.Start, second.Start)
	}
}

// Aged priority lets a long-waiting long job overtake a fresh short
// one: (wait+est)/est grows without bound with wait.
func TestAgedPreventsStarvation(t *testing.T) {
	sim, c := orderedCluster(1, FCFS, OrderAged)
	blocker := testReq(1, 1, 1000, 1000)
	old := testReq(2, 1, 500, 500) // waits 999s: priority (999+500)/500 ≈ 3.0
	fresh := testReq(3, 1, 100, 100)
	submitAt(sim, c, 0, blocker)
	submitAt(sim, c, 1, old)
	submitAt(sim, c, 999, fresh) // at t=1000: (1+100)/100 ≈ 1.01
	runChecked(t, sim, c)
	if old.Start != 1000 {
		t.Errorf("old.Start = %v, want 1000 (aged priority must beat the fresh short job)", old.Start)
	}
	if fresh.Start != 1500 {
		t.Errorf("fresh.Start = %v, want 1500", fresh.Start)
	}
}

// EASY with SJF ordering: the view head (shortest job) gets the shadow
// reservation and backfill still may not delay it.
func TestEASYOrderedBackfillRespectsShadow(t *testing.T) {
	sim, c := orderedCluster(4, EASY, OrderSJF)
	blocker := testReq(1, 4, 100, 100)  // runs [0,100)
	head := testReq(2, 4, 50, 50)       // shortest waiting: shadow at 100
	filler := testReq(3, 1, 200, 200)   // would push the shadow: must wait
	backfill := testReq(4, 4, 300, 300) // longest: runs last
	submitAt(sim, c, 0, blocker)
	submitAt(sim, c, 1, backfill)
	submitAt(sim, c, 2, head)
	submitAt(sim, c, 3, filler)
	runChecked(t, sim, c)
	if head.Start != 100 {
		t.Errorf("head.Start = %v, want 100", head.Start)
	}
	if filler.Start != 150 {
		t.Errorf("filler.Start = %v, want 150 (after the SJF head)", filler.Start)
	}
	if backfill.Start != 350 {
		t.Errorf("backfill.Start = %v, want 350", backfill.Start)
	}
}

// Under OrderFCFS the pass reads the queue itself, in arrival order:
// an FCFS cluster built through the ordering helper starts requests at
// the plain FCFS test's times.
func TestOrderFCFSMatchesPlainFCFS(t *testing.T) {
	sim, c := orderedCluster(4, FCFS, OrderFCFS)
	a := testReq(1, 4, 100, 100)
	b := testReq(2, 1, 10, 10)
	submitAt(sim, c, 0, a)
	submitAt(sim, c, 1, b)
	runChecked(t, sim, c)
	if b.Start != 100 {
		t.Errorf("b.Start = %v, want 100", b.Start)
	}
}

func TestQueuedWorkAccounting(t *testing.T) {
	sim, c := orderedCluster(2, FCFS, OrderFCFS)
	blocker := testReq(1, 2, 100, 100)
	waiting := testReq(2, 2, 10, 20)
	doomed := testReq(3, 1, 5, 8)
	submitAt(sim, c, 0, blocker)
	submitAt(sim, c, 1, waiting)
	submitAt(sim, c, 1, doomed)
	sim.Schedule(2, func() {
		if got, want := c.QueuedWork(), 20*2.0+8*1.0; got != want {
			t.Errorf("QueuedWork at t=2 = %v, want %v", got, want)
		}
		c.Cancel(doomed)
		if got, want := c.QueuedWork(), 20*2.0; got != want {
			t.Errorf("QueuedWork after cancel = %v, want %v", got, want)
		}
	})
	runChecked(t, sim, c)
	if got := c.QueuedWork(); got != 0 {
		t.Errorf("QueuedWork after drain = %v, want 0", got)
	}
}

// TestClassOrdering runs small EASY streams in class order under class
// limits: a node pool behind several prioritized queues, one class per
// queue, each capped at its limit of running requests.
func TestClassOrdering(t *testing.T) {
	type job struct {
		at       float64
		class    int32
		nodes    int
		run, est float64
		start    float64 // expected; NaN for canceled while pending, -1 for unchecked
	}
	type cancel struct {
		at   float64
		job  int
		want bool
	}
	drain := make([]job, 50)
	for i := range drain {
		drain[i] = job{float64(i), int32(i % 2), 1 + i%8, float64(10 + i%90), 3000, -1}
	}
	cases := []struct {
		name    string
		nodes   int
		limits  []int
		jobs    []job
		cancels []cancel
	}{
		// Class 0 goes first, though class 1 arrived first.
		{"priority across classes", 4, []int{0, 0}, []job{
			{0, 1, 4, 50, 50, 0}, {1, 1, 4, 10, 10, 60}, {2, 0, 4, 10, 10, 50}}, nil},
		// Class 0 is at its cap of one: its second request waits with
		// nodes free and does not block class 1.
		{"capped class holds without blocking", 16, []int{1, 0}, []job{
			{0, 0, 2, 100, 100, 0}, {1, 0, 2, 10, 10, 100}, {2, 1, 2, 10, 10, 2}}, nil},
		// The class-0 head is blocked until 100; a class-1 request that
		// ends by then backfills around it.
		{"backfill from a lower class around a blocked higher-class head", 4, []int{0, 0}, []job{
			{0, 0, 2, 100, 100, 0}, {1, 0, 4, 50, 50, 100}, {2, 1, 2, 80, 80, 2}}, nil},
		// Only a pending request cancels, and only once.
		{"cancel", 4, []int{4, 0}, []job{{0, 1, 4, 100, 100, 0}, {1, 1, 4, 50, 50, math.NaN()}},
			[]cancel{{5, 1, true}, {5, 1, false}, {5, 0, false}}},
		{"node accounting after drain", 8, []int{2, 0}, drain, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			c := NewCluster(sim, "test", 0, Config{Nodes: tc.nodes, Alg: EASY, Order: OrderClass, ClassLimit: tc.limits})
			reqs := make([]*Request, len(tc.jobs))
			for i, j := range tc.jobs {
				reqs[i] = testReq(int64(i), j.nodes, j.run, j.est)
				reqs[i].Class = j.class
				submitAt(sim, c, j.at, reqs[i])
			}
			for _, cn := range tc.cancels {
				sim.Schedule(cn.at, func() {
					if got := c.Cancel(reqs[cn.job]); got != cn.want {
						t.Errorf("t=%v: Cancel(job %d) = %v, want %v", cn.at, cn.job, got, cn.want)
					}
				})
			}
			runChecked(t, sim, c)
			for i, j := range tc.jobs {
				switch r := reqs[i]; {
				case math.IsNaN(j.start) && r.State != Canceled:
					t.Errorf("job %d is %v, want canceled", i, r.State)
				case j.start >= 0 && r.Start != j.start:
					t.Errorf("job %d (class %d) started at %v, want %v", i, j.class, r.Start, j.start)
				}
			}
			if c.Free() != tc.nodes || c.QueueLen() != 0 || slices.ContainsFunc(c.classRunning, func(n int) bool { return n != 0 }) {
				t.Errorf("after the drain: %d of %d nodes free, %d queued, %v running per class", c.Free(), tc.nodes, c.QueueLen(), c.classRunning)
			}
		})
	}
}

// TestClassLimitRejects requires NewCluster to refuse class limits off
// EASY's ordered pass or below zero, and Submit on a class-limited
// cluster to refuse a class the limits do not cover, an estimate below
// the runtime and a second submission of one request.
func TestClassLimitRejects(t *testing.T) {
	panics := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		f()
	}
	t.Run("bad limits", func(t *testing.T) {
		for _, cfg := range []Config{
			{Nodes: 4, Alg: FCFS, Order: OrderClass, ClassLimit: []int{1}},
			{Nodes: 4, Alg: CBF, ClassLimit: []int{1}},
			{Nodes: 4, Alg: EASY, ClassLimit: []int{1}},
			{Nodes: 4, Alg: EASY, Order: OrderClass, ClassLimit: []int{1, -1}},
		} {
			panics(t, fmt.Sprintf("%v/%v with limits %v", cfg.Alg, cfg.Order, cfg.ClassLimit), func() { NewCluster(des.New(), "bad", 0, cfg) })
		}
	})
	t.Run("bad submits", func(t *testing.T) {
		c := NewCluster(des.New(), "c", 0, Config{Nodes: 4, Alg: EASY, Order: OrderClass, ClassLimit: []int{1, 0}})
		for _, class := range []int32{-1, 2} {
			r := testReq(1, 1, 1, 1)
			r.Class = class
			panics(t, fmt.Sprintf("class %d under two limits", class), func() { c.Submit(r) })
		}
		panics(t, "an estimate below the runtime", func() { c.Submit(testReq(2, 1, 100, 50)) })
		a := testReq(3, 1, 100, 100)
		c.Submit(a)
		panics(t, "a second submit", func() { c.Submit(a) })
	})
}
