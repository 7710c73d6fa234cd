package sched

import (
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
	for ord, want := range map[Ordering]string{OrderFCFS: "fcfs", OrderSJF: "sjf", OrderAged: "aged"} {
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

// FCFS ordering through the ordered code path would be a bug; make
// sure the dispatcher keeps OrderFCFS on the original passes (same
// start times as the plain FCFS test).
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
