package predict

import (
	"math"
	"testing"
	"testing/quick"

	"redreq/internal/des"
	"redreq/internal/sched"
)

func TestWaitForNewEmptySystem(t *testing.T) {
	s := Snapshot{TotalNodes: 16}
	w, err := s.WaitForNew(8, 100)
	if err != nil || w != 0 {
		t.Fatalf("empty system wait = %v, %v; want 0", w, err)
	}
}

func TestWaitForNewBehindRunning(t *testing.T) {
	s := Snapshot{
		TotalNodes: 16,
		Running:    []RunningEntry{{Nodes: 16, RemainingEst: 500}},
	}
	w, err := s.WaitForNew(1, 100)
	if err != nil || w != 500 {
		t.Fatalf("wait = %v, %v; want 500", w, err)
	}
}

func TestWaitForNewBehindQueue(t *testing.T) {
	s := Snapshot{
		TotalNodes: 16,
		Running:    []RunningEntry{{Nodes: 16, RemainingEst: 100}},
		Pending: []QueueEntry{
			{Nodes: 16, Estimate: 200}, // starts at 100, ends 300
			{Nodes: 8, Estimate: 50},   // starts at 300
		},
	}
	// A new 16-node request: after pending job 2's window [300,350)
	// only 8 nodes are in use, but a 16-node job needs all; so it
	// starts at 350.
	w, err := s.WaitForNew(16, 100)
	if err != nil || w != 350 {
		t.Fatalf("wait = %v, %v; want 350", w, err)
	}
	// A new 8-node request can share [300,350) with the 8-node job.
	w, err = s.WaitForNew(8, 40)
	if err != nil || w != 300 {
		t.Fatalf("8-node wait = %v, %v; want 300", w, err)
	}
}

func TestNoBackfillingAssumption(t *testing.T) {
	// A tiny new job behind a blocked wide job must NOT jump ahead:
	// the estimate ignores backfilling (that is the paper's point —
	// such estimates are pessimistic).
	s := Snapshot{
		TotalNodes: 16,
		Running:    []RunningEntry{{Nodes: 8, RemainingEst: 1000}},
		Pending:    []QueueEntry{{Nodes: 16, Estimate: 100}}, // blocked until 1000
	}
	w, err := s.WaitForNew(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Strict queue order: wide job runs [1000,1100); the 1-node job
	// fits alongside... the wide job uses all 16 nodes, so the new
	// job waits for 8 free nodes at t=0? No: 8 nodes are free NOW,
	// but queue order forces it behind the wide job's reservation.
	// The earliest anchor after accounting the wide job is t=0 only
	// if capacity remains; the wide job occupies [1000,1100) fully,
	// so a 10-second job fits in [0,1000).
	if w != 0 {
		t.Fatalf("wait = %v, want 0 (hole before the wide reservation fits 10s)", w)
	}
	// But a job longer than the hole cannot fit before the wide
	// job's reservation and lands after it.
	w, err = s.WaitForNew(16, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1100 {
		t.Fatalf("wait = %v, want 1100", w)
	}
}

func TestQueueWaitsOrder(t *testing.T) {
	s := Snapshot{
		TotalNodes: 4,
		Running:    []RunningEntry{{Nodes: 4, RemainingEst: 10}},
		Pending: []QueueEntry{
			{Nodes: 4, Estimate: 10},
			{Nodes: 4, Estimate: 10},
			{Nodes: 4, Estimate: 10},
		},
	}
	waits, err := s.QueueWaits()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
}

func TestValidateRejectsBadSnapshots(t *testing.T) {
	bad := []Snapshot{
		{TotalNodes: 0},
		{TotalNodes: 4, Running: []RunningEntry{{Nodes: 0}}},
		{TotalNodes: 4, Running: []RunningEntry{{Nodes: 5, RemainingEst: 1}}},
		{TotalNodes: 4, Pending: []QueueEntry{{Nodes: 5, Estimate: 1}}},
		{TotalNodes: 4, Pending: []QueueEntry{{Nodes: 1, Estimate: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("snapshot %d unexpectedly valid", i)
		}
	}
}

func TestWaitForNewErrors(t *testing.T) {
	s := Snapshot{TotalNodes: 4}
	if _, err := s.WaitForNew(5, 10); err == nil {
		t.Error("oversized request not rejected")
	}
	if _, err := s.WaitForNew(1, 0); err == nil {
		t.Error("zero estimate not rejected")
	}
}

func TestMinWait(t *testing.T) {
	busy := Snapshot{TotalNodes: 16, Running: []RunningEntry{{Nodes: 16, RemainingEst: 1000}}}
	idle := Snapshot{TotalNodes: 16}
	small := Snapshot{TotalNodes: 4} // cannot run a 8-node job
	w, err := MinWait([]Snapshot{busy, idle, small}, 8, 100)
	if err != nil || w != 0 {
		t.Fatalf("MinWait = %v, %v; want 0 via the idle cluster", w, err)
	}
	w, err = MinWait([]Snapshot{busy, small}, 8, 100)
	if err != nil || w != 1000 {
		t.Fatalf("MinWait = %v, %v; want 1000", w, err)
	}
	if _, err := MinWait([]Snapshot{small}, 8, 100); err == nil {
		t.Error("MinWait with no fitting cluster did not error")
	}
	if _, err := MinWait(nil, 1, 1); err == nil {
		t.Error("MinWait with no snapshots did not error")
	}
}

func TestFromCluster(t *testing.T) {
	sim := des.New()
	c := sched.NewCluster(sim, "test", 0, sched.Config{Nodes: 8, Alg: sched.FCFS})
	a := &sched.Request{JobID: 1, Nodes: 8, Runtime: 50, Estimate: 100}
	b := &sched.Request{JobID: 2, Nodes: 4, Runtime: 10, Estimate: 20}
	sim.Schedule(0, func() { c.Submit(a) })
	sim.Schedule(1, func() { c.Submit(b) })
	sim.RunUntil(10)
	snap := FromCluster(c)
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Running) != 1 || len(snap.Pending) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// a started at 0 with estimate 100; at now=10 remaining est 90.
	if snap.Running[0].RemainingEst != 90 {
		t.Errorf("remaining = %v, want 90", snap.Running[0].RemainingEst)
	}
	w, err := snap.WaitForNew(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	// b (4 nodes, est 20) runs [90,110); an 8-node job needs all
	// nodes: waits until 110.
	if w != 110 {
		t.Errorf("wait = %v, want 110", w)
	}
}

// Property: predictions are conservative relative to a smaller queue —
// removing any pending entry never increases the predicted wait of a
// new request.
func TestQuickMonotoneInQueue(t *testing.T) {
	f := func(raw []uint16, nodesRaw, estRaw uint8) bool {
		s := Snapshot{TotalNodes: 16}
		for _, v := range raw {
			s.Pending = append(s.Pending, QueueEntry{
				Nodes:    int(v%16) + 1,
				Estimate: float64(v%500) + 1,
			})
		}
		nodes := int(nodesRaw%16) + 1
		est := float64(estRaw) + 1
		full, err := s.WaitForNew(nodes, est)
		if err != nil {
			return false
		}
		if len(s.Pending) == 0 {
			return full == 0
		}
		// Drop the last entry; wait must not increase.
		shorter := s
		shorter.Pending = s.Pending[:len(s.Pending)-1]
		less, err := shorter.WaitForNew(nodes, est)
		if err != nil {
			return false
		}
		return less <= full+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackfillAwareJumpsAhead(t *testing.T) {
	// 8 nodes busy of 16; a wide head blocks strictly-ordered
	// prediction, but a tiny short job can backfill immediately.
	s := Snapshot{
		TotalNodes: 16,
		Running:    []RunningEntry{{Nodes: 8, RemainingEst: 1000}},
		Pending:    []QueueEntry{{Nodes: 16, Estimate: 500}},
	}
	plain, aware, ratio, err := s.Pessimism(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Plain: the hole [0,1000) fits a 100s job on 8 free nodes?
	// Queue order: the wide head reserves [1000,1500); a 4-node job
	// fits at 0 (8 free, 100s < 1000s hole).
	if plain != 0 || aware != 0 {
		t.Fatalf("plain=%v aware=%v", plain, aware)
	}
	_ = ratio
	// Make the new job too long for the hole: plain pushes it after
	// the head, backfill-aware does too (it would delay the head) —
	// so use a job that fits the *extra* nodes instead.
	plain, err = s.WaitForNew(4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if plain != 1500 {
		t.Fatalf("plain long = %v, want 1500 (after the head)", plain)
	}
	aware, err = s.WaitForNewEASY(4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// EASY: head needs all 16 at t=1000. A 4-node/2000s job started
	// now would hold nodes until 2000 and delay the head, so EASY
	// also waits; it starts when the head starts... the head uses 16
	// nodes until 1500, so the job starts at 1500. Both agree here.
	if aware != 1500 {
		t.Fatalf("aware long = %v, want 1500", aware)
	}
}

func TestPredictorsAgreeWithoutFutureArrivals(t *testing.T) {
	// Both predictors place narrow short jobs into the hole before
	// the wide head's reservation: the plain predictor anchors each
	// job CBF-style (earliest slot that does not delay earlier-queued
	// jobs), and the EASY simulation backfills them. Absent future
	// arrivals — the thing no prediction can know, and the root cause
	// of the inaccuracy Section 5 quantifies — the two largely agree.
	s := Snapshot{
		TotalNodes: 16,
		Running:    []RunningEntry{{Nodes: 12, RemainingEst: 1000}},
		Pending: []QueueEntry{
			{Nodes: 16, Estimate: 400}, // head, can start at 1000
			{Nodes: 2, Estimate: 300},  // fits the hole before it
			{Nodes: 2, Estimate: 300},
		},
	}
	plainWaits, err := s.QueueWaits()
	if err != nil {
		t.Fatal(err)
	}
	awareWaits, err := s.QueueWaitsEASY()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1000, 0, 0}
	for i := range want {
		if plainWaits[i] != want[i] {
			t.Fatalf("plain waits = %v, want %v", plainWaits, want)
		}
		if awareWaits[i] != want[i] {
			t.Fatalf("aware waits = %v, want %v", awareWaits, want)
		}
	}
}

func TestBackfillAwareEmpty(t *testing.T) {
	s := Snapshot{TotalNodes: 8}
	w, err := s.WaitForNewEASY(8, 100)
	if err != nil || w != 0 {
		t.Fatalf("empty system aware wait = %v, %v", w, err)
	}
	waits, err := s.QueueWaitsEASY()
	if err != nil || len(waits) != 0 {
		t.Fatalf("QueueWaitsEASY on empty = %v, %v", waits, err)
	}
}

func TestBackfillAwareValidation(t *testing.T) {
	s := Snapshot{TotalNodes: 4}
	if _, err := s.WaitForNewEASY(5, 10); err == nil {
		t.Error("oversized request accepted")
	}
	if _, err := s.WaitForNewEASY(1, -1); err == nil {
		t.Error("negative estimate accepted")
	}
}

// Property: the backfill-aware simulation always terminates with a
// finite non-negative wait for every entry, and an empty queue always
// predicts zero. (Note aware <= plain does NOT hold in general: under
// EASY other pending jobs may backfill into the very hole the strict
// queue-order world would have left for the new request.)
func TestQuickBackfillAwareWellFormed(t *testing.T) {
	f := func(raw []uint16) bool {
		s := Snapshot{TotalNodes: 16}
		s.Running = []RunningEntry{{Nodes: 10, RemainingEst: 500}}
		for _, v := range raw {
			s.Pending = append(s.Pending, QueueEntry{
				Nodes:    int(v%16) + 1,
				Estimate: float64(v%900) + 10,
			})
		}
		waits, err := s.QueueWaitsEASY()
		if err != nil || len(waits) != len(s.Pending) {
			return false
		}
		for _, w := range waits {
			if w < 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				return false
			}
		}
		aware, err := s.WaitForNewEASY(1, 5)
		return err == nil && aware >= 0 && !math.IsInf(aware, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// An overdue running job (no requested time left) is charged the same
// hold by both predictors, so on a snapshot holding only such a job
// they agree and Pessimism reports no pessimism at all.
func TestPessimismOverdueOnly(t *testing.T) {
	s := Snapshot{TotalNodes: 8, Running: []RunningEntry{{Nodes: 8, RemainingEst: 0}}}
	plain, aware, ratio, err := s.Pessimism(4, 60)
	if err != nil || ratio != 1 {
		t.Fatalf("Pessimism on an overdue-only snapshot = (%v, %v, %v, %v), want equal waits and ratio 1", plain, aware, ratio, err)
	}
}
