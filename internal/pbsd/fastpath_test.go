// Fast-path tests: the incremental scheduling cycle must keep
// per-operation work flat where the full-scan mode pays O(queue), and
// the lock split must let Stat/Counters answer while a scheduling
// cycle holds the queue lock.

package pbsd

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// The incremental mode's whole point: churn against a deep queue
// examines O(1) jobs per operation, not the whole queue.
func TestIncrementalCycleSkipsQueueScan(t *testing.T) {
	s := newTestServer(t, 16, false)
	const preload = 500
	for i := 0; i < preload; i++ {
		if _, err := s.Submit("p", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	c0, s0 := s.Counters()
	if _, err := s.Submit("probe", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	c1, s1 := s.Counters()
	if c1-c0 != 2 {
		t.Fatalf("expected 2 cycles, got %d", c1-c0)
	}
	// With execution off nothing can ever start, so neither event needs
	// to examine any job at all.
	if s1-s0 != 0 {
		t.Fatalf("scanned %d jobs across 2 incremental cycles, want 0", s1-s0)
	}
}

// With execution on, the watermark gates the rescan: releasing fewer
// free nodes than the smallest pending request triggers no scan, and
// the release that crosses the watermark runs exactly one.
func TestIncrementalWatermarkGatesRescan(t *testing.T) {
	s := newTestServer(t, 4, true)
	if _, err := s.Submit("hold", 2, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("hold2", 2, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("wide", 4, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if q, r, free := s.Stat(); q != 1 || r != 2 || free != 0 {
		t.Fatalf("q/r/free = %d/%d/%d, want 1/2/0", q, r, free)
	}
	_, s0 := s.Counters()

	// First completion frees 2 nodes — below wide's watermark of 4, so
	// the release must not scan the queue.
	waitFor(t, func() bool { _, r, _ := s.Stat(); return r == 1 })
	if _, s1 := s.Counters(); s1 != s0 {
		t.Fatalf("sub-watermark release scanned %d jobs, want 0", s1-s0)
	}

	// Second completion crosses the watermark: the rescan starts wide,
	// and wide eventually drains the machine.
	waitFor(t, func() bool {
		q, r, free := s.Stat()
		return q == 0 && r == 0 && free == 4
	})
	if _, s1 := s.Counters(); s1 == s0 {
		t.Fatal("watermark-crossing release never scanned the queue")
	}
}

// An event whose incremental reaction escalates to a queue rescan is
// still one scheduling cycle: deleting a blocked head that exposes a
// startable job counts one cycle and one scanned job.
func TestRescanCountsOneCycle(t *testing.T) {
	s := newTestServer(t, 4, true)
	if _, err := s.Submit("run", 2, time.Hour); err != nil {
		t.Fatal(err)
	}
	head, err := s.Submit("wide", 4, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Fits the 2 free nodes but outlasts the shadow, so it queues
	// behind the blocked head instead of backfilling.
	if _, err := s.Submit("behind", 2, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	if q, r, free := s.Stat(); q != 2 || r != 1 || free != 2 {
		t.Fatalf("q/r/free = %d/%d/%d, want 2/1/2", q, r, free)
	}
	c0, s0 := s.Counters()
	if err := s.Delete(head); err != nil {
		t.Fatal(err)
	}
	c1, s1 := s.Counters()
	if c1-c0 != 1 || s1-s0 != 1 {
		t.Fatalf("head delete counted %d cycles and %d scanned jobs, want 1 and 1", c1-c0, s1-s0)
	}
	if q, r, _ := s.Stat(); q != 0 || r != 2 {
		t.Fatalf("q/r = %d/%d after the rescan, want 0/2", q, r)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stat and Counters are lock-free: they must answer even while another
// goroutine holds both the queue and the running-set locks (as a
// scheduling cycle does at its worst).
func TestStatDoesNotBlockOnSchedulingLocks(t *testing.T) {
	s := newTestServer(t, 16, false)
	if _, err := s.Submit("a", 2, time.Hour); err != nil {
		t.Fatal(err)
	}
	s.qmu.Lock()
	s.rmu.Lock()
	done := make(chan [3]int, 1)
	go func() {
		q, r, free := s.Stat()
		s.Counters()
		done <- [3]int{q, r, free}
	}()
	select {
	case got := <-done:
		if got != [3]int{1, 0, 16} {
			t.Errorf("Stat under held locks = %v, want [1 0 16]", got)
		}
	case <-time.After(time.Second):
		t.Error("Stat blocked behind the scheduling locks")
	}
	s.rmu.Unlock()
	s.qmu.Unlock()
}

// Race gate: status reads hammering a daemon mid-churn (submit,
// cancel, start, complete) must be clean under -race and must never
// observe impossible gauge values.
func TestStatDuringChurn(t *testing.T) {
	s := newTestServer(t, 4, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(fmt.Sprintf("c%d-%d", w, i), 1+i%4, time.Millisecond); err != nil {
					return
				}
				if i%2 == 0 {
					s.DeleteHead()
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q, r, free := s.Stat()
				if q < 0 || r < 0 || free < 0 || free > 4 {
					t.Errorf("impossible Stat: q=%d r=%d free=%d", q, r, free)
					return
				}
				s.Counters()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// FullScanCycle decides nothing of its own: it charges every cycle the
// whole-queue priority pass on top of the incremental cycle. Random
// submit/delete/delete-head scripts, run on an incremental daemon and
// on a FullScanCycle daemon, both executing, leave the two with equal
// replies, Stat and Pending after every step, while the full-scan
// daemon's scanned count grows by at least the queue length per cycle.
// Walltimes are whole minutes of at least an hour, so no job completes
// within a script and a backfill decision cannot hinge on the few
// microseconds between the two daemons' clocks. Completions stay
// uncompared until the daemon's clock can be driven from a test.
func TestFullScanDecidesLikeIncremental(t *testing.T) {
	scripts := 1000
	if testing.Short() {
		scripts = 100
	}
	rng := rand.New(rand.NewSource(1))
	for script := 0; script < scripts; script++ {
		var srv [2]*Server
		for i, full := range []bool{false, true} {
			s, err := New(Config{Nodes: 16, Execute: true, FullScanCycle: full})
			if err != nil {
				t.Fatal(err)
			}
			srv[i] = s
		}
		var ids []int64
		for step := 0; step < 60; step++ {
			op := rng.Intn(4)
			nodes := 1 + rng.Intn(8)
			wall := time.Duration(60+rng.Intn(180)) * time.Minute
			var victim int64
			if len(ids) > 0 {
				victim = ids[rng.Intn(len(ids))]
			}
			var got [2]string
			q0, _, _ := srv[1].Stat()
			c0, s0 := srv[1].Counters()
			for i, s := range srv {
				var id int64
				var err error
				switch op {
				case 0, 1:
					id, err = s.Submit(fmt.Sprintf("j%d", step), nodes, wall)
				case 2:
					id, err = victim, s.Delete(victim)
				case 3:
					id, err = s.DeleteHead()
				}
				got[i] = fmt.Sprint(id, err)
				if op < 2 && err == nil && i == 0 {
					ids = append(ids, id)
				}
			}
			if got[0] != got[1] {
				t.Fatalf("script %d step %d op %d: incremental %q, full scan %q", script, step, op, got[0], got[1])
			}
			qi, ri, fi := srv[0].Stat()
			qf, rf, ff := srv[1].Stat()
			if qi != qf || ri != rf || fi != ff {
				t.Fatalf("script %d step %d: Stat %d/%d/%d incremental, %d/%d/%d full scan", script, step, qi, ri, fi, qf, rf, ff)
			}
			pi, pf := srv[0].Pending(), srv[1].Pending()
			if !slices.EqualFunc(pi, pf, func(a, b Job) bool { return a.ID == b.ID && a.Name == b.Name }) {
				t.Fatalf("script %d step %d: pending %v incremental, %v full scan", script, step, pi, pf)
			}
			c1, s1 := srv[1].Counters()
			if ci, _ := srv[0].Counters(); ci != c1 {
				t.Fatalf("script %d step %d: %d cycles incremental, %d full scan", script, step, ci, c1)
			}
			if least := (c1 - c0) * uint64(min(q0, qf)); s1-s0 < least {
				t.Fatalf("script %d step %d: full scan scanned %d jobs in %d cycles over a queue of %d -> %d", script, step, s1-s0, c1-c0, q0, qf)
			}
		}
		for _, s := range srv {
			s.Close()
		}
	}
}
