// Fast-path tests: the incremental scheduling cycle must keep
// per-operation work flat where the full-scan mode pays O(queue), and
// the lock split must let Stat/Counters answer while a scheduling
// cycle holds the queue lock.

package pbsd

import (
	"fmt"
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
