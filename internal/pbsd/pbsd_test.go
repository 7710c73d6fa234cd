package pbsd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"redreq/internal/loadgen"
)

func newTestServer(t *testing.T, nodes int, execute bool) *Server {
	t.Helper()
	s, err := New(Config{Nodes: nodes, Execute: execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSubmitAndStat(t *testing.T) {
	s := newTestServer(t, 16, false)
	id1, err := s.Submit("a", 4, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit("b", 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id1 {
		t.Errorf("ids not increasing: %d then %d", id1, id2)
	}
	q, r, free := s.Stat()
	if q != 2 || r != 0 || free != 16 {
		t.Errorf("Stat = %d/%d/%d; execution disabled, all should queue", q, r, free)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, 16, false)
	if _, err := s.Submit("x", 0, time.Hour); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := s.Submit("x", 1, 0); err == nil {
		t.Error("zero walltime accepted")
	}
	if _, err := s.Submit("x", 17, time.Hour); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized request error = %v, want ErrTooLarge", err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestServer(t, 16, false)
	id, _ := s.Submit("a", 1, time.Hour)
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("double delete error = %v", err)
	}
	if q, _, _ := s.Stat(); q != 0 {
		t.Errorf("queue = %d after delete", q)
	}
}

func TestDeleteHeadOrder(t *testing.T) {
	s := newTestServer(t, 16, false)
	var ids []int64
	for i := 0; i < 5; i++ {
		id, _ := s.Submit(fmt.Sprintf("j%d", i), 1, time.Hour)
		ids = append(ids, id)
	}
	for i := 0; i < 5; i++ {
		got, err := s.DeleteHead()
		if err != nil {
			t.Fatal(err)
		}
		if got != ids[i] {
			t.Fatalf("DeleteHead = %d, want %d (FIFO head)", got, ids[i])
		}
	}
	if _, err := s.DeleteHead(); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("DeleteHead on empty queue = %v", err)
	}
}

func TestExecutionAndCompletion(t *testing.T) {
	s := newTestServer(t, 4, true)
	id, err := s.Submit("quick", 2, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	_, r, free := s.Stat()
	if r != 1 || free != 2 {
		t.Fatalf("running = %d free = %d right after submit", r, free)
	}
	// A running job cannot be deleted via qdel (pending-only).
	if err := s.Delete(id); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("delete running job = %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, r, free = s.Stat()
		if r == 0 && free == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not complete: running=%d free=%d", r, free)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSchedulerStartsQueuedWork(t *testing.T) {
	s := newTestServer(t, 4, true)
	// Fill the machine, then queue one more; it must start when the
	// first completes.
	if _, err := s.Submit("wide", 4, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("next", 4, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	q, r, _ := s.Stat()
	if q != 1 || r != 1 {
		t.Fatalf("queued=%d running=%d", q, r)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		q, r, free := s.Stat()
		if q == 0 && r == 0 && free == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job never ran: q=%d r=%d", q, r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBackfillRespectsPool(t *testing.T) {
	s := newTestServer(t, 4, true)
	s.Submit("hold", 3, 80*time.Millisecond)
	s.Submit("wide", 4, 50*time.Millisecond) // blocked
	s.Submit("slim", 1, 10*time.Millisecond) // can backfill on 1 free node
	_, r, free := s.Stat()
	if free < 0 {
		t.Fatalf("negative free nodes: %d (running %d)", free, r)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		q, r, free := s.Stat()
		if free > 4 || free < 0 {
			t.Fatalf("pool accounting broken: free=%d", free)
		}
		if q == 0 && r == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs stuck: q=%d r=%d", q, r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCycleScansWholeQueue(t *testing.T) {
	// The paper-faithful mode: every operation rescans the whole queue.
	s, err := New(Config{Nodes: 16, FullScanCycle: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const preload = 500
	for i := 0; i < preload; i++ {
		s.Submit("p", 1, time.Hour)
	}
	c0, s0 := s.Counters()
	s.Submit("probe", 1, time.Hour)
	s.DeleteHead()
	c1, s1 := s.Counters()
	if c1-c0 != 2 {
		t.Fatalf("expected 2 cycles, got %d", c1-c0)
	}
	perCycle := float64(s1-s0) / 2
	if perCycle < preload-1 {
		t.Fatalf("scanned %.0f jobs per cycle, want >= %d (full-queue scan)", perCycle, preload)
	}
}

func TestConcurrentSubmitDelete(t *testing.T) {
	s := newTestServer(t, 16, false)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.Submit(fmt.Sprintf("c%d-%d", w, i), 1, time.Hour); err != nil {
					errCh <- err
					return
				}
				if _, err := s.DeleteHead(); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if q, _, _ := s.Stat(); q != 0 {
		t.Fatalf("queue = %d after balanced submit/delete", q)
	}
}

func TestJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Nodes: 4, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ { // crosses the periodic-sync boundary
		if _, err := s.Submit("j", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := newTestServer(t, 4, false)
	s.Close()
	if _, err := s.Submit("late", 1, time.Hour); err == nil {
		t.Error("submit after close accepted")
	}
}

// Figure 5's contract, read closed-loop over loopback TCP as sec4 reads
// it: a deep queue is slower than an empty one because every
// operation's cycle scans all of it.
func TestThroughputDecaysWithQueueSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	measure := func(queueSize int) (pairRate, avgScan float64) {
		t.Helper()
		ch, err := NewChurn(Config{Nodes: 16, FullScanCycle: true}, queueSize, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		res, err := loadgen.Ceiling(context.Background(), 2, 300*time.Millisecond, ch.Pair)
		if err != nil {
			t.Fatal(err)
		}
		return res.Goodput, ch.AvgScan()
	}
	small, _ := measure(0)
	big, scan := measure(8000)
	if big >= small {
		t.Errorf("throughput did not decay: empty %.1f vs 8000-deep %.1f pairs/s", small, big)
	}
	if scan < 7000 {
		t.Errorf("avg scan %.0f, want ~8000 (full-queue cycles)", scan)
	}
}

// Over the protocol, Pair holds one pooled connection per call, leaves
// the queue at its preloaded depth, and gives up with the caller's
// context when every connection is taken.
func TestChurnPairOverTCP(t *testing.T) {
	ch, err := NewChurn(Config{Nodes: 16}, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	res, err := loadgen.Ceiling(context.Background(), 4, 50*time.Millisecond, ch.Pair)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatalf("no pair completed: %+v", res)
	}
	if q, _, _ := ch.Server.Stat(); q != 50 {
		t.Errorf("queue depth %d after churn, want the preloaded 50", q)
	}
	held := []*Client{<-ch.conns, <-ch.conns}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := ch.Pair(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Pair with no free connection = %v, want the context's error", err)
	}
	for _, cl := range held {
		ch.conns <- cl
	}
}

func TestLoadBound(t *testing.T) {
	if got := LoadBound(6, 5); got != 30 {
		t.Errorf("LoadBound(6,5) = %d, want 30 (the paper's Section 4.1 number)", got)
	}
	if got := LoadBound(0, 5); got != 0 {
		t.Errorf("LoadBound(0,5) = %d", got)
	}
	if got := LoadBound(-1, 5); got != 0 {
		t.Errorf("LoadBound(-1,5) = %d", got)
	}
}

// After Close, Delete and DeleteHead are refused with Submit's error,
// whatever the journal, and the queue keeps its jobs.
func TestDeleteAfterClose(t *testing.T) {
	for _, mode := range []struct {
		name           string
		journal, group bool
	}{{"no-journal", false, false}, {"per-event", true, false}, {"group", true, true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := Config{Nodes: 4, GroupCommit: mode.group}
			if mode.journal {
				cfg.JournalDir = t.TempDir()
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, err := s.Submit("a", 1, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Submit("b", 1, time.Hour); err != nil {
				t.Fatal(err)
			}
			s.Close()
			_, want := s.Submit("late", 1, time.Hour)
			if want == nil {
				t.Fatal("submit after close accepted")
			}
			if err := s.Delete(id); err == nil || err.Error() != want.Error() {
				t.Errorf("Delete after close = %v, want %q", err, want)
			}
			if _, err := s.DeleteHead(); err == nil || err.Error() != want.Error() {
				t.Errorf("DeleteHead after close = %v, want %q", err, want)
			}
			if q, _, _ := s.Stat(); q != 2 {
				t.Errorf("queue = %d after refused deletes, want 2", q)
			}
			if got := s.Pending(); len(got) != 2 {
				t.Errorf("pending = %+v after refused deletes, want 2 jobs", got)
			}
		})
	}
}
