// Tests for graceful degradation: queue-cap shedding with BUSY
// responses, deadline-budget admission control with LATE responses,
// the draining Listener.Close, and race coverage for the shed and
// DeleteHead paths under concurrent submit/cancel/Close.

package pbsd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redreq/internal/obs"
)

func TestQueueCapShedsDirect(t *testing.T) {
	tr := obs.New()
	srv, err := New(Config{Nodes: 16, MaxQueue: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit("j", 1, time.Hour); err != nil {
			t.Fatalf("submit %d under the cap: %v", i, err)
		}
	}
	if _, err := srv.Submit("j", 1, time.Hour); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit over the cap: err = %v, want ErrBusy", err)
	}
	// Shedding must not corrupt the queue: deleting a job frees a slot.
	if _, err := srv.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("j", 1, time.Hour); err != nil {
		t.Fatalf("submit after freeing a slot: %v", err)
	}
	if got := tr.Snapshot().Counter("pbsd.shed"); got != 1 {
		t.Fatalf("pbsd.shed = %d, want 1", got)
	}
}

func TestQueueCapShedsOverTheWire(t *testing.T) {
	srv, err := New(Config{Nodes: 16, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ln.Close(); srv.Close() }()
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit("first", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("second", 1, time.Hour); !errors.Is(err, ErrBusy) {
		t.Fatalf("wire submit over the cap: err = %v, want ErrBusy", err)
	}
	// The connection survives a BUSY — the daemon shed the request, it
	// did not crash or drop the session.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after BUSY: %v", err)
	}
	if q, _, _, err := c.Stat(); err != nil || q != 1 {
		t.Fatalf("queue after shed = %d (%v), want 1", q, err)
	}
}

// Admission control: with a drain EWMA established, a queue whose
// estimated wait exceeds the budget sheds with ErrLate — distinct from
// ErrBusy — and the pbsd.late counter records it.
func TestAdmissionBudgetShedsLate(t *testing.T) {
	tr := obs.New()
	srv, err := New(Config{Nodes: 16, AdmitBudget: time.Millisecond, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Build a deep queue, then teach the EWMA a slow drain: two
	// deletes ~20 ms apart make the estimated wait for a 100-deep
	// queue ~2 s >> the 1 ms budget.
	for i := 0; i < 102; i++ {
		if _, err := srv.Submit("preload", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := srv.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	_, err = srv.Submit("late", 1, time.Hour)
	if !errors.Is(err, ErrLate) {
		t.Fatalf("submit past the budget: err = %v, want ErrLate", err)
	}
	if errors.Is(err, ErrBusy) {
		t.Fatal("ErrLate must be distinct from ErrBusy")
	}
	if got := tr.Snapshot().Counter("pbsd.late"); got != 1 {
		t.Fatalf("pbsd.late = %d, want 1", got)
	}
	// Draining the queue re-opens admission: with nothing pending the
	// estimated wait is zero regardless of the EWMA.
	for {
		if _, err := srv.DeleteHead(); err != nil {
			break
		}
	}
	if _, err := srv.Submit("ok-again", 1, time.Hour); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// The LATE verdict has its own wire shape, distinct from BUSY and ERR,
// and the client maps it back to ErrLate.
func TestAdmissionBudgetLateOverTheWire(t *testing.T) {
	srv, err := New(Config{Nodes: 16, AdmitBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ln.Close(); srv.Close() }()
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime queue + EWMA so the next submit estimates over budget.
	for i := 0; i < 3; i++ {
		if _, err := c.Submit("p", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := c.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit("late", 1, time.Hour); !errors.Is(err, ErrLate) {
		t.Fatalf("wire submit past budget: err = %v, want ErrLate", err)
	}
	// The connection survives a LATE, like a BUSY.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after LATE: %v", err)
	}
}

// Race coverage for the shed/BUSY path: many goroutines hammer Submit
// against a tiny cap while others drain with DeleteHead and Delete and
// the server finally Closes mid-traffic. Run under -race; the
// assertions are liveness (no deadlock, clean exits) and conservation
// (every successful submit is eventually deleted or still pending).
func TestConcurrentShedDeleteHeadClose(t *testing.T) {
	srv, err := New(Config{Nodes: 16, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg        sync.WaitGroup
		submitted atomic.Int64
		deleted   atomic.Int64
		busy      atomic.Int64
	)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := srv.Submit(fmt.Sprintf("w%d-%d", w, i), 1, time.Hour)
				switch {
				case err == nil:
					submitted.Add(1)
					if rng.Intn(2) == 0 {
						if srv.Delete(id) == nil {
							deleted.Add(1)
						}
					}
				case errors.Is(err, ErrBusy):
					busy.Add(1)
				default:
					return // server closed
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
				if _, err := srv.DeleteHead(); err == nil {
					deleted.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if submitted.Load() == 0 || busy.Load() == 0 {
		t.Fatalf("exercised too little: %d submits, %d busy", submitted.Load(), busy.Load())
	}
	q, _, _ := srv.Stat()
	if pending := submitted.Load() - deleted.Load(); pending != int64(q) {
		t.Fatalf("conservation: %d submitted - %d deleted = %d, but queue holds %d",
			submitted.Load(), deleted.Load(), pending, q)
	}
	if q > 4 {
		t.Fatalf("queue %d exceeded its cap 4", q)
	}
}

// Close must wait for in-flight commands: their responses are written
// before the connection goes down. Run with -race: this hammers the
// listener from many goroutines while Close races against dispatch.
func TestCloseDrainsInflight(t *testing.T) {
	srv, err := New(Config{Nodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		wg       sync.WaitGroup
		started  sync.WaitGroup
		torn     atomic.Int64 // conversations cut mid-flight (expected during close)
		answered atomic.Int64 // completed round trips
	)
	started.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(ln.Addr())
			if err != nil {
				started.Done()
				return
			}
			defer c.Close()
			started.Done()
			for i := 0; ; i++ {
				if _, err := c.Submit(fmt.Sprintf("w%d-%d", w, i), 1, time.Hour); err != nil {
					// The listener is closing: the conversation ends,
					// but it must end cleanly, not hang.
					torn.Add(1)
					return
				}
				answered.Add(1)
			}
		}(w)
	}
	started.Wait()
	// Let traffic flow, then close mid-stream.
	for answered.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan error, 1)
	go func() { closed <- ln.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(drainGrace + 2*time.Second):
		t.Fatal("Close did not return within the drain grace period")
	}
	wg.Wait()
	if answered.Load() == 0 {
		t.Fatal("no round trips completed before close")
	}
}

// An idle connection parked in a read must be released by Close
// without receiving a spurious protocol-error diagnostic, and the
// error counters must stay clean.
func TestCloseReleasesIdleConn(t *testing.T) {
	tr := obs.New()
	srv, err := New(Config{Nodes: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	// The next round trip fails — but with a clean connection close,
	// not an "ERR read:" diagnostic provoked by the drain deadline.
	if err := c.Ping(); err == nil {
		t.Fatal("round trip succeeded after Close")
	} else if s := err.Error(); len(s) >= 8 && s[:8] == "pbsd: re" {
		t.Fatalf("drain surfaced as a protocol diagnostic: %v", err)
	}
	if got := tr.Snapshot().Counter("pbsd.errors"); got != 0 {
		t.Fatalf("pbsd.errors = %d after clean drain, want 0", got)
	}
}
