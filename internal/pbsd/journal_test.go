// Journal crash-recovery tests: a daemon killed mid-load and restarted
// over the same journal directory must recover the exact pending queue
// (ids, resources, order).

package pbsd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// killed abandons a server without Close: no final journal sync, no
// cleanup — the in-process stand-in for SIGKILL. (Journal writes go
// straight to the kernel via write(2), so a reopened log sees every
// acknowledged operation even without fsync.)
func killed(s *Server) {
	// Intentionally nothing: the *Server and its open journal handle
	// are simply dropped.
	_ = s
}

func TestJournalRecoveryExactQueue(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// A mixed history: submits with varying resources, a qdel by id, a
	// head deletion, more submits.
	var want []Job
	ids := make([]int64, 0, 8)
	for i := 0; i < 6; i++ {
		id, err := srv.Submit(fmt.Sprintf("job-%d", i), 1+i%3, time.Duration(i+1)*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := srv.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DeleteHead(); err != nil { // removes ids[0]
		t.Fatal(err)
	}
	if _, err := srv.Submit("job with spaces in name", 4, 90*time.Minute); err != nil {
		t.Fatal(err)
	}
	want = srv.Pending()
	killed(srv)

	// Restart over the same journal.
	srv2, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if srv2.Recovered() != len(want) {
		t.Fatalf("Recovered() = %d, want %d", srv2.Recovered(), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d pending jobs, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.ID != w.ID || g.Name != w.Name || g.Nodes != w.Nodes || g.Walltime != w.Walltime {
			t.Fatalf("recovered[%d] = {id %d %q nodes %d wall %v}, want {id %d %q nodes %d wall %v}",
				i, g.ID, g.Name, g.Nodes, g.Walltime, w.ID, w.Name, w.Nodes, w.Walltime)
		}
		if g.State != Queued {
			t.Fatalf("recovered[%d] state = %v, want Queued", i, g.State)
		}
	}
	// ID allocation resumes past every id ever issued — no reuse.
	id, err := srv2.Submit("after-restart", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[len(ids)-1]+2 { // +1 was "job with spaces", +2 is this one
		t.Fatalf("post-restart id = %d, want %d", id, ids[len(ids)-1]+2)
	}
}

// Kill the daemon while concurrent clients are mid-churn; whatever the
// daemon acknowledged before the kill must be recovered verbatim.
func TestJournalRecoveryUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Submit(fmt.Sprintf("w%d-%d", w, i), 1+i%4, time.Hour); err != nil {
					return
				}
				if i%3 == 0 {
					srv.DeleteHead()
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait() // all acknowledged operations have hit the journal
	want := srv.Pending()
	killed(srv)

	srv2, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != len(want) {
		t.Fatalf("recovered %d pending jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Nodes != want[i].Nodes ||
			got[i].Name != want[i].Name || got[i].Walltime != want[i].Walltime {
			t.Fatalf("recovered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A torn final line — the signature of a crash mid-write — is ignored;
// every complete record before it is recovered.
func TestJournalRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(fmt.Sprintf("j%d", i), 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	killed(srv)
	path := filepath.Join(dir, "jobs.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("S 4 2 360"); err != nil { // torn mid-record, no newline
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	defer srv2.Close()
	if got := srv2.Recovered(); got != 3 {
		t.Fatalf("Recovered() = %d, want 3 (torn tail ignored)", got)
	}
}

// A torn tail that happens to parse is still torn: a crash that cut
// "D 123\n" to "D 12" must not delete job 12. Job 123's delete never
// completed, so it stays pending too.
func TestJournalRecoveryTornTailThatParses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.log")
	log := "S 1 1 3600000000000 0 a\nS 12 1 3600000000000 0 b\nS 123 1 3600000000000 0 c\nD 12"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	defer srv.Close()
	var ids []int64
	for _, j := range srv.Pending() {
		ids = append(ids, j.ID)
	}
	if fmt.Sprint(ids) != "[1 12 123]" {
		t.Fatalf("recovered %v, want [1 12 123]", ids)
	}
}

// The daemon cuts a torn tail off before it appends again: the next
// record starts on a line of its own, and a second restart recovers it.
func TestJournalAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("first", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	killed(srv)
	f, err := os.OpenFile(filepath.Join(dir, "jobs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("S 2 2 10"); err != nil { // torn mid-record
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	id, err := srv2.Submit("acknowledged", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	killed(srv2)

	srv3, err := New(Config{Nodes: 16, JournalDir: dir})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer srv3.Close()
	got := srv3.Pending()
	if len(got) != 2 || got[1].ID != id || got[1].Name != "acknowledged" {
		t.Fatalf("recovered %+v, want job %d \"acknowledged\" behind \"first\"", got, id)
	}
}

// Corruption before the tail is a loud failure, not silent job loss.
func TestJournalRecoveryRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.log")
	log := "S 1 1 3600000000000 0 ok\nGARBAGE LINE\nS 2 1 3600000000000 0 ok2\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Nodes: 16, JournalDir: dir}); err == nil {
		t.Fatal("mid-log corruption accepted silently")
	}
}

// Started-but-uncompleted jobs (R without C) are requeued on recovery
// at their original position: their nodes died with the daemon.
func TestJournalRecoveryRequeuesStarted(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 4, Execute: true, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// First job starts immediately (fits); second stays queued behind
	// a full pool.
	if _, err := srv.Submit("runner", 4, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit("waiter", 4, time.Hour); err != nil {
		t.Fatal(err)
	}
	if q, r, _ := srv.Stat(); q != 1 || r != 1 {
		t.Fatalf("queued/running = %d/%d, want 1/1", q, r)
	}
	killed(srv)

	srv2, err := New(Config{Nodes: 4, JournalDir: dir}) // Execute off: nothing restarts
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != 2 || got[0].Name != "runner" || got[1].Name != "waiter" {
		t.Fatalf("recovered queue = %+v, want [runner waiter]", got)
	}
}

// Group commit changes the write discipline, not the contract: a
// daemon killed mid-churn and restarted must recover exactly the
// acknowledged pending queue. Every acknowledged submit/delete waited
// for its batch's write+fsync, so the reopened log cannot miss one.
func TestJournalGroupCommitRecoveryUnderConcurrentLoad(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Submit(fmt.Sprintf("w%d-%d", w, i), 1+i%4, time.Hour); err != nil {
					return
				}
				if i%3 == 0 {
					srv.DeleteHead()
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait() // every acknowledged operation's batch has been fsync'd
	want := srv.Pending()
	killed(srv)

	srv2, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != len(want) {
		t.Fatalf("recovered %d pending jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Nodes != want[i].Nodes ||
			got[i].Name != want[i].Name || got[i].Walltime != want[i].Walltime {
			t.Fatalf("recovered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A crash can tear the tail of a batch write exactly like the tail of
// a single-line write: the torn final line is dropped, every complete
// line before it — including earlier lines of the same batch — is
// recovered.
func TestJournalGroupCommitTornBatchTail(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(fmt.Sprintf("j%d", i), 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	killed(srv)
	// Simulate a flush cut off mid-batch: a complete line followed by a
	// torn one, appended in what would have been a single batch write.
	path := filepath.Join(dir, "jobs.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("S 4 2 3600000000000 0 whole\nS 5 2 360"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != 4 || got[3].Name != "whole" {
		t.Fatalf("recovered %d jobs (last %q), want 4 ending in \"whole\"", len(got), got[len(got)-1].Name)
	}
}

// Kill mid-window: operations whose batch never flushed were never
// acknowledged, and they vanish wholesale on recovery — the log is
// always a clean prefix of the event stream, never a reordering.
func TestJournalGroupCommitUnflushedWindowLost(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(fmt.Sprintf("acked-%d", i), 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// An in-flight operation mid-window: its line is in the batch
	// buffer, but the daemon dies before anyone drives the flush — the
	// submitter never got its acknowledgement.
	srv.journal.log('S', &Job{ID: 4, Name: "unacked", Nodes: 1, Walltime: time.Hour, Submit: time.Unix(0, 0)})
	killed(srv)

	srv2, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != 3 {
		t.Fatalf("recovered %d jobs, want 3 (unflushed window lost, acked prefix intact)", len(got))
	}
	for i, j := range got {
		if j.Name != fmt.Sprintf("acked-%d", i) {
			t.Fatalf("recovered[%d] = %q, want acked-%d (recovery order)", i, j.Name, i)
		}
	}
}

// The exact-queue recovery contract holds under group commit too,
// including interleaved deletes whose D lines share batches with
// submits.
func TestJournalGroupCommitRecoveryExactQueue(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 0, 6)
	for i := 0; i < 6; i++ {
		id, err := srv.Submit(fmt.Sprintf("job-%d", i), 1+i%3, time.Duration(i+1)*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := srv.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	want := srv.Pending()
	killed(srv)

	srv2, err := New(Config{Nodes: 16, JournalDir: dir, GroupCommit: true})
	if err != nil {
		t.Fatalf("restart over journal: %v", err)
	}
	defer srv2.Close()
	got := srv2.Pending()
	if len(got) != len(want) {
		t.Fatalf("recovered %d pending jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Name != want[i].Name {
			t.Fatalf("recovered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// refReplay is replay's reference: it splits the log into lines, drops
// an unterminated last one, and applies every complete line's event to a
// queue kept in submit order. A line that does not parse, or a second
// submit of one job, fails it.
func refReplay(log []byte) (pending []Job, maxID int64, complete int, err error) {
	submitted := map[int64]bool{}
	for _, line := range strings.SplitAfter(string(log), "\n") {
		if !strings.HasSuffix(line, "\n") {
			break
		}
		job, id, kind, err := parseEvent(strings.TrimSuffix(line, "\n"))
		if err != nil {
			return nil, 0, 0, err
		}
		complete += len(line)
		switch i := slices.IndexFunc(pending, func(j Job) bool { return j.ID == id }); {
		case kind == 'S' && submitted[id]:
			return nil, 0, 0, fmt.Errorf("job %d submitted twice", id)
		case kind == 'S':
			submitted[id] = true
			maxID = max(maxID, id)
			pending = append(pending, *job)
		case (kind == 'D' || kind == 'C') && i >= 0:
			pending = slices.Delete(pending, i, i+1)
		}
	}
	return pending, maxID, complete, nil
}

// FuzzJournal holds replay to refReplay on an arbitrary log and on a
// prefix of it cut anywhere: a torn tail is ignored whether or not it
// parses, any prefix of a log that replays replays to exactly the state
// of its complete lines, and a newline-terminated line that does not
// parse fails replay. It is seeded with the records of the tests above,
// a log of every event kind, and one submit cut at every byte.
func FuzzJournal(f *testing.F) {
	submit := "S 1 1 3600000000000 0 ok\n"
	for _, seed := range []string{
		"S 1 2 3600000000000 1700000000000000000 job 0\nR 1\nS 2 3 3600000000000 1700000000000000001 job  1\nD 2\nC 1\nR 3\n",
		submit + "GARBAGE LINE\nS 2 1 3600000000000 0 ok2\n",
		"S 1 1 3600000000000 0 a\nS 12 1 3600000000000 0 b\nS 123 1 3600000000000 0 c\nD 12",
		submit + "S 4 2 3600000000000 0 whole\nS 5 2 360",
		submit + "S 2 2 10S 3 1 3600000000000 0 glued\n",
		submit + "R 1\nC 1\nS 1 1 1 0 again\n",
	} {
		f.Add([]byte(seed), uint16(len(seed)))
	}
	for cut := range submit {
		f.Add([]byte(submit+submit), uint16(cut))
	}
	f.Fuzz(func(t *testing.T, log []byte, cut uint16) {
		_, _, _, wholeErr := replay(bytes.NewReader(log))
		for _, b := range [][]byte{log, log[:int(cut)%(len(log)+1)]} {
			got, gotMax, gotComplete, err := replay(bytes.NewReader(b))
			want, wantMax, wantComplete, wantErr := refReplay(b)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%q: replay error %v, the reference %v", b, err, wantErr)
			}
			if err != nil {
				if wholeErr == nil {
					t.Fatalf("%q replays, its prefix %q fails: %v", log, b, err)
				}
				continue
			}
			if gotMax != wantMax || gotComplete != int64(wantComplete) || len(got) != len(want) {
				t.Fatalf("%q: %d pending, max ID %d, %d bytes complete; the reference %d, %d, %d",
					b, len(got), gotMax, gotComplete, len(want), wantMax, wantComplete)
			}
			for i, j := range got {
				w := want[i]
				if j.ID != w.ID || j.Name != w.Name || j.Nodes != w.Nodes || j.Walltime != w.Walltime || !j.Submit.Equal(w.Submit) || j.State != w.State {
					t.Fatalf("%q: pending[%d] = %+v, the reference %+v", b, i, *j, w)
				}
			}
		}
	})
}

// A journal write that fails, in either discipline: the submission it
// carried is refused and leaves no job behind; a per-event delete is
// refused before it touches the queue; a group delete has already
// taken its job out when its batch fails to reach disk, and reports
// the failure. Either way the job's S line is on disk and its D line
// is not, so recovery brings the job back — the safe direction for a
// delete that was never acknowledged.
func TestJournalWriteFailure(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Nodes: 16, JournalDir: dir, GroupCommit: group}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kept, err := srv.Submit("kept", 1, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			srv.journal.file.Close()

			if _, err := srv.Submit("lost", 1, time.Hour); err == nil {
				t.Fatal("submit over a closed journal file succeeded")
			}
			if q, _, _ := srv.Stat(); q != 1 {
				t.Fatalf("queue = %d after the failed submit, want 1", q)
			}
			if got := srv.Pending(); len(got) != 1 || got[0].Name != "kept" {
				t.Fatalf("pending = %+v after the failed submit, want [kept]", got)
			}

			if err := srv.Delete(kept); err == nil {
				t.Fatal("delete over a closed journal file succeeded")
			}
			wantQ := 1 // per-event: refused before the queue changed
			if group {
				wantQ = 0 // group: removed, then the flush failed
			}
			if q, _, _ := srv.Stat(); q != wantQ {
				t.Fatalf("queue = %d after the failed delete, want %d", q, wantQ)
			}
			if got := srv.Pending(); len(got) != wantQ {
				t.Fatalf("pending = %+v after the failed delete, want %d jobs", got, wantQ)
			}
			srv.Close()

			srv2, err := New(cfg)
			if err != nil {
				t.Fatalf("restart over journal: %v", err)
			}
			defer srv2.Close()
			if got := srv2.Pending(); len(got) != 1 || got[0].ID != kept {
				t.Fatalf("recovered %+v, want job %d alone", got, kept)
			}
		})
	}
}

// Completions journal their C lines from timer goroutines, outside the
// queue lock, while submitters journal S lines under it. In either
// discipline the two kinds of writer share the journal safely, and a
// daemon restarted once every job has completed recovers an empty
// queue.
func TestJournalConcurrentCompletions(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			srv, err := New(Config{Nodes: 4, Execute: true, JournalDir: dir, GroupCommit: group})
			if err != nil {
				t.Fatal(err)
			}
			const workers, each = 4, 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if _, err := srv.Submit(fmt.Sprintf("w%d-%d", w, i), 1, time.Millisecond); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			// Every submission counts a cycle, and every completion counts
			// one after its C line is logged.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if cycles, _ := srv.Counters(); cycles == 2*workers*each {
					break
				}
				if time.Now().After(deadline) {
					q, r, _ := srv.Stat()
					t.Fatalf("jobs did not all complete: queued %d, running %d", q, r)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			srv2, err := New(Config{Nodes: 4, JournalDir: dir, GroupCommit: group})
			if err != nil {
				t.Fatalf("restart over journal: %v", err)
			}
			defer srv2.Close()
			if got := srv2.Pending(); len(got) != 0 {
				t.Fatalf("recovered %d jobs after every job completed, want 0", len(got))
			}
		})
	}
}
