// Job journaling: PBS persists a file per job under its spool
// directory; the journal reproduces that per-submission disk cost —
// and, since it records the whole queue-changing event stream, it
// doubles as a write-ahead log: a daemon restarted over the same
// directory replays the log and recovers its pending queue exactly
// (ids, resources, submit order).
//
// The log is line-oriented, one event per line:
//
//	S <id> <nodes> <walltime-ns> <submit-unixnano> <name>
//	D <id>          job deleted while queued (qdel / qdelhead)
//	R <id>          job started (acquired nodes)
//	C <id>          job completed or was killed at its walltime
//
// Replay semantics: a job is pending after recovery iff an S was
// recorded and no D or C followed. A started-but-uncompleted job (R
// without C) is REQUEUED at its original queue position — its nodes
// died with the daemon, which is what PBS does for jobs without
// checkpoints. An unterminated final line (the crash happened
// mid-write) is torn and ignored, whether or not what reached the disk
// happens to parse: a cut "D 123" reads as "D 12". A newline-terminated
// line that does not parse is a corrupt journal wherever it sits, and
// fails recovery loudly rather than silently dropping jobs. Reopening
// cuts the torn tail off before the next append, so a new record never
// joins a fragment.
//
// The daemon journals every event the same way: under its queue lock
// it logs the event's line and gets back a batch number, and once it
// has released the lock it commits that batch before acknowledging.
// Batch 0 means there is nothing to wait for. Two write disciplines sit
// behind that one path and share this format. The per-event discipline
// writes each line as it is logged (syncing every 256 lines) and
// returns batch 0. The group-commit discipline appends the line to the
// open batch's buffer, and the first committer of that batch flushes
// the whole buffer with one write + one fsync — every acknowledged
// operation is on disk, but concurrent operations share the flush.
// Lines join the batch in queue-mutation order (S/D lines are logged
// under the queue lock), so a batch is just a contiguous slice of the
// same event stream and replay is unchanged: a crash mid-flush can
// tear at most the final line of what reached the file, exactly the
// single-line torn tail replay already tolerates.

package pbsd

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

type journal struct {
	file  *os.File
	group bool // group commit; false is the per-event discipline

	// mu guards the state below. It also serializes per-event writes,
	// since completions log outside the server's queue lock.
	mu   sync.Mutex
	cond *sync.Cond

	// Per-event discipline: lines written since the last periodic sync.
	n int

	// Group commit. batch numbers the open batch, which buf accumulates;
	// log returns the batch its line joined, and commit blocks until
	// flushed passes it. Batches start at 1. The first committer of an
	// unflushed batch becomes the leader: it seals the buffer and
	// performs the write + fsync outside the lock while later arrivals
	// accumulate the next batch. err is sticky — after one failed flush
	// every subsequent commit fails, because the log's tail is now
	// undefined.
	buf      []byte
	batch    uint64
	flushed  uint64 // batches below this are durably on disk
	flushing bool
	err      error
}

// openJournal replays any existing log under dir and returns the
// journal (opened for appending), the recovered pending jobs in queue
// order, and the highest job ID ever issued.
func openJournal(dir string, group bool) (*journal, []*Job, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("pbsd: journal: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "jobs.log"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("pbsd: journal: %w", err)
	}
	pending, maxID, complete, err := replay(f)
	if err == nil {
		err = f.Truncate(complete)
	}
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("pbsd: journal: %w", err)
	}
	j := &journal{file: f, group: group, batch: 1, flushed: 1}
	j.cond = sync.NewCond(&j.mu)
	return j, pending, maxID, nil
}

// replay reconstructs the pending queue from an event log. It also
// returns the highest job ID ever issued and the length in bytes of the
// log's complete lines, the prefix that excludes a torn tail.
func replay(log io.Reader) ([]*Job, int64, int64, error) {
	// Every job ever submitted, nil once deleted or completed: IDs are
	// never reused, so a second submit of one is corruption too.
	jobs := make(map[int64]*Job)
	var order []int64 // submit order, including since-removed ids
	var maxID, complete int64
	rd := bufio.NewReaderSize(log, 64<<10)
	for lineno := 1; ; lineno++ {
		line, err := rd.ReadString('\n')
		if err == io.EOF {
			break // the torn tail, if line holds one
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay: %w", err)
		}
		job, id, kind, err := parseEvent(line[:len(line)-1])
		if err != nil {
			return nil, 0, 0, fmt.Errorf("replay: line %d: %v", lineno, err)
		}
		complete += int64(len(line))
		switch kind {
		case 'S':
			if id > maxID {
				maxID = id
			}
			if _, dup := jobs[id]; dup {
				return nil, 0, 0, fmt.Errorf("replay: line %d: duplicate submit for job %d", lineno, id)
			}
			jobs[id] = job
			order = append(order, id)
		case 'D', 'C':
			if jobs[id] != nil {
				jobs[id] = nil
			}
		case 'R':
			// Started but never completed: requeue on recovery. The job
			// stays in the map at its original position.
			if j := jobs[id]; j != nil {
				j.State = Queued
			}
		}
	}
	pending := make([]*Job, 0, len(jobs))
	for _, id := range order {
		if j := jobs[id]; j != nil {
			pending = append(pending, j)
		}
	}
	return pending, maxID, complete, nil
}

// parseEvent decodes one journal line into its event kind, job id,
// and (for submits) the job itself.
func parseEvent(line string) (*Job, int64, byte, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, 0, 0, fmt.Errorf("truncated event %q", line)
	}
	kind := fields[0]
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || id <= 0 {
		return nil, 0, 0, fmt.Errorf("bad job id in %q", line)
	}
	switch kind {
	case "D", "R", "C":
		return nil, id, kind[0], nil
	case "S":
		if len(fields) < 6 {
			return nil, 0, 0, fmt.Errorf("truncated submit %q", line)
		}
		nodes, err := strconv.Atoi(fields[2])
		if err != nil || nodes < 1 {
			return nil, 0, 0, fmt.Errorf("bad nodes in %q", line)
		}
		wallNS, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || wallNS <= 0 {
			return nil, 0, 0, fmt.Errorf("bad walltime in %q", line)
		}
		submitNS, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("bad submit time in %q", line)
		}
		return &Job{
			ID:       id,
			Name:     strings.Join(fields[5:], " "),
			Nodes:    nodes,
			Walltime: time.Duration(wallNS),
			Submit:   time.Unix(0, submitNS),
			State:    Queued,
		}, id, 'S', nil
	default:
		return nil, 0, 0, fmt.Errorf("unknown event kind %q", kind)
	}
}

// eventLine renders one event of job — kind is S, D, R or C — as a
// log line.
func eventLine(kind byte, job *Job) string {
	if kind == 'S' {
		return fmt.Sprintf("S %d %d %d %d %s\n",
			job.ID, job.Nodes, int64(job.Walltime), job.Submit.UnixNano(), sanitizeName(job.Name))
	}
	return fmt.Sprintf("%c %d\n", kind, job.ID)
}

// log journals one event of job and returns the batch that commit must
// wait for. The per-event discipline writes the line at once and
// returns 0, as does a daemon without a journal (a nil j); group
// commit appends the line to the open batch. The server logs S and D
// lines while holding its queue lock, which is what keeps log order
// identical to queue-mutation order.
func (j *journal) log(kind byte, job *Job) (uint64, error) {
	if j == nil {
		return 0, nil
	}
	line := eventLine(kind, job)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.group {
		j.buf = append(j.buf, line...)
		return j.batch, nil
	}
	if _, err := io.WriteString(j.file, line); err != nil {
		return 0, fmt.Errorf("pbsd: journal write: %w", err)
	}
	j.n++
	if j.n%256 == 0 {
		if err := j.file.Sync(); err != nil {
			return 0, fmt.Errorf("pbsd: journal sync: %w", err)
		}
	}
	return 0, nil
}

// logAsync journals an R or C event without waiting for it. Those
// lines matter only relative to their own job's S line (replay
// requeues R-without-C), so a failed write is ignored, and a group
// batch is committed in the background in case no acknowledged
// operation comes along to share its flush.
func (j *journal) logAsync(kind byte, job *Job) {
	if batch, _ := j.log(kind, job); batch != 0 {
		go j.commit(batch)
	}
}

// commit blocks until the given batch is durably on disk (or has
// failed); batch 0 returns at once. The first caller waiting on an
// unflushed batch becomes the leader: it seals the buffer, advances the
// batch counter so concurrent logs accumulate the next window, and
// performs one write + one fsync for every line sealed. Followers of
// the same batch just wait for the leader's broadcast — that sharing is
// the whole point of group commit.
func (j *journal) commit(batch uint64) error {
	if batch == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.err != nil {
			return j.err
		}
		if j.flushed > batch {
			return nil
		}
		if j.flushing {
			j.cond.Wait()
			continue
		}
		j.flushing = true
		sealed := j.batch
		buf := j.buf
		j.buf = nil
		j.batch++
		j.mu.Unlock()
		var err error
		if len(buf) > 0 {
			if _, werr := j.file.Write(buf); werr != nil {
				err = fmt.Errorf("pbsd: journal write: %w", werr)
			} else if serr := j.file.Sync(); serr != nil {
				err = fmt.Errorf("pbsd: journal sync: %w", serr)
			}
		}
		j.mu.Lock()
		j.flushing = false
		if err != nil {
			j.err = err
		} else {
			j.flushed = sealed + 1
		}
		j.cond.Broadcast()
	}
}

// sanitizeName keeps job names single-line so they cannot forge
// journal events; interior whitespace is preserved by the replay's
// rejoin, newlines are flattened.
func sanitizeName(name string) string {
	if !strings.ContainsAny(name, "\n\r") {
		return name
	}
	name = strings.ReplaceAll(name, "\n", " ")
	return strings.ReplaceAll(name, "\r", " ")
}

// close flushes the open batch (empty under the per-event discipline),
// syncs the file and closes it.
func (j *journal) close() error {
	j.mu.Lock()
	open := j.batch
	j.mu.Unlock()
	err := j.commit(open)
	if err == nil {
		err = j.file.Sync()
	}
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	return err
}
