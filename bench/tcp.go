package main

import (
	"fmt"
	"slices"
	"time"

	"redreq/internal/pbsd"
	"redreq/internal/rng"
)

const (
	// tcpDepth is how many pending jobs the queue is preloaded to and
	// stays at: Figure 5's axis.
	tcpDepth = 10000
	// tcpPairs is the pinned number of timed submit+stat+delete pairs
	// and tcpWarm the untimed ones that end setup.
	tcpPairs = 650000
	tcpWarm  = 40000
)

// tcpJob is one generated submission.
type tcpJob struct {
	name  string
	nodes int
	wall  time.Duration
}

// genTCPJobs derives n submissions from the seed. Nothing executes on
// the daemon, so every job queues.
func genTCPJobs(seed uint64, n int) []tcpJob {
	src := rng.New(seed)
	jobs := make([]tcpJob, n)
	for i := range jobs {
		jobs[i] = tcpJob{
			name:  fmt.Sprintf("job-%08x", src.IntN(1<<31)),
			nodes: 1 + src.IntN(gridNodes),
			wall:  time.Duration(60+src.IntN(7200)) * time.Second,
		}
	}
	return jobs
}

// tcpWorkload drives the pbsd daemon over its TCP line protocol with
// the middleware bypassed: incremental cycle, queue held at tcpDepth, one
// closed-loop caller on one connection.
//
// The daemon keeps no journal. The benchmark may only write inside its
// checkout, which sits on a real block device, and the legacy journal's
// per-event write lands in a filesystem that is committing and writing
// back the previous seconds' lines: for minutes at a time the median
// pair took 33 µs instead of 22 µs. Interleaved runs of identical code
// read 22 100 to 36 800 pairs/s with the journal and 43 900 to 46 900
// without. The probes in probes.go time both journal disciplines and
// check recovery from the log, ungated.
type tcpWorkload struct {
	p      params
	srv    *pbsd.Server
	ln     *pbsd.Listener
	client *pbsd.Client
	jobs   []tcpJob
	// queued is what the daemon's queue must hold, oldest first: the
	// last tcpDepth submissions.
	queued []tcpJob

	cyclesPerOp  float64
	scannedPerOp float64
}

func newTCPWorkload(p params) *tcpWorkload { return &tcpWorkload{p: p} }

func (w *tcpWorkload) setup() error {
	var err error
	if w.srv, err = pbsd.New(pbsd.Config{Nodes: gridNodes}); err != nil {
		return err
	}
	w.queued = genTCPJobs(w.p.seed^seedStride, tcpDepth)
	for _, j := range w.queued {
		if _, err := w.srv.Submit(j.name, j.nodes, j.wall); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if w.ln, err = pbsd.Serve(w.srv, "127.0.0.1:0"); err != nil {
		return err
	}
	if w.client, err = pbsd.Dial(w.ln.Addr()); err != nil {
		return err
	}
	w.jobs = genTCPJobs(w.p.seed, w.p.units(tcpPairs))
	warm := genTCPJobs(w.p.seed+seedStride, tcpWarm)
	if rr := w.pairs(warm, nil); rr.failed > 0 {
		return fmt.Errorf("%d of %d warm-up pairs failed", rr.failed, rr.attempted)
	}
	return nil
}

// pairs runs one submit → stat → delete-head pair per job from one
// closed-loop caller. The stat is the lock-free read a monitoring client
// issues beside the writes.
func (w *tcpWorkload) pairs(jobs []tcpJob, tr *tracer) runResult {
	rr := closedLoop(len(jobs), 1, 4, tr, func(_, i int, tr *tracer) bool {
		cl, j := w.client, &jobs[i]
		root := tr.begin("caller.pair", -1, i)
		defer tr.end(root)
		id := tr.begin("pbsd.Client.Submit", root, i)
		_, err := cl.Submit(j.name, j.nodes, j.wall)
		tr.end(id)
		if err != nil {
			return false
		}
		id = tr.begin("pbsd.Client.Stat", root, i)
		queued, _, _, err := cl.Stat()
		tr.end(id)
		if err != nil || queued < tcpDepth {
			return false
		}
		id = tr.begin("pbsd.Client.DeleteHead", root, i)
		_, err = cl.DeleteHead()
		tr.end(id)
		return err == nil
	})
	// Every pair queued its job at the tail and deleted the oldest.
	w.queued = append(w.queued, jobs...)[len(jobs):]
	return rr
}

func (w *tcpWorkload) run(tr *tracer) (runResult, error) {
	cycles0, scanned0 := w.srv.Counters()
	rr := w.pairs(w.jobs, tr)
	cycles, scanned := w.srv.Counters()
	w.cyclesPerOp = float64(cycles-cycles0) / float64(rr.attempted)
	w.scannedPerOp = float64(scanned-scanned0) / float64(rr.attempted)
	return rr, nil
}

// verify checks that the daemon ends with exactly the last tcpDepth
// submissions queued, oldest first: no pair lost, duplicated or
// reordered a job.
func (w *tcpWorkload) verify() []string {
	if queued, running, _ := w.srv.Stat(); queued != tcpDepth || running != 0 {
		return []string{fmt.Sprintf("daemon ends with %d queued and %d running jobs, want %d and 0", queued, running, tcpDepth)}
	}
	same := slices.EqualFunc(w.srv.Pending(), w.queued, func(got pbsd.Job, want tcpJob) bool {
		return got.Name == want.name && got.Nodes == want.nodes && got.Walltime == want.wall
	})
	if !same {
		return []string{fmt.Sprintf("daemon's queue is not the last %d submissions in their order", tcpDepth)}
	}
	return nil
}

func (w *tcpWorkload) counts() map[string]int64 { return nil }

func (w *tcpWorkload) layers(*tracer) map[string]float64 {
	return map[string]float64{
		"pbsd.cycles_per_op":  w.cyclesPerOp,
		"pbsd.scanned_per_op": w.scannedPerOp,
	}
}

// stop closes the connection, the listener and the daemon.
func (w *tcpWorkload) stop() {
	if w.client != nil {
		w.client.Close()
		w.client = nil
	}
	if w.ln != nil {
		w.ln.Close()
		w.ln = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *tcpWorkload) teardown() {
	w.stop()
	w.jobs, w.queued = nil, nil
}
