package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"redreq/internal/middleware"
	"redreq/internal/pbsd"
	"redreq/internal/rng"
)

const (
	// gridCopies is r: how many redundant copies one logical request
	// submits and then cancels.
	gridCopies = 4
	// gridCallers is how many closed-loop callers, each on a connection
	// of its own, send requests. Two keep the one P busy: while one
	// waits for its reply the other's request is being served, so the
	// thread never sleeps (one caller spread ops_per_s by 4.7% between
	// identical runs, two by 0.8%).
	gridCallers = 2
	// gridRequests is the pinned number of timed logical requests and
	// gridWarm the untimed ones that end setup (enough that the RSA key
	// generation's 30-800 ms lottery is a small part of setup_s).
	gridRequests = 6000
	gridWarm     = 600
	gridNodes    = 16
)

// gridStack is the served stack in its fast profile: incremental pbsd
// behind the XML/HTTP service with message security, on loopback, and
// one pooled, warmed client.
//
// Durable service state and the pbsd journal are off. Both fsync, the
// benchmark may only write inside its checkout, and on the checkout's
// block device identical code swung 191-302 requests/s; the probes in
// probes.go time both disciplines, ungated.
type gridStack struct {
	backend *pbsd.Server
	svc     *middleware.Service
	ep      *middleware.Endpoint
	client  *middleware.Client
	// newService is how long NewService took (RSA key generation).
	newService time.Duration
}

func startGridStack(security bool, sender string) (*gridStack, error) {
	s := &gridStack{}
	var err error
	if s.backend, err = pbsd.New(pbsd.Config{Nodes: gridNodes}); err != nil {
		return nil, err
	}
	t0 := time.Now()
	s.svc, err = middleware.NewService(middleware.ServiceConfig{Security: security, Backend: s.backend})
	s.newService = time.Since(t0)
	if err != nil {
		s.close()
		return nil, err
	}
	if s.ep, err = middleware.Start(s.svc, "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	s.client = middleware.NewClientOptions(s.ep.URL, sender, middleware.ClientOptions{PoolSize: gridCallers})
	if err := s.client.Warm(context.Background(), gridCallers); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *gridStack) close() {
	if s.ep != nil {
		s.ep.Close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.backend != nil {
		s.backend.Close()
	}
}

// gridRequest is one logical r-way request's generated input.
type gridRequest [gridCopies]middleware.BatchJob

// genGridRequests derives n requests from the seed. Nothing executes on
// the backend (pbsd.Config.Execute is off), so any size that fits the
// node pool queues and every cancel finds its job pending.
func genGridRequests(seed uint64, n int) []gridRequest {
	src := rng.New(seed)
	reqs := make([]gridRequest, n)
	for i := range reqs {
		nodes := 1 + src.IntN(gridNodes)
		wall := time.Duration(60+src.IntN(7200)) * time.Second
		name := fmt.Sprintf("job-%08x", src.IntN(1<<31))
		for c := range reqs[i] {
			reqs[i][c] = middleware.BatchJob{Name: name, Nodes: nodes, Walltime: wall}
		}
	}
	return reqs
}

// doGridRequest performs one logical request: submit r copies in one
// envelope, hold the acks, cancel all r in a second envelope. It
// reports whether every entry of both replies was OK.
func doGridRequest(c *middleware.Client, req *gridRequest, tr *tracer, op int) bool {
	root := tr.begin("caller.request", -1, op)
	defer tr.end(root)
	id := tr.begin("middleware.SubmitBatch", root, op)
	subs, err := c.SubmitBatch(req[:])
	tr.end(id)
	if err != nil {
		return false
	}
	ok := true
	ids := make([]int64, 0, gridCopies)
	for _, s := range subs {
		if s.Err() != nil {
			ok = false
			continue
		}
		ids = append(ids, s.JobID)
	}
	id = tr.begin("middleware.CancelBatch", root, op)
	cans, err := c.CancelBatch(ids)
	tr.end(id)
	if err != nil {
		return false
	}
	for _, s := range cans {
		if s.Err() != nil {
			ok = false
		}
	}
	return ok
}

// loopChunks is how many chunks a closed loop is metered in.
const loopChunks = 20

// closedLoop runs do(caller, i) for i in [0, n) from that many callers,
// each sending its next operation only after the previous one answered: the
// caller is a metascheduler that must hold the submit acks before it
// can cancel. The callers meet at a barrier between chunks. spansPerOp
// sizes the callers' span buffers.
func closedLoop(n, callers, spansPerOp int, tr *tracer, do func(caller, i int, tr *tracer) bool) runResult {
	rr := runResult{latMS: make([]float64, n)}
	forks := make([]*tracer, callers)
	for c := range forks {
		forks[c] = tr.fork((n/callers + 1) * spansPerOp)
	}
	// inChunks' error is the callback's, which returns none.
	_ = rr.inChunks(n, (n+loopChunks-1)/loopChunks, func(lo, hi int) (attempted, failed int, err error) {
		fails := make([]int, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := lo + c; i < hi; i += callers {
					t0 := time.Now()
					if !do(c, i, forks[c]) {
						fails[c]++
					}
					rr.latMS[i] = float64(time.Since(t0)) / 1e6
				}
			}(c)
		}
		wg.Wait()
		for _, f := range fails {
			failed += f
		}
		return hi - lo, failed, nil
	})
	tr.merge(forks...)
	return rr
}

type gridWorkload struct {
	p     params
	stack *gridStack
	reqs  []gridRequest
	// tx0 is the service's transaction count when the last timed
	// section began; done is how many requests that section sent.
	tx0  int64
	done int
}

func newGridWorkload(p params) *gridWorkload { return &gridWorkload{p: p} }

func (w *gridWorkload) setup() error {
	var err error
	if w.stack, err = startGridStack(true, "bench"); err != nil {
		return err
	}
	w.reqs = genGridRequests(w.p.seed, w.p.units(gridRequests))
	warm := genGridRequests(w.p.seed^seedStride, gridWarm)
	rr := closedLoop(len(warm), gridCallers, 0, nil, func(_, i int, tr *tracer) bool {
		return doGridRequest(w.stack.client, &warm[i], tr, i)
	})
	if rr.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed", rr.failed, rr.attempted)
	}
	return nil
}

func (w *gridWorkload) run(tr *tracer) (runResult, error) {
	w.tx0 = w.stack.svc.Transactions()
	rr := closedLoop(len(w.reqs), gridCallers, 3, tr, func(_, i int, tr *tracer) bool {
		return doGridRequest(w.stack.client, &w.reqs[i], tr, i)
	})
	w.done = rr.attempted
	return rr, nil
}

func (w *gridWorkload) verify() []string {
	var bad []string
	perOp := w.p.pins["middleware.transactions_per_op"]
	if got, want := w.stack.svc.Transactions()-w.tx0, perOp*int64(w.done); got != want {
		bad = append(bad, fmt.Sprintf("service counted %d transactions for %d requests, want %d", got, w.done, want))
	}
	if queued, running, _ := w.stack.backend.Stat(); queued != 0 || running != 0 {
		bad = append(bad, fmt.Sprintf("backend holds %d queued and %d running jobs after every copy was canceled", queued, running))
	}
	return bad
}

func (w *gridWorkload) counts() map[string]int64 { return nil }

func (w *gridWorkload) layers(tr *tracer) map[string]float64 {
	return map[string]float64{
		"middleware.submit_batch_ms":     median(tr.durationsMS("middleware.SubmitBatch")),
		"middleware.cancel_batch_ms":     median(tr.durationsMS("middleware.CancelBatch")),
		"middleware.transactions_per_op": float64(w.stack.svc.Transactions()-w.tx0) / float64(w.done),
	}
}

func (w *gridWorkload) teardown() {
	if w.stack != nil {
		w.stack.close()
		w.stack = nil
	}
	w.reqs = nil
}
