// Pool is the bounded worker pool behind runMatrix: one set of worker
// goroutines executes every (variant, replication) task of a matrix,
// so a matrix runs at most Options.Workers simulations at once.

package experiment

import (
	"runtime"
	"sync"
)

// Pool runs submitted tasks on a fixed set of worker goroutines.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	workers int
}

// NewPool starts a pool with the given number of workers (< 1 means
// GOMAXPROCS). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Buffered to workers so producers do not serialize on per-task
	// handoff with an idle worker.
	p := &Pool{tasks: make(chan func(), workers), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// Do submits one task, blocking while all workers are busy and the
// buffer is full. Must not be called after Close, nor from within a
// task (a full buffer would deadlock the worker against itself).
func (p *Pool) Do(f func()) { p.tasks <- f }

// Close stops accepting tasks and waits for the workers to drain.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}
