// Figure 5 support: the daemon set up as the paper measured it and the
// unit of work of that measurement. The load itself — how many callers,
// for how long, on what schedule — is internal/loadgen's.

package pbsd

import (
	"context"
	"fmt"
	"time"
)

// Churn is a daemon in the paper's Figure 5 configuration: nothing
// executes (the paper's blocker job monopolizes the pool), a fixed
// number of one-node jobs are pending, and every caller runs Pair —
// submit a job, delete the job at the head — so the queue stays pinned
// at its preloaded depth while every operation pays a scheduling cycle.
type Churn struct {
	// Server is the daemon under test.
	Server *Server

	ln    *Listener
	conns chan *Client

	cycles0, scanned0 uint64
}

// NewChurn builds a daemon from cfg (Execute is forced off), preloads
// queueSize pending jobs and serves it on a loopback port with conns
// (at least one) protocol connections dialed up front: a Client is
// sequential-use, so that is the number of Pairs that can be on the
// wire at once.
func NewChurn(cfg Config, queueSize, conns int) (*Churn, error) {
	if conns < 1 {
		return nil, fmt.Errorf("pbsd: churn needs at least one connection, got %d", conns)
	}
	cfg.Execute = false
	// Preload in incremental mode, where a submission that cannot start
	// costs O(1): full-scan preloading is O(queueSize²) setup that the
	// measurement never sees. The mode is restored before the daemon
	// is served.
	full := cfg.FullScanCycle
	cfg.FullScanCycle = false
	srv, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c := &Churn{Server: srv}
	for i := 0; i < queueSize; i++ {
		if _, err := srv.Submit(fmt.Sprintf("preload-%d", i), 1, time.Hour); err != nil {
			c.Close()
			return nil, err
		}
	}
	srv.cfg.FullScanCycle = full
	c.cycles0, c.scanned0 = srv.Counters()
	if c.ln, err = Serve(srv, "127.0.0.1:0"); err != nil {
		c.Close()
		return nil, err
	}
	c.conns = make(chan *Client, conns)
	for i := 0; i < conns; i++ {
		cl, err := Dial(c.ln.Addr())
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns <- cl
	}
	return c, nil
}

// Pair performs one submit + delete-head pair, the maximum-churn unit
// of work, over a pooled protocol connection (waiting for a free one,
// or for ctx).
func (c *Churn) Pair(ctx context.Context) error {
	select {
	case cl := <-c.conns:
		err := ctx.Err()
		if err == nil {
			err = pair(cl)
		}
		c.conns <- cl
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func pair(cl *Client) error {
	if _, err := cl.Submit("churn", 1, time.Hour); err != nil {
		return err
	}
	_, err := cl.DeleteHead()
	return err
}

// AvgScan is the mean number of pending jobs examined per scheduling
// cycle since the preload finished — Figure 5's cost driver, ≈ the
// queue depth in full-scan mode.
func (c *Churn) AvgScan() float64 {
	cycles, scanned := c.Server.Counters()
	if cycles == c.cycles0 {
		return 0
	}
	return float64(scanned-c.scanned0) / float64(cycles-c.cycles0)
}

// Close hangs up the pooled connections and stops the listener and the
// daemon. Call it only once no Pair is in flight.
func (c *Churn) Close() {
	if c.conns != nil {
		close(c.conns)
		for cl := range c.conns {
			cl.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
	c.Server.Close()
}

// DefaultQueueSizes are the Figure 5 x-positions (the paper sweeps 0
// to 20,000 pending requests).
var DefaultQueueSizes = []int{0, 1000, 2500, 5000, 10000, 15000, 20000}

// LoadBound derives the Section 4.1 conclusion from a measured pair
// rate: the number of redundant requests per job the scheduler can
// absorb at the given mean job interarrival time (r/iat <= rate, so
// r <= rate * iat; the paper computes r < 30 from 6 pairs/s at a
// 10,000-deep queue and iat = 5 s).
func LoadBound(pairRate, iat float64) int {
	if pairRate <= 0 || iat <= 0 {
		return 0
	}
	return int(pairRate * iat)
}
