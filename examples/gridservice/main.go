// Gridservice: the Section 4 stack, live. It starts the real batch
// scheduler daemon (pbsd), layers the SOAP-style middleware service on
// top, submits and cancels jobs through the full path
// (client -> HTTP/XML -> service -> scheduler), and then measures the
// throughput of each layer to reproduce the paper's bottleneck
// analysis: how many redundant requests per job can the system absorb?
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"redreq/internal/loadgen"
	"redreq/internal/middleware"
	"redreq/internal/pbsd"
)

func main() {
	// 1. The batch scheduler daemon: a 16-node cluster, like the
	// paper's testbed.
	backend, err := pbsd.New(pbsd.Config{Nodes: 16, Execute: true})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()

	// 2. The middleware service in full GRAM-like mode (durable
	// per-transaction state + message-level security).
	stateDir, err := os.MkdirTemp("", "gridservice")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	svc, err := middleware.NewService(middleware.ServiceConfig{
		Durable:  true,
		Security: true,
		StateDir: stateDir,
		Backend:  backend,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	ep, err := middleware.Start(svc, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	fmt.Printf("middleware endpoint up at %s\n", ep.URL)

	// 3. Drive the full path: submit a few jobs, cancel one.
	client := middleware.NewClient(ep.URL, "demo-user")
	var ids []int64
	for i := 0; i < 3; i++ {
		id, err := client.Submit(fmt.Sprintf("job-%d", i), 4, 200*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		fmt.Printf("submitted job %d (4 nodes)\n", id)
	}
	// The first two jobs fill 8 of 16 nodes and run; cancel a queued
	// duplicate the way a redundant-request user would.
	extra, err := client.Submit("redundant-copy", 16, time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Cancel(extra); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted and canceled redundant copy %d\n", extra)
	q, r, free, err := client.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon state: %d queued, %d running, %d free nodes\n", q, r, free)
	_ = ids

	// 4. The Section 4 bottleneck analysis at small scale: two
	// closed-loop callers read each layer's ceiling, the paper's Figure
	// 5 method. The scheduler is measured alone, over its TCP protocol,
	// in the paper-faithful full-scan mode at a 2000-deep queue.
	fmt.Println("\nthroughput of each layer (0.5 s windows):")
	const callers, window = 2, 500 * time.Millisecond
	ctx := context.Background()
	churn, err := pbsd.NewChurn(pbsd.Config{Nodes: 16, FullScanCycle: true}, 2000, callers)
	if err != nil {
		log.Fatal(err)
	}
	defer churn.Close()
	sched, err := loadgen.Ceiling(ctx, callers, window, churn.Pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  batch scheduler (2000-deep queue): %8.1f submit+cancel pairs/s\n", sched.Goodput)
	// Monopolize the pool (as the paper's long job does) so the
	// measurement's submissions queue instead of starting.
	if _, err := client.Submit("blocker", 16, time.Hour); err != nil {
		log.Fatal(err)
	}
	gram, err := loadgen.Ceiling(ctx, callers, window, client.Pair)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  full middleware path:              %8.1f submit+cancel pairs/s\n", gram.Goodput)
	iat := 5.01
	fmt.Printf("\nwith one job arriving every %.2f s (the peak-hour rate):\n", iat)
	fmt.Printf("  the scheduler alone tolerates r < %d redundant requests per job\n",
		pbsd.LoadBound(sched.Goodput, iat))
	fmt.Printf("  the middleware limits it to  r < %d  — the middleware is the bottleneck,\n",
		pbsd.LoadBound(gram.Goodput, iat))
	fmt.Println("  the paper's Section 4 conclusion.")
}
