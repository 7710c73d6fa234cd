// Spec for the Section 4 system-load analysis: measure the real
// batch scheduler daemon and the real middleware stack, then derive
// the paper's bounds on tolerable request redundancy.

package experiment

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"redreq/internal/loadgen"
	"redreq/internal/middleware"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
	"redreq/internal/report"
)

const (
	// section4IAT is the mean job interarrival time for the r bounds
	// (the paper's peak-hour 5.01 s).
	section4IAT = 5.01
	// boundQueueSize is the queue depth at which the Section 4.1 bound
	// is evaluated (the paper's 10,000); a sweep without it uses its
	// last point.
	boundQueueSize = 10000
)

// section4Options configures the load measurements.
type section4Options struct {
	// QueueSizes are the Figure 5 x-positions (default
	// pbsd.DefaultQueueSizes; `redsim -sweep` overrides them).
	QueueSizes []int
	// Clients is the number of concurrent saturating clients.
	Clients int
	// Window is the measurement window per point.
	Window time.Duration
	// Trace, when non-nil, collects the daemon's and the middleware's
	// wall-clock latency histograms and error counters across every
	// measurement.
	Trace *obs.Trace
}

// section4Result aggregates the Section 4 measurements.
type section4Result struct {
	// Scheduler is the Figure 5 sweep.
	Scheduler []schedulerPoint
	// SchedulerBound is r < iat * pair-rate at boundQueueSize.
	SchedulerBound int
	// MarshalPerSec is the [20]-style round-trip rate for the
	// 30,000-record payload.
	MarshalPerSec float64
	// Middleware holds submit+cancel pairs/s per fidelity mode, in
	// middlewareLabels order: in-memory, durable, and full GRAM-like
	// (durable + security).
	Middleware []float64
	// MiddlewareBound is the bound implied by the slowest middleware
	// mode.
	MiddlewareBound int
	// Bottleneck names the slower layer ("scheduler" or
	// "middleware"), the paper's Section 4 conclusion.
	Bottleneck string
}

// schedulerPoint is one Figure 5 reading: sustained submit+cancel
// pairs/s ("submissions/cancellations per second", the paper's y-axis)
// at a preloaded queue depth, and the pending jobs each scheduling
// cycle examined on average — the cost driver, which the full scan
// pins at the queue depth (between d and d + Clients, the jobs the
// callers have submitted but not yet deleted).
type schedulerPoint struct {
	QueueSize int
	PairRate  float64
	AvgScan   float64
}

// section4 runs the full system-load analysis. It is wall-clock
// bounded by roughly (len(QueueSizes)+3) * Window plus queue preload
// time.
func section4(opts section4Options) (*section4Result, error) {
	if opts.Clients < 1 {
		opts.Clients = 2
	}
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if len(opts.QueueSizes) == 0 {
		opts.QueueSizes = pbsd.DefaultQueueSizes
	}

	out := &section4Result{}

	// (1) Figure 5: scheduler throughput vs queue size, over the TCP
	// protocol in the paper-faithful full-scan mode.
	for _, q := range opts.QueueSizes {
		p, err := measureScheduler(opts, q)
		if err != nil {
			return nil, err
		}
		out.Scheduler = append(out.Scheduler, p)
	}
	at := out.Scheduler[len(out.Scheduler)-1]
	for _, p := range out.Scheduler {
		if p.QueueSize == boundQueueSize {
			at = p
		}
	}
	out.SchedulerBound = pbsd.LoadBound(at.PairRate, section4IAT)

	// (2) Raw marshalling (the gSOAP measurement of [20]).
	payload := middleware.NewTripleArray(30000)
	marshal, err := loadgen.Ceiling(context.Background(), 1, opts.Window, func(context.Context) error {
		_, err := middleware.RoundTripTriples(payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.MarshalPerSec = marshal.Goodput

	// (3) Middleware transaction rates in each fidelity mode.
	modes := []struct{ durable, security bool }{
		{false, false}, {true, false}, {true, true},
	}
	for _, m := range modes {
		rate, err := measureMiddleware(opts, m.durable, m.security)
		if err != nil {
			return nil, err
		}
		out.Middleware = append(out.Middleware, rate)
	}
	slowest := out.Middleware[len(out.Middleware)-1]
	out.MiddlewareBound = pbsd.LoadBound(slowest, section4IAT)
	if out.MiddlewareBound < out.SchedulerBound {
		out.Bottleneck = "middleware"
	} else {
		out.Bottleneck = "scheduler"
	}
	return out, nil
}

// measureScheduler reads the daemon's ceiling at one queue depth.
func measureScheduler(opts section4Options, queueSize int) (schedulerPoint, error) {
	ch, err := pbsd.NewChurn(pbsd.Config{Nodes: 16, FullScanCycle: true, Trace: opts.Trace}, queueSize, opts.Clients)
	if err != nil {
		return schedulerPoint{}, err
	}
	defer ch.Close()
	res, err := loadgen.Ceiling(context.Background(), opts.Clients, opts.Window, ch.Pair)
	return schedulerPoint{queueSize, res.Goodput, ch.AvgScan()}, err
}

// measureMiddleware reads the ceiling of a fresh middleware stack in
// one fidelity mode.
func measureMiddleware(opts section4Options, durable, security bool) (float64, error) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16, Trace: opts.Trace})
	if err != nil {
		return 0, err
	}
	defer backend.Close()
	stateDir := ""
	if durable {
		if stateDir, err = os.MkdirTemp("", "section4-state"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(stateDir)
	}
	svc, err := middleware.NewService(middleware.ServiceConfig{
		Durable:  durable,
		Security: security,
		StateDir: stateDir,
		Backend:  backend,
		Trace:    opts.Trace,
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	ep, err := middleware.Start(svc, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ep.Close()
	// One client shared by every caller, a warm connection each, so the
	// window sees the endpoint's cost rather than connection setup.
	ctx := context.Background()
	cl := middleware.NewClient(ep.URL, "section4")
	if err := cl.Warm(ctx, opts.Clients); err != nil {
		return 0, err
	}
	// Monopolize the pool so saturation submissions stay cancelable,
	// as the paper's long blocker job does.
	if _, err := cl.Submit("blocker", 16, 24*time.Hour); err != nil {
		return 0, err
	}
	res, err := loadgen.Ceiling(ctx, opts.Clients, opts.Window, cl.Pair)
	return res.Goodput, err
}

// tables renders the result as the Figure 5 sweep and the Section 4
// bounds.
func (r *section4Result) tables() []*report.Table {
	sweep := report.NewTable("Figure 5: scheduler throughput vs queue size",
		"queue size", "pairs/s", "scans/cycle")
	for _, p := range r.Scheduler {
		sweep.AddRow(p.QueueSize, report.F(p.PairRate, 1), report.F(p.AvgScan, 1))
	}
	bounds := report.NewTable("Section 4 bounds on tolerable redundancy", "metric", "value")
	bounds.AddRow("scheduler bound (r <)", r.SchedulerBound)
	bounds.AddRow("raw marshalling (round-trips/s, 30k records)", report.F(r.MarshalPerSec, 1))
	for i, rate := range r.Middleware {
		bounds.AddRow("middleware pairs/s, "+middlewareLabels[i], report.F(rate, 1))
	}
	bounds.AddRow("middleware bound (r <)", r.MiddlewareBound)
	bounds.AddRow("bottleneck", r.Bottleneck)
	return []*report.Table{sweep, bounds}
}

// queueDepths converts sweep positions into Figure 5 queue depths,
// rejecting any position that is not a whole, non-negative depth.
func queueDepths(sweep []float64) ([]int, error) {
	out := make([]int, len(sweep))
	for i, v := range sweep {
		if v < 0 || math.IsInf(v, 0) || v != math.Trunc(v) {
			return nil, fmt.Errorf("experiment: sec4 sweep position %g is not a queue depth (want a non-negative integer)", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// middlewareLabels name the fidelity modes section4 measures, in
// measurement order.
var middlewareLabels = []string{"in-memory", "durable", "durable+security"}

var sec4Spec = &Spec{
	Name:   "sec4",
	Title:  "Section 4: system load (real scheduler + middleware)",
	Desc:   "wall-clock daemon/middleware rates and redundancy bounds (nondeterministic)",
	Params: "queue sizes=0..20000 (Sweep overrides), clients=4, window=2s per point",
	Tables: func(opts Options) ([]*report.Table, error) {
		sizes, err := queueDepths(opts.Sweep)
		if err != nil {
			return nil, err
		}
		r, err := section4(section4Options{
			QueueSizes: sizes,
			Clients:    4,
			Window:     2 * time.Second,
			Trace:      opts.Trace,
		})
		if err != nil {
			return nil, err
		}
		return r.tables(), nil
	},
}
