// Spec for the overload study: drive the real stack — middleware
// service over the pbsd daemon, reached through a fault-injecting
// proxy — with the open-loop generator at a swept offered rate ×
// redundancy factor r, then walk the stack through a blackhole chaos
// window with a breaker-armed client. This is the paper's Section 4
// argument measured end to end: r multiplies the offered rate, so
// goodput holds until rate*r crosses the stack's capacity and then
// collapses into shed (BUSY/LATE) and deadline losses, while the
// admission control and circuit breaker keep the collapse graceful.
//
// The sweep runs on two stack variants. "legacy" is the
// paper-faithful configuration: full-queue scheduling cycles, one
// journal write per event (fsynced every 256 lines, so an acknowledged
// operation may not be durable yet), clients capped at net/http's classic
// two idle connections per host, and one round trip per redundant
// copy. "fast" is the optimized path: incremental cycles, a
// group-committed journal, a pooled pre-warmed client, and the r-way
// fan-out batched into single SubmitBatch/CancelBatch envelopes. The
// gap between their measured capacities is the gap between their
// tolerable redundancy bounds r < iat*capacity.
//
// Like sec4, this is a wall-clock measurement: results vary run to run
// and the spec is excluded from the deterministic results snapshot.

package experiment

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"redreq/internal/fault"
	"redreq/internal/loadgen"
	"redreq/internal/middleware"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
	"redreq/internal/report"
)

// overloadTuning holds the wall-clock knobs; a package variable so the
// quick test can shrink the windows without threading new Options
// fields through the registry.
var overloadTuning = struct {
	Window      time.Duration // measurement window per sweep point
	ChaosWindow time.Duration // window per chaos phase
	Deadline    time.Duration // per-request deadline
	IAT         float64       // mean interarrival time for the bound
}{
	Window:      400 * time.Millisecond,
	ChaosWindow: 300 * time.Millisecond,
	Deadline:    500 * time.Millisecond,
	IAT:         5.01,
}

// overloadRedundancies are the r values swept at each offered rate.
var overloadRedundancies = []int{1, 2, 4}

var overloadSpec = &Spec{
	Name:          "overload",
	Title:         "Overload: open-loop rate × redundancy through the real stack",
	Desc:          "wall-clock goodput vs offered rate × r through the fault proxy, legacy vs fast stack, plus a breaker chaos window (nondeterministic)",
	Params:        "rates=30,120 (override with -sweep), r=1,2,4, stacks=legacy,fast (override with -stack), window=400ms per point",
	PositiveSweep: true,
	Tables:        overloadTables,
}

// overloadStackList resolves the -stack selection into the fast-mode
// values to sweep, legacy first so the table reads baseline-then-fix.
func overloadStackList(sel string) ([]bool, error) {
	switch sel {
	case "":
		return []bool{false, true}, nil
	case "legacy":
		return []bool{false}, nil
	case "fast":
		return []bool{true}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown stack %q (legacy|fast)", sel)
	}
}

func stackName(fast bool) string {
	if fast {
		return "fast"
	}
	return "legacy"
}

func overloadTables(opts Options) ([]*report.Table, error) {
	rates := sweepOr(opts, []float64{30, 120})
	stacks, err := overloadStackList(opts.Stack)
	if err != nil {
		return nil, err
	}

	// (1) The sweep: rate × r on each stack variant, every logical
	// request a full submit+cancel pair per copy, so a point that
	// sustains goodput g at redundancy r pushed g*r pairs/s through the
	// stack. The best such product per variant is its demonstrated
	// capacity.
	sweep := report.NewTable("open-loop goodput vs offered rate × redundancy (submit+cancel pairs)",
		"stack", "rate", "r", "offered/s", "goodput/s", "p95 s", "loss %", "errors")
	maxPairs := make(map[string]float64, len(stacks))
	for _, fast := range stacks {
		name := stackName(fast)
		stack, err := newOverloadStack(opts.Trace, fast)
		if err != nil {
			return nil, err
		}
		for _, rate := range rates {
			for _, r := range overloadRedundancies {
				res, err := stack.point(rate, r)
				if err != nil {
					stack.Close()
					return nil, err
				}
				if pairs := res.Goodput * float64(r); pairs > maxPairs[name] {
					maxPairs[name] = pairs
				}
				sweep.AddRow(name, report.F(rate, 0), r,
					report.F(res.OfferedRate, 1), report.F(res.Goodput, 1),
					report.F(res.P95, 3), report.F(100*res.ErrorRate(), 1),
					res.ErrorSummary())
			}
		}
		// The overload points left the daemon's queue full of jobs whose
		// cancel never landed, which would keep the admission control
		// shedding into the next variant's measurements; close the stack
		// between variants.
		stack.Close()
	}

	// (2) Chaos window: healthy -> blackhole -> recovered, with a
	// breaker-armed client on a fresh stack (the fast variant when
	// selected — breaker behavior is stack-independent). During the
	// blackhole every attempt burns its timeout until the breaker opens
	// and the rest fail fast; after the window the cooldown probe
	// closes it again.
	stack, err := newOverloadStack(opts.Trace, stacks[len(stacks)-1])
	if err != nil {
		return nil, err
	}
	defer stack.Close()
	tr := obs.New()
	chaosClient := middleware.ClientOptions{
		Timeout: 100 * time.Millisecond,
		Breaker: middleware.BreakerOptions{Threshold: 3, Cooldown: 100 * time.Millisecond},
		// Fresh connection per attempt so the proxy's per-connection
		// verdict governs every exchange.
		Transport: &http.Transport{DisableKeepAlives: true},
		Trace:     tr,
	}
	chaos := report.NewTable("chaos window: breaker behavior across a blackhole (rate 40, r=1)",
		"phase", "offered/s", "goodput/s", "loss %", "errors", "breaker after", "opens", "rejected", "closes")
	phases := []struct {
		name  string
		black bool
	}{
		{"healthy", false},
		{"blackhole", true},
		{"recovered", false},
	}
	cl := middleware.NewClientOptions(stack.url, "overload-chaos", chaosClient)
	prev := tr.Snapshot()
	for _, ph := range phases {
		stack.blackhole.Store(ph.black)
		res, err := stack.runPoint(cl, 40, 1, overloadTuning.ChaosWindow, false)
		if err != nil {
			return nil, err
		}
		snap := tr.Snapshot()
		chaos.AddRow(ph.name,
			report.F(res.OfferedRate, 1), report.F(res.Goodput, 1),
			report.F(100*res.ErrorRate(), 1), res.ErrorSummary(), cl.BreakerState(),
			snap.Counter("gram.breaker.open")-prev.Counter("gram.breaker.open"),
			snap.Counter("gram.breaker.rejected")-prev.Counter("gram.breaker.rejected"),
			snap.Counter("gram.breaker.close")-prev.Counter("gram.breaker.close"))
		prev = snap
	}
	opts.Trace.Merge(tr)

	// (3) The measured bounds next to the paper's numbers, one pair of
	// rows per stack variant.
	bounds := report.NewTable("measured redundancy bound vs the paper's", "metric", "value")
	for _, fast := range stacks {
		name := stackName(fast)
		mp := maxPairs[name]
		bounds.AddRow(fmt.Sprintf("measured %s-stack capacity (pairs/s, best goodput×r point)", name),
			report.F(mp, 1))
		bounds.AddRow(fmt.Sprintf("measured %s-stack bound r < iat*capacity (iat=%.2fs)", name, overloadTuning.IAT),
			pbsd.LoadBound(mp, overloadTuning.IAT))
	}
	bounds.AddRow("paper: GT4 WS-GRAM bound", "r < 3")
	bounds.AddRow("paper: scheduler bound (10k-deep queue)", "r < 30")
	return []*report.Table{sweep, chaos, bounds}, nil
}

// overloadStack is the real stack under test: pbsd with admission
// control and a write-ahead journal, the middleware service in its
// full GRAM-like mode (durable per-transaction state plus message
// security — the paper's GT4 configuration, and the mode slow enough
// that the sweep actually crosses the capacity knee), and a fault
// proxy in front whose blackhole flag the chaos phases flip. The fast
// flag selects the optimized configuration at every layer; see the
// package comment.
type overloadStack struct {
	fast       bool
	backend    *pbsd.Server
	svc        *middleware.Service
	ep         *middleware.Endpoint
	proxy      *fault.Proxy
	blackhole  atomic.Bool
	url        string
	stateDir   string
	journalDir string
	client     *middleware.Client // shared pooled client (fast mode)
	trace      *obs.Trace
	merge      *obs.Trace // opts.Trace, merged on Close
}

func newOverloadStack(merge *obs.Trace, fast bool) (*overloadStack, error) {
	s := &overloadStack{fast: fast, trace: obs.New(), merge: merge}
	var err error
	s.journalDir, err = os.MkdirTemp("", "overload-journal")
	if err != nil {
		return nil, err
	}
	s.backend, err = pbsd.New(pbsd.Config{
		Nodes:         16,
		MaxQueue:      512,
		AdmitBudget:   250 * time.Millisecond,
		JournalDir:    s.journalDir,
		FullScanCycle: !fast,
		GroupCommit:   fast,
		Trace:         s.trace,
	})
	if err != nil {
		os.RemoveAll(s.journalDir)
		return nil, err
	}
	s.stateDir, err = os.MkdirTemp("", "overload-state")
	if err != nil {
		s.backend.Close()
		os.RemoveAll(s.journalDir)
		return nil, err
	}
	s.svc, err = middleware.NewService(middleware.ServiceConfig{
		Durable:  true,
		Security: true,
		StateDir: s.stateDir,
		Backend:  s.backend,
		Trace:    s.trace,
	})
	if err != nil {
		s.cleanup()
		return nil, err
	}
	s.ep, err = middleware.Start(s.svc, "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		s.cleanup()
		return nil, err
	}
	s.proxy = &fault.Proxy{
		Backend: s.ep.URL[len("http://"):],
		Decide: func(int) fault.Verdict {
			if s.blackhole.Load() {
				return fault.Blackhole
			}
			return fault.Forward
		},
	}
	addr, err := s.proxy.Start()
	if err != nil {
		s.ep.Close()
		s.svc.Close()
		s.cleanup()
		return nil, err
	}
	s.url = "http://" + addr
	if fast {
		// One pooled client shared across every sweep point, pre-warmed
		// so the first burst does not pay a handshake storm.
		s.client = middleware.NewClientOptions(s.url, "overload-fast", middleware.ClientOptions{
			Timeout:  overloadTuning.Deadline,
			PoolSize: 128,
		})
		if err := s.client.Warm(context.Background(), 16); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *overloadStack) cleanup() {
	os.RemoveAll(s.stateDir)
	s.backend.Close()
	os.RemoveAll(s.journalDir)
}

func (s *overloadStack) Close() {
	s.proxy.Close()
	s.ep.Close()
	s.svc.Close()
	s.cleanup()
	s.merge.Merge(s.trace)
}

// point runs one open-loop sweep point on this stack's variant. The
// legacy variant builds a fresh client per point with net/http's
// classic two-idle-connections-per-host pool and drives one round
// trip per redundant copy; the fast variant reuses the shared
// pre-warmed pooled client and batches each logical request's r-way
// fan-out into one SubmitBatch and one CancelBatch envelope.
func (s *overloadStack) point(rate float64, r int) (loadgen.Result, error) {
	cl := s.client
	if !s.fast {
		cl = middleware.NewClientOptions(s.url, fmt.Sprintf("overload-%g-%d", rate, r), middleware.ClientOptions{
			Timeout:   overloadTuning.Deadline,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		})
	}
	return s.runPoint(cl, rate, r, overloadTuning.Window, s.fast)
}

// runPoint drives the generator through an existing client (the chaos
// phases keep one client so breaker state carries across phases): one
// round trip per copy, or with batch one pair of batch envelopes per
// logical request.
func (s *overloadStack) runPoint(cl *middleware.Client, rate float64, r int, window time.Duration, batch bool) (loadgen.Result, error) {
	cfg := loadgen.Config{
		Rate:        rate,
		Arrivals:    loadgen.Poisson,
		Duration:    window,
		Redundancy:  r,
		MaxInFlight: 128,
		Deadline:    overloadTuning.Deadline,
		Classify:    middleware.ErrorClass,
	}
	if batch {
		cfg.DoBatch = func(ctx context.Context, _, copies int) error { return cl.BatchPair(ctx, copies) }
	} else {
		cfg.Do = func(ctx context.Context, _ loadgen.Request) error { return cl.Pair(ctx) }
	}
	return loadgen.Run(context.Background(), cfg)
}
