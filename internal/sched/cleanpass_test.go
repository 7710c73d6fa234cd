package sched

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"redreq/internal/des"
)

// referencePass is the reference for passEASY: a full EASY pass, one
// that remembers nothing from the pass before, restated over a model of
// the cluster's state, so that it predicts which requests the pass
// starts, and in which order, without touching the cluster. withdrawsHead is the
// test's OnStart policy: when it holds for a request that starts, the
// first request still pending in the queue is canceled on the spot.
type referencePass struct {
	starts []*Request
	// ties counts backfill candidates whose requested end fell exactly
	// on the shadow time; headWithdrawn counts blocked heads canceled by
	// the OnStart policy while the backfill loop was running.
	ties, headWithdrawn int
}

func predictPass(c *Cluster, withdrawsHead func(*Request) bool) referencePass {
	type busy struct {
		end   float64
		nodes int
	}
	var (
		ref     referencePass
		now     = c.sim.Now()
		free    = c.free
		queue   = slices.Clone(c.queue)
		gone    = map[*Request]bool{}
		running []busy
		head    *Request
	)
	for _, r := range c.running {
		running = append(running, busy{r.requestedEnd(), r.Nodes})
	}
	pending := func(r *Request) bool { return r != nil && r.State == Pending && !gone[r] }
	start := func(r *Request) {
		ref.starts = append(ref.starts, r)
		gone[r] = true
		free -= r.Nodes
		running = append(running, busy{now + r.Estimate, r.Nodes})
		if !withdrawsHead(r) {
			return
		}
		if i := slices.IndexFunc(queue, pending); i >= 0 {
			if queue[i] == head {
				ref.headWithdrawn++
			}
			gone[queue[i]] = true
		}
	}

	i := 0
	for ; i < len(queue); i++ {
		if r := queue[i]; pending(r) {
			if r.Nodes > free {
				break
			}
			start(r)
		}
	}
	for ; i < len(queue) && head == nil; i++ {
		if pending(queue[i]) {
			head = queue[i]
		}
	}
	if head == nil || free == 0 {
		return ref
	}

	// The head's shadow time: hand back nodes in requested-end order
	// until the head fits.
	slices.SortFunc(running, func(a, b busy) int { return cmp.Compare(a.end, b.end) })
	shadow, avail := now, free
	for k := 0; k < len(running); {
		end := running[k].end
		if end > now && avail >= head.Nodes {
			break
		}
		for ; k < len(running) && running[k].end == end; k++ {
			avail += running[k].nodes
		}
		shadow = max(now, end)
	}
	spare := avail - head.Nodes

	for ; i < len(queue) && free > 0; i++ {
		r := queue[i]
		if !pending(r) || r.Nodes > free {
			continue
		}
		if now+r.Estimate == shadow {
			ref.ties++
		}
		if now+r.Estimate <= shadow {
			start(r)
		} else if r.Nodes <= spare {
			start(r)
			spare -= r.Nodes
		}
	}
	return ref
}

// passChecker steps one EASY cluster's simulation event by event and,
// whenever the event turns out to have been a scheduling pass, requires
// the pass to have started what predictPass predicted from the state
// just before it.
type passChecker struct {
	t       *testing.T
	sim     *des.Simulation
	c       *Cluster
	started []*Request

	withdrawsHead func(*Request) bool

	passCounts
}

// passCounts is what a passChecker saw, so the test can require that the
// scripts reached the cases the clean pass has to get right.
type passCounts struct {
	passes, cleanPasses, cleanStarts, cleanTies int
	zeroEstimateStarts, headWithdrawn           int
	compactionsWhileClean                       int
}

func (n *passCounts) add(m passCounts) {
	n.passes += m.passes
	n.cleanPasses += m.cleanPasses
	n.cleanStarts += m.cleanStarts
	n.cleanTies += m.cleanTies
	n.zeroEstimateStarts += m.zeroEstimateStarts
	n.headWithdrawn += m.headWithdrawn
	n.compactionsWhileClean += m.compactionsWhileClean
}

func newPassChecker(t *testing.T, cfg Config, withdrawsHead func(*Request) bool) *passChecker {
	sim := des.New()
	h := &passChecker{t: t, sim: sim, c: NewCluster(sim, "diff", 0, cfg), withdrawsHead: withdrawsHead}
	h.c.OnStart = func(r *Request) {
		h.started = append(h.started, r)
		if r.Estimate == 0 {
			h.zeroEstimateStarts++
		}
		if withdrawsHead(r) {
			if p := h.firstPending(); p != nil {
				h.c.Cancel(p)
			}
		}
	}
	return h
}

func (h *passChecker) firstPending() *Request {
	for _, r := range h.c.queue {
		if r != nil && r.State == Pending {
			return r
		}
	}
	return nil
}

// step fires one event and reports whether there was one.
func (h *passChecker) step() bool {
	c := h.c
	want := predictPass(c, h.withdrawsHead)
	clean := c.easyHead != nil
	passes := c.stats.Passes
	h.started = h.started[:0]
	if !h.sim.Step() {
		return false
	}
	if err := c.checkInvariants(); err != nil {
		h.t.Fatalf("t=%v: %v", h.sim.Now(), err)
	}
	if c.stats.Passes == passes {
		return true // a submission, cancel or completion, not a pass
	}
	if !slices.Equal(h.started, want.starts) {
		h.t.Fatalf("t=%v, pass %d (clean=%v): started jobs %v, the full pass starts %v",
			h.sim.Now(), c.stats.Passes, clean, jobIDs(h.started), jobIDs(want.starts))
	}
	h.passes++
	h.headWithdrawn += want.headWithdrawn
	if clean {
		h.cleanPasses++
		h.cleanStarts += len(want.starts)
		h.cleanTies += want.ties
	}
	return true
}

func (h *passChecker) runUntil(t float64) { stepUntil(h.sim, h.step, t) }

// stepUntil fires, through a checker's step, every event due by t and
// moves the clock there.
func stepUntil(sim *des.Simulation, step func() bool, t float64) {
	for at, ok := sim.Peek(); ok && at <= t; at, ok = sim.Peek() {
		step()
	}
	sim.RunUntil(t)
}

// mutate applies a queue operation made outside a pass and notes when it
// compacted the queue under a remembered scan cursor.
func (h *passChecker) mutate(op func()) {
	before := len(h.c.queue)
	op()
	if len(h.c.queue) < before && h.c.easyHead != nil {
		h.compactionsWhileClean++
	}
}

func jobIDs(rs []*Request) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.JobID
	}
	return ids
}

// smallRequest draws a request with small integer times, so requested
// ends tie with each other and with shadow times, and some estimates
// are zero.
func smallRequest(r *rand.Rand, id int64, maxNodes int) *Request {
	estimate := float64(r.IntN(13))
	runtime := estimate
	if r.IntN(2) == 0 {
		runtime = float64(r.IntN(int(estimate) + 1))
	}
	return testReq(id, 1+r.IntN(maxNodes), runtime, estimate)
}

// TestCleanPassMatchesFullPass drives random scripts of submissions,
// cancels of the head and behind it, completions and idle time against
// one EASY cluster, and then whole simulations, and requires every pass
// — nearly half of them clean — to start exactly the requests, in the order,
// that a full pass over the same state starts.
func TestCleanPassMatchesFullPass(t *testing.T) {
	var total passCounts
	never := func(*Request) bool { return false }
	everySixth := func(r *Request) bool { return r.JobID%6 == 0 }

	for trial := 0; trial < 2400; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 20))
		nodes := 2 + r.IntN(31)
		policy := never
		if trial%2 == 1 {
			policy = everySixth
		}
		h := newPassChecker(t, Config{Nodes: nodes, Alg: EASY, Predict: trial%4 == 0}, policy)
		c := h.c
		var id int64
		submit := func(req *Request) { h.mutate(func() { c.Submit(req) }) }
		ops := 30 + r.IntN(120)
		// Every tenth script holds a deep queue behind a wide, long job
		// and mostly cancels behind the head, so the queue compacts
		// while a pass's cursor is remembered.
		deep := trial%10 == 0
		if deep {
			ops = 500
			id++
			submit(testReq(id, nodes-1, 1000, 1000))
			for k := 0; k < 120; k++ {
				id++
				submit(testReq(id, 2+r.IntN(nodes-1), 5, float64(5+r.IntN(8))))
			}
			h.runUntil(h.sim.Now())
		}
		for op := 0; op < ops; op++ {
			now := h.sim.Now()
			switch k := r.IntN(10); {
			case k < 4 && (!deep || k < 2):
				id++
				submit(smallRequest(r, id, nodes))
			case k < 6:
				// Cancel behind the head.
				if pend := c.Pending(); len(pend) > 1 {
					victim := pend[1+r.IntN(len(pend)-1)]
					h.mutate(func() { c.Cancel(victim) })
				}
			case k == 6:
				if head := h.firstPending(); head != nil {
					h.mutate(func() { c.Cancel(head) })
				}
			case k == 7:
				// The next completion (or whatever else is due first).
				if at, ok := h.sim.Peek(); ok {
					h.runUntil(at)
				}
			case k == 8:
				h.runUntil(now + float64(r.IntN(4)))
			}
			// Usually let the kicked pass run before the next
			// operation; sometimes let operations share a pass.
			if r.IntN(4) != 0 {
				h.runUntil(now)
			}
		}
		for h.step() {
		}
		total.add(h.passCounts)
	}
	scripted := total

	// Whole simulations: arrivals and cancels are events of the run.
	for trial := 0; trial < 300; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 21))
		nodes := 2 + r.IntN(31)
		policy := never
		if trial%2 == 1 {
			policy = everySixth
		}
		h := newPassChecker(t, Config{Nodes: nodes, Alg: EASY, Predict: trial%4 == 0}, policy)
		n := 20 + r.IntN(120)
		reqs := make([]*Request, n)
		arrival := 0.0
		for i := range reqs {
			arrival += float64(r.IntN(3))
			reqs[i] = smallRequest(r, int64(i+1), nodes)
			submitAt(h.sim, h.c, arrival, reqs[i])
		}
		for i := 0; i < n/6; i++ {
			victim := reqs[r.IntN(n)]
			h.sim.Schedule(arrival*r.Float64(), func() {
				if victim.Cluster() == h.c {
					h.c.Cancel(victim)
				}
			})
		}
		for h.step() {
		}
		total.add(h.passCounts)
	}

	t.Logf("%d passes compared (%d scripted), %d clean (%d scripted) with %d starts and %d shadow ties; %d zero-estimate starts, %d heads withdrawn mid-pass, %d compactions under a cursor",
		total.passes, scripted.passes, total.cleanPasses, scripted.cleanPasses, total.cleanStarts, total.cleanTies,
		total.zeroEstimateStarts, total.headWithdrawn, total.compactionsWhileClean)
	for _, floor := range []struct {
		what      string
		got, want int
	}{
		{"clean passes in scripts", scripted.cleanPasses, 20000},
		{"clean passes in simulations", total.cleanPasses - scripted.cleanPasses, 1000},
		{"starts made by clean passes", total.cleanStarts, 2000},
		{"clean-pass candidates ending exactly at the shadow time", total.cleanTies, 200},
		{"zero-estimate starts", total.zeroEstimateStarts, 500},
		{"heads withdrawn from OnStart mid-pass", total.headWithdrawn, 50},
		{"compactions under a remembered cursor", total.compactionsWhileClean, 50},
	} {
		if floor.got < floor.want {
			t.Errorf("%s: %d, want at least %d: the scripts no longer exercise the clean pass", floor.what, floor.got, floor.want)
		}
	}
}
