package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"redreq/internal/des"
	"redreq/internal/obs"
)

// This file is sched's one randomized differential: runScript interprets a
// byte script against one or more clusters and, after every event, holds
// each cluster to the reference model of its algorithm. The first byte
// picks the algorithm and the ordering, the second the node count, the
// third the flags below; EASY in class order reads a fourth, the running
// caps of classes 0 to 2, two bits each. Every operation after that is one
// byte — submit (followed by nodes, estimate and runtime, and in class
// order the class), cancel behind the head, cancel
// any pending request, cancel the head (each followed by which, when it
// takes one), run to the next event, let up to three seconds pass
// (followed by how many), or nothing — whose upper part says which
// cluster it acts on and whether the pass it kicked runs before the next
// operation or shares it.

// Script header flags; the two bits above them are the cluster count
// less one (at most three).
const (
	scriptWithdraw         = 1 << iota // withdrawFrom rides every start callback
	scriptCompressOnCancel             // Config.CompressOnCancel
	scriptNoCancelBackfill             // Config.DisableCancelBackfill
	scriptDeep                         // a deep queue behind a wide, long job, then mostly cancels
	scriptPredict                      // Config.Predict
	// scriptNoCancel makes the stream cancel-free — cancel operations do
	// nothing, every job goes to one cluster and nothing is withdrawn — so
	// FCFS and EASY start times are held to refEASY exactly.
	scriptNoCancel
)

// scriptMax bounds a script: the harness copies a CBF cluster before
// every pass, and the fuzzer grows inputs to a megabyte.
const scriptMax = 1200

// scriptBytes reads a script; past its end every byte is zero.
type scriptBytes []byte

func (s *scriptBytes) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// What the scripts reached, so that each test can require its slice of
// them to reach the cases its reference has to get right.
const (
	nPasses            = iota // FCFS and EASY passes held to predictPass
	nClean                    // of them, clean passes
	nCleanStarts              // starts made by clean passes
	nCleanTies                // clean-pass candidates ending exactly at the shadow time
	nZeroStarts               // zero-estimate starts
	nHeadWithdrawn            // blocked heads withdrawn from a start callback mid-pass
	nCursorCompactions        // compactions between passes under a remembered EASY cursor
	nBlocked                  // blocked EASY heads whose shadow was held to the Profile oracle
	nExactStarts              // FCFS and EASY start times held to refEASY
	nHeldPasses               // EASY passes that passed over a request held at its class cap
	nCBFPasses                // CBF passes held to referencePassCBF
	nResumed                  // of them, passes whose admit resumed at the cursor
	nCompressing              // CBF compressing passes held to referencePassCBF
	nProbes                   // reservations they searched an earlier anchor for
	nMoves                    // probes that moved the reservation
	nMovesToBreak             // moves onto a breakpoint rather than the search's lower bound
	nStraddleHeld             // probe windows across a segment straddling the held start
	nStraddleEnd              // and the held end, and ones ending inside the held span
	nEndsInOwn
	nWithdrawn         // CBF reservations withdrawn from a start callback mid-pass
	nCompactions       // queue compactions
	nFires             // reservation timer fires
	nFiresMulti        // fires that found two or more requests due
	nFiresTied         // instants at which two clusters' timers fired
	nHolderCancels     // cancels between passes of the request a timer stood for
	nHolderCancelsLast // of them, the ones that left the cluster no timer
	nHolderCancelsDue  // and the ones at the instant the reservation was due
	nStaleRescans      // CBF passes that rescanned after a start callback withdrew a request
	nCounts
)

type counts [nCounts]int

func (n *counts) add(m counts) {
	for i := range n {
		n[i] += m[i]
	}
}

// oracleRunningProfile is the transient EASY profile of old: one AddBusy
// from now to its requested end per running job, in start order.
func oracleRunningProfile(c *Cluster, now float64) *Profile {
	jobs := slices.Clone(c.running)
	slices.SortStableFunc(jobs, func(a, b *Request) int { return cmp.Compare(a.Start, b.Start) })
	p := NewProfile(now, c.cfg.Nodes)
	for _, r := range jobs {
		if end := r.Start + r.Estimate; end > now {
			p.AddBusy(now, end, r.Nodes)
		}
	}
	return p
}

// oracleShadow reads the head's shadow time and the nodes left over
// there off the oracle profile, the way the EASY pass used to.
func oracleShadow(c *Cluster, now, estimate float64, nodes int) (float64, int) {
	p := oracleRunningProfile(c, now)
	shadow := p.FindAnchor(now, estimate, nodes)
	return shadow, p.AvailAt(shadow) - nodes
}

// referencePass is what predictPass expects of a pass: the requests it
// starts, in order, the backfill candidates ending exactly at the shadow
// time, the blocked heads the start callback withdrew, and the requests
// it passed over because their class was at its cap.
type referencePass struct {
	starts                    []*Request
	ties, headWithdrawn, held int
}

// predictPass is the reference for an FCFS or EASY pass, plain or
// ordered: a full pass that remembers nothing from the one before, over a
// model of the cluster's state. withdraws models withdrawFrom.
func predictPass(c *Cluster, withdraws bool) referencePass {
	type busy struct {
		end   float64
		nodes int
	}
	var (
		ref     referencePass
		now     = c.sim.Now()
		free    = c.free
		queue   = c.orderedPending(now)
		gone    = map[*Request]bool{}
		running []busy
		head    *Request
		// Running requests per class, counted afresh.
		classes = map[int32]int{}
	)
	for _, r := range c.running {
		running = append(running, busy{r.requestedEnd(), r.Nodes})
		classes[r.Class]++
	}
	pending := func(r *Request) bool { return r != nil && r.State == Pending && !gone[r] }
	// eligible is pending and not held: a request whose class is at its
	// cap is passed over as if it were not queued.
	eligible := func(r *Request) bool {
		if !pending(r) {
			return false
		}
		if c.cfg.ClassLimit != nil {
			if limit := c.cfg.ClassLimit[r.Class]; limit > 0 && classes[r.Class] >= limit {
				ref.held++
				return false
			}
		}
		return true
	}
	start := func(r *Request) {
		ref.starts = append(ref.starts, r)
		gone[r] = true
		free -= r.Nodes
		classes[r.Class]++
		running = append(running, busy{now + r.Estimate, r.Nodes})
		if withdraws && r.JobID%6 == 0 {
			if i := slices.IndexFunc(c.queue, pending); i >= 0 {
				ref.headWithdrawn += boolInt(c.queue[i] == head)
				gone[c.queue[i]] = true
			}
		}
	}

	i := 0
	for ; i < len(queue); i++ {
		if r := queue[i]; eligible(r) {
			if r.Nodes > free {
				break
			}
			start(r)
		}
	}
	for ; i < len(queue) && head == nil; i++ {
		if eligible(queue[i]) {
			head = queue[i]
		}
	}
	if c.cfg.Alg == FCFS || head == nil || free == 0 {
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
		if !pending(r) || r.Nodes > free || !eligible(r) {
			continue
		}
		ref.ties += boolInt(now+r.Estimate == shadow)
		if crosses := now+r.Estimate > shadow; !crosses || r.Nodes <= spare {
			spare -= r.Nodes * boolInt(crosses)
			start(r)
		}
	}
	return ref
}

// refJob is one submission and the passes its cluster had run by then:
// jobs submitted at one instant under one pass count arrive together.
type refJob struct {
	r     *Request
	group int
}

// refEASY is a deliberately naive, independently written FCFS or EASY
// scheduler for a cancel-free stream on one cluster. It steps from moment
// to moment — the completions due at an instant, or one group of
// arrivals, completions first — and ends each by starting, one at a time
// and from scratch, the first queued job that may start: the head if it
// fits, or under EASY one that fits and ends by the head's shadow time
// or fits in the nodes left over there.
func refEASY(jobs []refJob, free int, fcfs bool) []float64 {
	type running struct {
		end, rEnd float64 // actual and requested completion
		nodes     int
	}
	starts := make([]float64, len(jobs))
	var run []running
	var queue []int // indices into jobs, arrival order
	for next := 0; next < len(jobs) || len(run) > 0; {
		now := math.Inf(1)
		for _, r := range run {
			now = min(now, r.end)
		}
		if next < len(jobs) && jobs[next].r.Submit < now {
			now = jobs[next].r.Submit
			for g := jobs[next].group; next < len(jobs) && jobs[next].r.Submit == now && jobs[next].group == g; next++ {
				queue = append(queue, next)
			}
		}
		run = slices.DeleteFunc(run, func(r running) bool {
			free += r.nodes * boolInt(r.end == now)
			return r.end == now
		})
		for len(queue) > 0 {
			head := jobs[queue[0]].r.Nodes
			slices.SortFunc(run, func(a, b running) int { return cmp.Compare(a.rEnd, b.rEnd) })
			shadow, avail := now, free
			for k := 0; avail < head; k++ {
				shadow, avail = run[k].rEnd, avail+run[k].nodes
			}
			extra := free - head
			for _, r := range run {
				extra += r.nodes * boolInt(r.rEnd <= shadow)
			}
			qi := slices.IndexFunc(queue, func(i int) bool {
				j := jobs[i].r
				return j.Nodes <= free && (i == queue[0] || !fcfs && (now+j.Estimate <= shadow || j.Nodes <= extra))
			})
			if qi < 0 {
				break
			}
			j := jobs[queue[qi]].r
			starts[queue[qi]] = now
			free -= j.Nodes
			run = append(run, running{now + j.Runtime, now + j.Estimate, j.Nodes})
			queue = slices.Delete(queue, qi, qi+1)
		}
	}
	return starts
}

// referenceCompress is compressCBF as it was before it probed: every
// pending reservation with a non-empty search range is taken out of the
// profile, searched for with FindAnchorLimit, clamped to where it was
// and put back, moved or not.
func referenceCompress(c *Cluster, now float64, n *counts) {
	n[nCompressing]++
	relStart, relEnd := c.relStart, c.relEnd
	c.relStart, c.relEnd = math.Inf(1), math.Inf(-1)
	for i := 0; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending || math.IsNaN(r.resStart) {
			continue
		}
		old := r.resStart
		lo := max(now, math.Min(relStart, c.relStart)-r.Estimate)
		hi := min(old, math.Max(relEnd, c.relEnd))
		if lo >= hi {
			if old <= now {
				c.startReserved(r, now)
			}
			continue
		}
		p := c.profile
		end := old + r.Estimate
		heldSegment, endSegment := p.times[p.segmentAt(old)], p.times[p.segmentAt(end)]

		p.AddBusy(old, end, -r.Nodes)
		anchor := min(old, p.FindAnchorLimit(lo, hi, r.Estimate, r.Nodes))
		n[nProbes]++
		window := lo + r.Estimate
		if anchor < old {
			window = anchor + r.Estimate
			n[nMoves]++
			n[nMovesToBreak] += boolInt(anchor > lo)
		}
		n[nStraddleHeld] += boolInt(heldSegment < old && heldSegment < window)
		n[nStraddleEnd] += boolInt(endSegment < end && endSegment < window)
		n[nEndsInOwn] += boolInt(window > old)
		p.AddBusy(anchor, anchor+r.Estimate, r.Nodes)
		r.resStart = anchor
		if anchor < old {
			c.noteRelease(math.Max(old, anchor+r.Estimate), end)
		}
		if anchor <= now {
			c.startReserved(r, now)
		}
	}
}

// referencePassCBF is Cluster.pass with referenceCompress for compressCBF.
func referencePassCBF(c *Cluster, n *counts) {
	now := c.sim.Now()
	c.stats.Passes++
	c.inPass = true
	c.profile.TrimBefore(now)
	if c.needCompress {
		c.needCompress = false
		referenceCompress(c, now, n)
	}
	c.admitCBF(now, 0, math.Inf(1))
	c.inPass = false
	if c.needCompact {
		c.needCompact = false
		c.compactQueue()
	}
}

// cbfTwin is a detached copy of a CBF cluster — profile, queue,
// reservations, timer, released window — on a simulation of its own, for
// the reference pass to run on. Its clock stands at the instant of the
// event about to fire, not at the cluster's clock: when a reservation
// timer is the first event of a new instant, the two differ.
type cbfTwin struct {
	c       *Cluster
	real    []*Request // the cluster's queued requests when the copy was taken
	copy    []*Request // copy[i] stands for real[i]
	started []*Request // copies, in the order the reference started them
}

func cloneCBF(c *Cluster, at float64, withdraw bool) *cbfTwin {
	sim := des.New()
	sim.RunUntil(at)
	tw := &cbfTwin{c: NewCluster(sim, c.Name, c.Index, c.cfg)}
	t := tw.c
	t.free, t.holes, t.queuedWork = c.free, c.holes, c.queuedWork
	t.profile = &Profile{times: slices.Clone(c.profile.times), avail: slices.Clone(c.profile.avail)}
	t.needCompress, t.relStart, t.relEnd = c.needCompress, c.relStart, c.relEnd
	t.queue = make([]*Request, len(c.queue))
	block := make([]Request, len(c.queue)-c.holes)
	for i, r := range c.queue {
		if r != nil {
			cp := &block[len(tw.real)]
			*cp = *r
			cp.cluster = t
			t.queue[i] = cp
			tw.real = append(tw.real, r)
			tw.copy = append(tw.copy, cp)
		}
	}
	t.armTimer(t.nextDue())
	t.OnStart = func(r *Request) {
		tw.started = append(tw.started, r)
		if withdraw {
			withdrawFrom(t, r)
		}
	}
	return tw
}

// timerHolder returns the index in rs of the first request the cluster's
// reservation timer stands for, -1 when the timer is not armed.
func timerHolder(c *Cluster, rs []*Request) int {
	return slices.IndexFunc(rs, func(r *Request) bool { return holdsTimer(c, r) })
}

// holdsTimer reports whether r is pending with its reservation at the
// timer's instant; several requests may be.
func holdsTimer(c *Cluster, r *Request) bool {
	return r.State == Pending && r.resStart == c.timerAt
}

// sameTime reports whether two times are equal, NaN equal to NaN.
func sameTime(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

func jobIDs(rs []*Request) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.JobID
	}
	return ids
}

// withdrawFrom is the scripts' withdraw-from-OnStart policy: when a job
// whose number divides by six starts, FCFS and EASY cancel the first
// request still pending — often the blocked head — and CBF the middle
// reservation still pending: capacity released mid-compression, ahead of
// or behind the request examined, perhaps one the pass already counted.
func withdrawFrom(c *Cluster, r *Request) {
	if r.JobID%6 != 0 {
		return
	}
	var rs []*Request
	for _, q := range c.queue {
		if q != nil && q.State == Pending && (c.cfg.Alg != CBF || !math.IsNaN(q.resStart)) {
			rs = append(rs, q)
		}
	}
	if len(rs) > 0 {
		c.Cancel(rs[len(rs)/2*boolInt(c.cfg.Alg == CBF)])
	}
}

// harness steps a script's clusters event by event. Before an event that
// may be a cluster's pass it takes down what the reference expects —
// predictPass, or a copy for referencePassCBF — and when it was that
// pass, requires exactly that. After every event, and every cancel
// between passes, it checks the invariants, the blocked EASY heads'
// shadows and the CBF reservation timers.
type harness struct {
	t        *testing.T
	sim      *des.Simulation
	cs       []*Cluster
	started  [][]*Request // per cluster, since the last step
	subs     [][]refJob   // per cluster, every submission
	withdraw bool
	// The last timer fire, and the last instant two clusters' fired.
	firedAt, tiedAt float64
	firedOn         int
	// Per cluster, the instant its timer stands for and when it was
	// armed for it, by a count of the arms the harness has seen: timers
	// due at one instant fire in that order.
	armAt   []float64
	armedAs []int
	arms    int
	n       counts
}

func newHarness(t *testing.T, k int, cfg Config, withdraw bool) *harness {
	h := &harness{t: t, sim: des.New(), withdraw: withdraw, started: make([][]*Request, k), subs: make([][]refJob, k),
		firedAt: math.NaN(), tiedAt: math.NaN(), armAt: make([]float64, k), armedAs: make([]int, k)}
	for i := 0; i < k; i++ {
		c := NewCluster(h.sim, fmt.Sprint("c", i), i, cfg)
		h.armAt[i] = c.timerAt
		// A trace of its own, to read the pass's counts and timer fires off.
		c.SetTrace(obs.New())
		c.OnStart = func(r *Request) {
			h.started[i] = append(h.started[i], r)
			h.n[nZeroStarts] += boolInt(r.Estimate == 0)
			if withdraw {
				withdrawFrom(c, r)
			}
			// Cancel-on-start: the first copy of a job to start cancels
			// its siblings on the other clusters.
			for _, s := range r.Owner.([]*Request) {
				if s != r {
					h.cancel(s.cluster, s)
				}
			}
		}
		h.cs = append(h.cs, c)
	}
	return h
}

// mutate applies a queue operation made between passes of c, notes a
// compaction, and checks c's timer at once, not only after the pass.
func (h *harness) mutate(c *Cluster, op func()) {
	before := len(c.queue)
	op()
	if len(c.queue) < before {
		h.n[nCompactions]++
		h.n[nCursorCompactions] += boolInt(c.easyHead != nil)
	}
	if c.cfg.Alg == CBF {
		h.checkTimer(c)
	}
}

func (h *harness) cancel(c *Cluster, r *Request) {
	holder := holdsTimer(c, r)
	due := holder && r.resStart == h.sim.Now()
	h.mutate(c, func() { c.Cancel(r) })
	if holder {
		h.n[nHolderCancels]++
		h.n[nHolderCancelsLast] += boolInt(c.timerEv == nil)
		h.n[nHolderCancelsDue] += boolInt(due)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkTimer holds a CBF cluster outside a pass to the timer's
// invariant: armed for the earliest pending reservation, and only when
// there is one. A timer that stands for a new instant counts as armed
// now; one whose instant is unchanged keeps its place.
func (h *harness) checkTimer(c *Cluster) {
	at := math.Inf(1)
	for _, r := range c.queue {
		if r != nil && r.State == Pending && r.resStart < at {
			at = r.resStart
		}
	}
	if c.timerAt != at {
		h.t.Fatalf("t=%v %s: timer stands for the reservation at %v, the earliest pending one is at %v",
			h.sim.Now(), c.Name, c.timerAt, at)
	}
	if ev := c.timerEv; (ev != nil) == math.IsInf(at, 1) || ev != nil && (ev.Canceled() || ev.Time != at) {
		h.t.Fatalf("t=%v %s: timer event %+v with the earliest pending reservation at %v", h.sim.Now(), c.Name, ev, at)
	}
	if i := c.Index; !sameTime(h.armAt[i], at) {
		h.arms++
		h.armAt[i], h.armedAs[i] = at, h.arms
	}
}

// due counts the cluster's pending reservations that are due by at.
func due(c *Cluster, at float64) (n int) {
	for _, r := range c.queue {
		if r != nil && r.State == Pending && r.resStart <= at {
			n++
		}
	}
	return n
}

// step fires one event and reports whether there was one.
func (h *harness) step() bool {
	at, ok := h.sim.Peek()
	for _, c := range h.cs {
		// No instant ends with a pending reservation overdue.
		if !ok || at > h.sim.Now() {
			if n := due(c, h.sim.Now()); n > 0 {
				h.t.Fatalf("t=%v %s: the instant ends with %d pending reservations due", h.sim.Now(), c.Name, n)
			}
		}
	}
	if !ok {
		return false
	}
	type snapshot struct {
		want                          *referencePass
		twin                          *cbfTwin
		clean                         bool
		passes, queued, due, canceled int
		fires, probes, moves, resumed int64
		armAt                         float64
		armedAs                       int
	}
	before := make([]snapshot, len(h.cs))
	for i, c := range h.cs {
		h.started[i] = h.started[i][:0]
		b := &before[i]
		b.passes, b.queued, b.canceled = c.stats.Passes, len(c.queue), c.stats.Canceled
		b.fires, b.probes, b.moves = c.cTimerFires.Value(), c.cCompressProbes.Value(), c.cCompressMoves.Value()
		b.resumed = c.cPassesClean.Value()
		b.armAt, b.armedAs = h.armAt[i], h.armedAs[i]
		kicked := c.kickEv != nil && c.kickEv.Time == at
		timed := c.timerEv != nil && c.timerEv.Time == at
		switch {
		case c.cfg.Alg != CBF && kicked:
			want := predictPass(c, h.withdraw)
			b.want, b.clean = &want, c.easyHead != nil
		case c.cfg.Alg == CBF && (kicked || timed):
			b.due = due(c, at)
			b.twin = cloneCBF(c, at, h.withdraw)
		}
	}
	h.sim.Step()
	fired := 0
	for i, c := range h.cs {
		if err := c.checkInvariants(); err != nil {
			h.t.Fatalf("t=%v: %v", h.sim.Now(), err)
		}
		b := &before[i]
		h.n[nCompactions] += boolInt(len(c.queue) < b.queued)
		passed := c.stats.Passes != b.passes
		if c.cfg.Alg != CBF {
			if passed {
				// The pass started what the full pass predicted from the
				// state just before it.
				if w := b.want; w == nil || !slices.Equal(h.started[i], w.starts) {
					h.t.Fatalf("t=%v %s pass %d (clean=%v): started jobs %v, the full pass %+v",
						h.sim.Now(), c.Name, c.stats.Passes, b.clean, jobIDs(h.started[i]), w)
				}
				h.n[nPasses]++
				h.n[nHeadWithdrawn] += b.want.headWithdrawn
				h.n[nHeldPasses] += boolInt(b.want.held > 0)
				if b.clean {
					h.n[nClean]++
					h.n[nCleanStarts] += len(b.want.starts)
					h.n[nCleanTies] += b.want.ties
				}
			}
			if c.cfg.Alg == EASY {
				h.checkShadow(c)
			}
			continue
		}
		if err := c.profile.Validate(c.cfg.Nodes); err != nil {
			h.t.Fatalf("t=%v: %s: %v", h.sim.Now(), c.Name, err)
		}
		fire := c.cTimerFires.Value() != b.fires
		if fire {
			// The fire spent the timer; whatever it stands for now was
			// armed after it.
			h.armAt[i] = math.NaN()
		}
		h.checkTimer(c)
		if fire {
			if b.due == 0 {
				h.t.Fatalf("t=%v %s: the reservation timer fired with no reservation due", h.sim.Now(), c.Name)
			}
			for j, o := range before {
				if o.armAt == at && o.armedAs < b.armedAs {
					h.t.Fatalf("t=%v: %s's timer fired ahead of %s's, armed for the same instant before it",
						h.sim.Now(), c.Name, h.cs[j].Name)
				}
			}
			fired++
			h.n[nFires]++
			h.n[nFiresMulti] += boolInt(b.due > 1)
			if h.firedAt == at && h.firedOn != i && h.tiedAt != at {
				h.n[nFiresTied]++
				h.tiedAt = at
			}
			h.firedAt, h.firedOn = at, i
		}
		// Only its own start callbacks cancel on a cluster while it passes.
		h.n[nStaleRescans] += boolInt(passed && c.stats.Canceled != b.canceled)
		if tw := b.twin; tw != nil && passed {
			probes, moves := h.n[nProbes], h.n[nMoves]
			referencePassCBF(tw.c, &h.n)
			h.compare(c, h.started[i], tw)
			h.n[nCBFPasses]++
			h.n[nResumed] += int(c.cPassesClean.Value() - b.resumed)
			h.n[nWithdrawn] += tw.c.stats.Canceled
			// The trace counts what the reference did.
			if p, m := c.cCompressProbes.Value()-b.probes, c.cCompressMoves.Value()-b.moves; p != int64(h.n[nProbes]-probes) || m != int64(h.n[nMoves]-moves) {
				h.t.Fatalf("t=%v %s: the pass counted %d probes and %d moves, the reference %d and %d",
					h.sim.Now(), c.Name, p, m, h.n[nProbes]-probes, h.n[nMoves]-moves)
			}
		}
	}
	if fired > 1 {
		h.t.Fatalf("t=%v: one event fired %d reservation timers", h.sim.Now(), fired)
	}
	return true
}

// checkShadow requires the walk, whenever the ordered queue's head is
// blocked, to equal a shadow recomputed through a fresh Profile.
func (h *harness) checkShadow(c *Cluster) {
	now := h.sim.Now()
	view := c.orderedPending(now)
	if len(view) == 0 || view[0].Nodes <= c.free {
		return
	}
	head := view[0]
	h.n[nBlocked]++
	wantAt, wantSpare := oracleShadow(c, now, head.Estimate, head.Nodes)
	if gotAt, gotSpare := c.shadow(now, head.Nodes); gotAt != wantAt || gotSpare != wantSpare {
		h.t.Fatalf("t=%v %s, job %d (%d nodes) blocked with %d free: shadow (%v, %d), oracle (%v, %d) over %v",
			now, c.Name, head.JobID, head.Nodes, c.free, gotAt, gotSpare, wantAt, wantSpare, oracleRunningProfile(c, now))
	}
}

// compare requires the cluster to match the copy after the reference pass.
func (h *harness) compare(c *Cluster, started []*Request, tw *cbfTwin) {
	t, ref, at := h.t, tw.c, h.sim.Now()
	if got, want := jobIDs(started), jobIDs(tw.started); !slices.Equal(got, want) {
		t.Fatalf("t=%v %s pass %d: started jobs %v, the reference starts %v", at, c.Name, c.stats.Passes, got, want)
	}
	for i, r := range tw.real {
		cp := tw.copy[i]
		if r.State != cp.State || !sameTime(r.Reservation(), cp.Reservation()) || !sameTime(r.Reserved, cp.Reserved) {
			t.Fatalf("t=%v %s pass %d, job %d: %v reserved at %v (promised %v), the reference has it %v at %v (promised %v)",
				at, c.Name, c.stats.Passes, r.JobID, r.State, r.Reservation(), r.Reserved, cp.State, cp.Reservation(), cp.Reserved)
		}
	}
	// The timer stands for the same request at the same time.
	if h, rh := timerHolder(c, tw.real), timerHolder(ref, tw.copy); c.timerAt != ref.timerAt || h != rh {
		t.Fatalf("t=%v %s pass %d: timer armed for %v (request %d of the queue); the reference arms %v (request %d)",
			at, c.Name, c.stats.Passes, c.timerAt, h, ref.timerAt, rh)
	}
	// Element for element, which is stricter than the rendered String.
	if !slices.Equal(c.profile.times, ref.profile.times) || !slices.Equal(c.profile.avail, ref.profile.avail) {
		t.Fatalf("t=%v %s pass %d: profile\n%v\nthe reference leaves\n%v", at, c.Name, c.stats.Passes, c.profile, ref.profile)
	}
	if c.relStart != ref.relStart || c.relEnd != ref.relEnd || c.needCompress != ref.needCompress ||
		c.free != ref.free || len(c.queue) != len(ref.queue) || c.holes != ref.holes {
		t.Fatalf("t=%v %s pass %d: released [%v, %v) compress=%v, %d free, queue %d with %d holes; the reference: [%v, %v) %v, %d, %d, %d",
			at, c.Name, c.stats.Passes, c.relStart, c.relEnd, c.needCompress, c.free, len(c.queue), c.holes,
			ref.relStart, ref.relEnd, ref.needCompress, ref.free, len(ref.queue), ref.holes)
	}
}

// runUntil steps through every event due by t and moves the clock there.
func (h *harness) runUntil(t float64) {
	for at, ok := h.sim.Peek(); ok && at <= t; at, ok = h.sim.Peek() {
		h.step()
	}
	h.sim.RunUntil(t)
}

// runScript interprets data under the harness, runs it dry, holds every
// cancel-free FCFS and EASY cluster to refEASY, and returns what it saw
// and how many clusters it ran.
func runScript(t *testing.T, data []byte) (counts, int) {
	s := scriptBytes(data[:min(len(data), scriptMax)])
	pick, nodes, flags := s.next(), 2+s.next()%31, s.next()
	cfg := Config{Nodes: nodes, Alg: Algorithm(pick % 3), Order: Ordering(pick / 3 % 4), Predict: flags&scriptPredict != 0,
		CompressOnCancel: flags&scriptCompressOnCancel != 0, DisableCancelBackfill: flags&scriptNoCancelBackfill != 0}
	if cfg.Alg == CBF {
		cfg.Order = OrderFCFS
	}
	classes := cfg.Order == OrderClass
	if classes && cfg.Alg == EASY {
		caps := s.next()
		cfg.ClassLimit = []int{caps & 3, caps >> 2 & 3, caps >> 4 & 3}
	}
	cancels, deep, k := flags&scriptNoCancel == 0, flags&scriptDeep != 0, 1+flags>>6%3
	h := newHarness(t, k, cfg, cancels && flags&scriptWithdraw != 0)
	var id int64
	// submit sends a job to copies clusters from home on.
	submit := func(home, copies, n int, estimate, runtime float64, class int32) {
		id++
		reqs := make([]*Request, copies)
		for j := range reqs {
			reqs[j] = testReq(id, n, runtime, estimate)
			reqs[j].Owner = reqs
			reqs[j].Class = class
		}
		for j, r := range reqs {
			c := h.cs[(home+j)%k]
			h.subs[c.Index] = append(h.subs[c.Index], refJob{r, c.stats.Passes})
			h.mutate(c, func() { c.Submit(r) })
		}
	}
	if deep {
		// Under CBF the wide job ends at 40, early, so compression runs over
		// the deep queue; elsewhere it holds the blocked head and its cursor.
		for i := range h.cs {
			submit(i, 1, nodes-1, 1000, float64(1000-960*boolInt(cfg.Alg == CBF)), 0)
		}
		for j := 0; j < 120; j++ {
			submit(j%k, 1, 2+s.next()%(nodes-1), float64(5+s.next()%8), 5, int32(j%3*boolInt(classes)))
		}
		h.runUntil(h.sim.Now())
	}
	for len(s) > 0 {
		now := h.sim.Now()
		op := s.next()
		c := h.cs[op/40%k]
		switch kind := op % 10; {
		case kind < 4 && (!deep || kind < 2):
			// Small integer times: ends tie with each other, with shadow
			// times and with anchors; half the jobs finish early and half
			// on time; estimates run from 0 to 12 seconds, from 1 under CBF,
			// which refuses 0. Kinds 2 and 3 send copies to two and to every
			// cluster.
			copies := []int{1, 1, min(2, k), k}[kind*boolInt(cancels)]
			n, e, run, cbf := 1+s.next()%nodes, s.next(), s.next(), boolInt(cfg.Alg == CBF)
			estimate := float64(e%(13-cbf) + cbf)
			runtime := estimate
			if run%2 == 0 {
				runtime = float64(run / 2 % (int(estimate) + 1))
			}
			class := 0
			if classes {
				class = s.next() % 3
			}
			submit(c.Index, copies, n, estimate, runtime, int32(class))
		case kind < 7 && cancels:
			switch pend := c.Pending(); {
			case kind == 5 && len(pend) > 0:
				h.cancel(c, pend[s.next()%len(pend)])
			case kind == 6 && len(pend) > 0:
				h.cancel(c, pend[0])
			case kind != 5 && kind != 6 && len(pend) > 1:
				h.cancel(c, pend[1+s.next()%(len(pend)-1)])
			}
		case kind == 7:
			if at, ok := h.sim.Peek(); ok {
				h.runUntil(at)
			}
		case kind == 8:
			h.runUntil(now + float64(s.next()%4))
		}
		if op/10%4 != 0 {
			h.runUntil(now)
		}
	}
	for h.step() {
	}
	for i, c := range h.cs {
		if st := c.stats; st.Finished+st.Canceled != st.Submitted {
			t.Fatalf("%s finished %d and canceled %d of %d", c.Name, st.Finished, st.Canceled, st.Submitted)
		}
		if c.cfg.Alg == CBF || c.cfg.Order != OrderFCFS || c.stats.Canceled > 0 {
			continue
		}
		want := refEASY(h.subs[i], nodes, c.cfg.Alg == FCFS)
		for j, sub := range h.subs[i] {
			if sub.r.Start != want[j] {
				t.Fatalf("%v %s: job %d submitted at %v starts at %v, the reference starts it at %v",
					c.cfg.Alg, c.Name, sub.r.JobID, sub.r.Submit, sub.r.Start, want[j])
			}
		}
		h.n[nExactStarts] += len(want)
	}
	return h.n, k
}

// Script header bytes.
func header(alg Algorithm, order Ordering) byte { return byte(alg) + 3*byte(order) }
func clusters(k int) byte                       { return byte(k-1) << 6 }
func flag(on bool, f byte) byte                 { return f * byte(boolInt(on)) }

// randomScript is a slice's script number trial: 100 to 500 random bytes
// (deep ones scriptMax) under the header bytes hdr picks.
func randomScript(seed uint64, trial int, hdr func(trial int) (pick, flags byte)) []byte {
	r := rand.New(rand.NewPCG(uint64(trial), seed))
	pick, flags := hdr(trial)
	data := make([]byte, 100+r.IntN(400))
	if flags&scriptDeep != 0 {
		data = make([]byte, scriptMax)
	}
	for i := range data {
		data[i] = byte(r.Uint32())
	}
	data[0], data[2] = pick, flags
	return data
}

// runRandom runs trials scripts of a slice and sums what the
// single-cluster and the multi-cluster runs saw.
func runRandom(t *testing.T, seed uint64, trials int, hdr func(trial int) (pick, flags byte)) (single, multi counts) {
	for trial := 0; trial < trials; trial++ {
		if n, k := runScript(t, randomScript(seed, trial, hdr)); k == 1 {
			single.add(n)
		} else {
			multi.add(n)
		}
	}
	return single, multi
}

type floor struct {
	what      string
	got, want int
}

// assertFloors prints every floor a test holds its slice of the scripts
// to, and fails the ones the slice no longer reaches.
func assertFloors(t *testing.T, floors ...floor) {
	t.Helper()
	for _, f := range floors {
		t.Logf("%-80s %9d  (floor %d)", f.what, f.got, f.want)
		if f.got < f.want {
			t.Errorf("%s: %d, want at least %d: the scripts no longer exercise it", f.what, f.got, f.want)
		}
	}
}

// timerSeeds are the CBF unit cases of cluster_test.go in script form,
// times divided by ten: {CBF, size-2, flags}, then per submission {op,
// nodes-1, estimate-1, runtime*2 or 1 for on time}, {18, n} lets n
// seconds pass and {15, i} cancels the i-th pending request.
var timerSeeds = [][]byte{
	// TestCBFReservationAndCompression: compressed behind an early end.
	{2, 2, 0, 10, 3, 9, 8, 18, 1, 10, 3, 4, 1},
	// TestCBFBackfillsIntoHole: a narrow job fits in front of a reservation.
	{2, 2, 0, 10, 1, 9, 1, 18, 1, 0, 3, 4, 1, 10, 1, 5, 1},
	// TestCBFHoleUsableAfterCancelWithoutCompression: a newcomer takes a
	// canceled reservation's hole, the next is compressed onto its end.
	{2, 2, 0, 10, 3, 9, 1, 18, 1, 10, 3, 4, 1, 18, 1, 10, 3, 4, 1, 18, 3, 15, 0, 18, 1, 10, 3, 3, 1},
	// The same with no pass kicked by the cancel: the timer alone must
	// find the second reservation.
	{2, 2, scriptNoCancelBackfill, 10, 3, 9, 1, 18, 1, 10, 3, 4, 1, 18, 1, 10, 3, 4, 1, 18, 3, 15, 0},
	// Three reservations for one instant; the sixth job to start withdraws
	// the middle one left from inside the pass that starts it.
	{2, 2, scriptWithdraw, 10, 3, 4, 1, 10, 1, 4, 1, 10, 0, 4, 1, 10, 0, 4, 1, 10, 1, 4, 1, 10, 0, 4, 1, 10, 0, 4, 1},
	// A deep queue that compacts.
	append([]byte{2, 30, scriptDeep | scriptWithdraw | scriptCompressOnCancel}, make([]byte, 300)...),
}

// easySeeds are the FCFS and EASY unit cases of cluster_test.go in the
// same form, times divided by ten and estimates not less one; {16}
// cancels the head and {13, ...} sends copies to every cluster.
var easySeeds = [][]byte{
	// TestFCFSOrdering and TestEASYBackfill: no backfill.
	{0, 2, 0, 10, 3, 10, 1, 18, 1, 10, 0, 1, 1, 18, 1, 10, 3, 5, 1},
	{1, 2, 0, 10, 3, 10, 1, 18, 1, 10, 3, 5, 1, 18, 1, 10, 0, 1, 1},
	// TestEASYBackfillJumpsAhead and TestEASYNoDelayOfHead.
	{1, 2, 0, 10, 1, 10, 1, 18, 1, 10, 3, 5, 1, 18, 1, 10, 1, 8, 1, 18, 1, 10, 1, 12, 1},
	{1, 2, 0, 10, 1, 10, 1, 18, 1, 10, 3, 5, 1, 18, 1, 10, 1, 12, 1},
	// TestEASYEarlyCompletionTriggersBackfill.
	{1, 2, scriptPredict, 10, 3, 10, 6, 18, 1, 10, 3, 5, 1},
	// TestCancelFreesBackfillOpportunity (FCFS) and
	// TestDisableCancelBackfillAblation (EASY).
	{0, 2, 0, 10, 3, 10, 1, 18, 1, 10, 3, 5, 1, 18, 1, 10, 3, 1, 1, 16},
	{1, 2, scriptNoCancelBackfill, 10, 3, 10, 1, 18, 1, 10, 3, 5, 1, 18, 1, 10, 1, 1, 1, 16},
	// TestCBFRejectsZeroEstimate's EASY half, aged, with copies on two
	// clusters.
	{7, 2, clusters(2) | scriptWithdraw, 13, 3, 0, 0, 11, 1, 0, 0, 12, 0, 0, 0, 17},
	// TestClassOrdering's capped class, on 16 nodes with class 0 capped
	// at one: the second class-0 request is held while a class-1 one
	// starts.
	{header(EASY, OrderClass), 14, 0, 1, 10, 1, 10, 1, 0, 18, 1, 10, 1, 1, 1, 0, 18, 1, 10, 1, 1, 1, 1},
}

// cleanPassScripts is TestCleanPassMatchesFullPass's slice for alg: the
// algorithm in arrival order, a quarter of it on two or three clusters.
func cleanPassScripts(alg Algorithm) func(trial int) (byte, byte) {
	return func(trial int) (byte, byte) {
		return header(alg, OrderFCFS), flag(trial%2 == 1, scriptWithdraw) | flag(trial%4 == 0, scriptPredict) |
			flag(trial%10 == 0, scriptDeep) | clusters(1+trial%8/6*(1+trial%2))
	}
}

// TestShadowMatchesProfileOracle builds running sets no script reaches —
// tied requested ends, ends at and before now — and requires the walk to
// return the Profile oracle's shadow and leftover for every head size,
// and buildRunningProfile to equal the AddBusy-built profile.
func TestShadowMatchesProfileOracle(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 15))
		nodes := 1 + r.IntN(48)
		c := NewCluster(des.New(), "diff", 0, Config{Nodes: nodes, Alg: EASY})
		now := float64(20 + r.IntN(10))
		// Few distinct ends, some at or before now, so ties are common.
		ends, start := 1+r.IntN(6), 0.0
		for id := int64(0); c.free > 0 && r.IntN(12) != 0; id++ {
			start = min(now, start+float64(r.IntN(3)))
			end := max(start, now-2+float64(r.IntN(ends+2)))
			req := testReq(id, 1+r.IntN(c.free), 0, end-start)
			req.Start = start
			c.free -= req.Nodes
			c.insertRunning(req)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := oracleRunningProfile(c, now)
		if got := c.buildRunningProfile(now); !slices.Equal(got.times, want.times) || !slices.Equal(got.avail, want.avail) {
			t.Fatalf("trial %d: appended profile %v, AddBusy-built %v", trial, got, want)
		}
		for head := 1; head <= nodes; head++ {
			wantAt, wantSpare := oracleShadow(c, now, float64(r.IntN(8)), head)
			if gotAt, gotSpare := c.shadow(now, head); gotAt != wantAt || gotSpare != wantSpare {
				t.Fatalf("trial %d, %d-node head at %v over %v (free %d): shadow (%v, %d), oracle (%v, %d)",
					trial, head, now, want, c.free, gotAt, gotSpare, wantAt, wantSpare)
			}
		}
	}
}

// TestShadowMatchesProfileOracleInSimulation runs EASY scripts under every
// ordering and holds every blocked head's shadow to the Profile oracle.
func TestShadowMatchesProfileOracleInSimulation(t *testing.T) {
	single, multi := runRandom(t, 16, 240, func(trial int) (byte, byte) {
		return header(EASY, Ordering(trial%3)), flag(trial%4 == 0, scriptPredict) | flag(trial%2 == 1, scriptWithdraw) | clusters(1+trial%5/3)
	})
	single.add(multi)
	assertFloors(t, floor{"blocked-head states compared", single[nBlocked], 1000})
}

// TestCleanPassMatchesFullPass runs EASY and FCFS scripts in arrival
// order on one cluster and on several, and requires every pass — many of
// them clean — to start exactly what, in the order, a full pass over the
// same state starts; for a clean FCFS pass that is nothing.
func TestCleanPassMatchesFullPass(t *testing.T) {
	single, multi := runRandom(t, 20, 1200, cleanPassScripts(EASY))
	total := single
	total.add(multi)
	fcfsSingle, fcfsMulti := runRandom(t, 20, 1200, cleanPassScripts(FCFS))
	fcfs := fcfsSingle
	fcfs.add(fcfsMulti)
	assertFloors(t,
		floor{"FCFS passes compared", fcfs[nPasses], 100000},
		floor{"FCFS clean passes in single-cluster scripts", fcfsSingle[nClean], 20000},
		floor{"FCFS clean passes in multi-cluster scripts", fcfsMulti[nClean], 10000},
		floor{"passes compared", total[nPasses], 100000},
		floor{"clean passes in single-cluster scripts", single[nClean], 20000},
		floor{"clean passes in multi-cluster scripts", multi[nClean], 1000},
		floor{"starts made by clean passes", total[nCleanStarts], 2000},
		floor{"clean-pass candidates ending exactly at the shadow time", total[nCleanTies], 200},
		floor{"zero-estimate starts", total[nZeroStarts], 500},
		floor{"heads withdrawn from OnStart mid-pass", total[nHeadWithdrawn], 50},
		floor{"compactions under a remembered cursor", total[nCursorCompactions], 50},
	)
}

// TestClassHoldMatchesFullPass runs EASY scripts in class order under
// random class caps, on one cluster and on several, and requires every
// pass to start exactly what a full pass that passes over the held
// requests starts.
func TestClassHoldMatchesFullPass(t *testing.T) {
	single, multi := runRandom(t, 36, 1000, func(trial int) (byte, byte) {
		return header(EASY, OrderClass), flag(trial%2 == 1, scriptWithdraw) | flag(trial%4 == 0, scriptPredict) |
			flag(trial%10 == 0, scriptDeep) | clusters(1+trial%3)
	})
	assertFloors(t,
		floor{"class-ordered passes compared, single-cluster", single[nPasses], 15000},
		floor{"class-ordered passes compared, multi-cluster", multi[nPasses], 45000},
		floor{"passes that passed over a held request, single-cluster", single[nHeldPasses], 3000},
		floor{"passes that passed over a held request, multi-cluster", multi[nHeldPasses], 7000},
		floor{"blocked-head states compared", single[nBlocked] + multi[nBlocked], 90000},
	)
}

// TestAgainstReferenceOracle runs cancel-free FCFS and EASY scripts and
// requires every start time to equal refEASY's, with no tolerance.
func TestAgainstReferenceOracle(t *testing.T) {
	for _, alg := range []Algorithm{FCFS, EASY} {
		single, multi := runRandom(t, 99, 400, func(trial int) (byte, byte) {
			return header(alg, OrderFCFS), scriptNoCancel | flag(trial%4 == 0, scriptPredict) | flag(trial%10 == 0, scriptDeep) | clusters(1+trial%3)
		})
		single.add(multi)
		assertFloors(t, floor{fmt.Sprintf("%v start times compared exactly", alg), single[nExactStarts], 20000})
	}
}

// TestCompressionMatchesRewriteReference runs CBF scripts — the unit
// cases and random ones on one cluster and on several — and requires
// every pass to leave the cluster exactly where the remove, search,
// clamp and re-add reference with a full admit walk leaves it, and the
// timer to stand for the earliest pending reservation, to fire only when
// one is due, and to leave none overdue.
func TestCompressionMatchesRewriteReference(t *testing.T) {
	s, m := runRandom(t, 21, 4000, func(trial int) (byte, byte) {
		return header(CBF, OrderFCFS), flag(trial%2 == 1, scriptWithdraw) | flag(trial%3 == 0, scriptCompressOnCancel) |
			flag(trial%4 == 2, scriptNoCancelBackfill) | flag(trial%7 == 0, scriptDeep) | clusters(1+trial%5/2*(1+trial/5%2))
	})
	for _, seed := range timerSeeds {
		n, _ := runScript(t, seed)
		s.add(n)
	}
	assertFloors(t,
		floor{"passes whose admit resumed at the cursor, single-cluster", s[nResumed], 50000},
		floor{"passes whose admit resumed at the cursor, multi-cluster", m[nResumed], 50000},
		floor{"passes whose admit started at slot 0", s[nCBFPasses] - s[nResumed] + m[nCBFPasses] - m[nResumed], 20000},
		floor{"compressing passes in single-cluster scripts", s[nCompressing], 50000},
		floor{"compressing passes in multi-cluster scripts", m[nCompressing], 40000},
		floor{"probes in single-cluster scripts", s[nProbes], 500000},
		floor{"probes in multi-cluster scripts", m[nProbes], 200000},
		floor{"probes that moved the reservation, single-cluster", s[nMoves], 250000},
		floor{"probes that moved the reservation, multi-cluster", m[nMoves], 80000},
		floor{"probes that left the reservation where it was", s[nProbes] - s[nMoves] + m[nProbes] - m[nMoves], 350000},
		floor{"moves onto a breakpoint", s[nMovesToBreak], 250000},
		floor{"windows across a segment straddling the held start, single-cluster", s[nStraddleHeld], 8000},
		floor{"windows across a segment straddling the held start, multi-cluster", m[nStraddleHeld], 8000},
		floor{"windows across a segment straddling the held end, single-cluster", s[nStraddleEnd], 40000},
		floor{"windows across a segment straddling the held end, multi-cluster", m[nStraddleEnd], 15000},
		floor{"windows ending inside the held span, single-cluster", s[nEndsInOwn], 200000},
		floor{"windows ending inside the held span, multi-cluster", m[nEndsInOwn], 70000},
		floor{"reservations withdrawn from a start callback mid-pass", s[nWithdrawn], 1000},
		floor{"queue compactions", s[nCompactions], 300},
		floor{"timer fires in single-cluster scripts", s[nFires], 10000},
		floor{"timer fires in multi-cluster scripts", m[nFires], 10000},
		floor{"timer fires with two or more requests due", s[nFiresMulti] + m[nFiresMulti], 4000},
		floor{"instants at which two clusters' timers fired", m[nFiresTied], 1000},
		floor{"cancels between passes of the request the timer stood for, single-cluster", s[nHolderCancels], 8000},
		floor{"cancels between passes of the request the timer stood for, multi-cluster", m[nHolderCancels], 10000},
		floor{"such cancels that left no reservation", s[nHolderCancelsLast] + m[nHolderCancelsLast], 5000},
		floor{"such cancels at the instant the reservation was due", m[nHolderCancelsDue], 150},
		floor{"passes that rescanned after a start callback withdrew a request", s[nStaleRescans], 1500},
	)
}

// FuzzCluster runs the interpreter under the native fuzzer, seeded with
// the unit cases in script form and the first deep clean-pass script.
func FuzzCluster(f *testing.F) {
	for _, seed := range append(append(slices.Clone(timerSeeds), easySeeds...), randomScript(20, 0, cleanPassScripts(EASY))) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
}
