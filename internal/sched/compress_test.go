package sched

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"redreq/internal/des"
	"redreq/internal/obs"
	"redreq/internal/rng"
	"redreq/internal/workload"
)

// FindAnchorLimit is FindAnchor restricted to anchors strictly before
// limit: the earliest time t in [earliest, limit) such that at least
// nodes are available throughout [t, t+duration) — the window itself may
// extend past limit — or +Inf when no such anchor exists. It is the
// search CBF compression ran, on a profile it had first taken the
// request's own allocation out of, before FindEarlierAnchor answered the
// same question on the profile as it stands; it lives on here, out of
// production, as the reference the probe is held to.
func (p *Profile) FindAnchorLimit(earliest, limit, duration float64, nodes int) float64 {
	if earliest < p.times[0] {
		earliest = p.times[0]
	}
	if earliest >= limit {
		return math.Inf(1)
	}
	n := len(p.times)
	i := p.segmentAt(earliest)
	for i < n {
		if p.avail[i] < nodes {
			i++
			continue
		}
		anchor := p.times[i]
		if anchor < earliest {
			anchor = earliest
		}
		if anchor >= limit {
			return math.Inf(1)
		}
		need := anchor + duration
		ok := true
		for j := i + 1; j < n && p.times[j] < need; j++ {
			if p.avail[j] < nodes {
				i = j + 1
				ok = false
				break
			}
		}
		if ok {
			return anchor
		}
	}
	return math.Inf(1)
}

// compressCounts is what the reference saw while compressing and what
// the checker saw of the reservation timer, so the test can require that
// the scripts reached the cases the probe has to get right without
// editing the profile and the ones the one timer per cluster has to get
// right without an event per request.
type compressCounts struct {
	passes, probes, moves int
	// Probes whose window — the one the search settled on, or the first
	// one it could try when it found none — crossed a profile segment
	// with no breakpoint at the start of the request's own allocation,
	// one with no breakpoint at its end, and probes whose window ended
	// inside the own allocation.
	straddleHeld, straddleEnd, endsInOwn int
	// Moves onto an existing breakpoint rather than onto the lower bound
	// of the search.
	movesToBreak int
	// Requests canceled from a start callback while a compression was
	// running, and queue compactions the checker saw.
	withdrawn, compactions int

	// Times a reservation timer fired, the fires that found two or more
	// requests due, and the instants at which two clusters' timers fired.
	fires, firesMulti, firesTied int
	// Cancels between passes of the request the timer stood for (each an
	// immediate rescan), the ones that left the cluster with no timer,
	// and the ones made at the very instant the reservation was due, by
	// another cluster's pass.
	holderCancels, holderCancelsLast, holderCancelsDue int
	// Passes that rescanned because a start callback withdrew a request
	// of the passing cluster.
	staleRescans int
}

func (n *compressCounts) add(m compressCounts) {
	n.passes += m.passes
	n.probes += m.probes
	n.moves += m.moves
	n.straddleHeld += m.straddleHeld
	n.straddleEnd += m.straddleEnd
	n.endsInOwn += m.endsInOwn
	n.movesToBreak += m.movesToBreak
	n.withdrawn += m.withdrawn
	n.compactions += m.compactions
	n.fires += m.fires
	n.firesMulti += m.firesMulti
	n.firesTied += m.firesTied
	n.holderCancels += m.holderCancels
	n.holderCancelsLast += m.holderCancelsLast
	n.holderCancelsDue += m.holderCancelsDue
	n.staleRescans += m.staleRescans
}

// referenceCompress is compressCBF as it was before it probed: every
// pending reservation with a non-empty search range is taken out of the
// profile, searched for with FindAnchorLimit, clamped to where it was
// and put back, moved or not. A reservation that moved takes a new
// ticket, where it used to re-arm its own timer.
func referenceCompress(c *Cluster, now float64, n *compressCounts) {
	n.passes++
	relStart, relEnd := c.relStart, c.relEnd
	c.relStart, c.relEnd = math.Inf(1), math.Inf(-1)
	for i := 0; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending || math.IsNaN(r.resStart) {
			continue
		}
		old := r.resStart
		lo := math.Min(relStart, c.relStart) - r.Estimate
		if lo < now {
			lo = now
		}
		hi := math.Max(relEnd, c.relEnd)
		if old < hi {
			hi = old
		}
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
		anchor := p.FindAnchorLimit(lo, hi, r.Estimate, r.Nodes)

		n.probes++
		window := lo + r.Estimate
		if anchor < old {
			window = anchor + r.Estimate
			n.moves++
			if anchor > lo {
				n.movesToBreak++
			}
		}
		if heldSegment < old && heldSegment < window {
			n.straddleHeld++
		}
		if endSegment < end && endSegment < window {
			n.straddleEnd++
		}
		if window > old {
			n.endsInOwn++
		}

		if anchor > old {
			anchor = old
		}
		p.AddBusy(anchor, anchor+r.Estimate, r.Nodes)
		r.resStart = anchor
		if anchor < old {
			c.noteRelease(math.Max(old, anchor+r.Estimate), old+r.Estimate)
		}
		if anchor <= now {
			c.startReserved(r, now)
		} else if anchor != old {
			r.resTicket = c.sim.Ticket()
		}
	}
}

// referencePassCBF is Cluster.pass for CBF with referenceCompress in
// compressCBF's place.
func referencePassCBF(c *Cluster, n *compressCounts) {
	now := c.sim.Now()
	c.stats.Passes++
	c.inPass = true
	c.profile.TrimBefore(now)
	if c.needCompress {
		c.needCompress = false
		referenceCompress(c, now, n)
	}
	c.admitCBF(now)
	c.inPass = false
	if c.needCompact {
		c.needCompact = false
		c.compactQueue()
	}
}

// cbfTwin is a detached copy of what a CBF cluster schedules from —
// profile, queue, reservations and the order of their tickets, the
// reservation timer, released window — on a simulation of its own, for
// the reference pass to run on.
type cbfTwin struct {
	c       *Cluster
	real    []*Request // the cluster's queued requests when the copy was taken
	copy    []*Request // copy[i] stands for real[i]
	started []*Request // copies, in the order the reference started them
}

func cloneCBF(c *Cluster, withdraw func(*Cluster, *Request)) *cbfTwin {
	sim := des.New()
	sim.RunUntil(c.sim.Now())
	tw := &cbfTwin{c: NewCluster(sim, c.Name, c.Index, c.cfg)}
	t := tw.c
	t.free, t.holes, t.queuedWork = c.free, c.holes, c.queuedWork
	t.profile = &Profile{times: slices.Clone(c.profile.times), avail: slices.Clone(c.profile.avail)}
	t.needCompress, t.relStart, t.relEnd = c.needCompress, c.relStart, c.relEnd
	t.queue = make([]*Request, len(c.queue))
	for i, r := range c.queue {
		if r == nil {
			continue
		}
		cp := *r
		cp.cluster = t
		t.queue[i] = &cp
		tw.real = append(tw.real, r)
		tw.copy = append(tw.copy, &cp)
	}
	// The copy's simulation has handed out no tickets: the reservations
	// take its first ones, in the order they hold the cluster's.
	for _, i := range ticketOrder(tw.copy) {
		tw.copy[i].resTicket = sim.Ticket()
	}
	t.armTimer(t.nextDue())
	t.OnStart = func(r *Request) {
		tw.started = append(tw.started, r)
		if withdraw != nil {
			withdraw(t, r)
		}
	}
	return tw
}

// ticketOrder returns the indices of the requests that hold a pending
// reservation, earliest ticket first.
func ticketOrder(rs []*Request) []int {
	var order []int
	for i, r := range rs {
		if r.State == Pending && !math.IsNaN(r.resStart) {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rs[a].resTicket, rs[b].resTicket) })
	return order
}

// timerHolder returns the index in rs of the request the cluster's
// reservation timer stands for, -1 when the timer is not armed.
func timerHolder(c *Cluster, rs []*Request) int {
	return slices.IndexFunc(rs, func(r *Request) bool {
		return r.State == Pending && r.resStart == c.timerAt && r.resTicket == c.timerTicket
	})
}

// sameTime reports whether two times are equal, NaN equal to NaN.
func sameTime(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// compressChecker steps a simulation of CBF clusters event by event.
// Before an event that may be a compressing pass it copies the cluster;
// when the event was one, it runs the reference pass on the copy and
// requires the cluster to have ended up where the copy did. After every
// event, and after every cancel made between passes, it holds each
// cluster's reservation timer to its invariant.
type compressChecker struct {
	t        *testing.T
	sim      *des.Simulation
	clusters []*Cluster
	started  [][]*Request // per cluster, since the last step

	// withdraw is the part of the start callback that acts on the
	// cluster the request started on; the reference pass applies it to
	// the copy.
	withdraw func(*Cluster, *Request)

	// The last timer fire, and the last instant at which two clusters'
	// timers fired.
	firedAt, tiedAt float64
	firedOn         int

	compressCounts
}

func newCompressChecker(t *testing.T, withdraw func(*Cluster, *Request), cfgs ...Config) *compressChecker {
	h := &compressChecker{t: t, sim: des.New(), withdraw: withdraw, started: make([][]*Request, len(cfgs)), firedAt: math.NaN(), tiedAt: math.NaN()}
	for i, cfg := range cfgs {
		c := NewCluster(h.sim, "diff", i, cfg)
		// A trace of its own, so the checker can tell which cluster's
		// timer fired.
		c.SetTrace(obs.New())
		c.OnStart = func(r *Request) {
			h.started[i] = append(h.started[i], r)
			if withdraw != nil {
				withdraw(c, r)
			}
			// The redundant-request protocol: the first copy to start
			// cancels its siblings on the other clusters.
			if copies, ok := r.Owner.([]*Request); ok {
				for _, s := range copies {
					if s != r && s.cluster != nil {
						h.cancel(s.cluster, s)
					}
				}
			}
		}
		h.clusters = append(h.clusters, c)
	}
	return h
}

// cancel withdraws a request between passes of its cluster — from the
// script, or from another cluster's start callback — and requires the
// reservation timer to stand for the earliest reservation left as soon as
// the call returns, not only after the pass the cancel kicks.
func (h *compressChecker) cancel(c *Cluster, r *Request) {
	holder := r.State == Pending && r.resStart == c.timerAt && r.resTicket == c.timerTicket
	due := holder && r.resStart == h.sim.Now()
	before := len(c.queue)
	c.Cancel(r)
	if len(c.queue) < before {
		h.compactions++
	}
	h.checkTimer(c)
	if holder {
		h.holderCancels++
		if c.timerEv == nil {
			h.holderCancelsLast++
		}
		if due {
			h.holderCancelsDue++
		}
	}
}

// checkTimer holds a cluster that is not inside a pass to the timer's
// invariant: it is armed for the earliest pending reservation, under the
// earliest ticket among the requests reserved for that instant, and not
// armed exactly when no request holds a reservation.
func (h *compressChecker) checkTimer(c *Cluster) {
	h.t.Helper()
	at, ticket := math.Inf(1), uint64(0)
	for _, r := range c.queue {
		if r == nil || r.State != Pending || math.IsNaN(r.resStart) {
			continue
		}
		if r.resStart < at || r.resStart == at && r.resTicket < ticket {
			at, ticket = r.resStart, r.resTicket
		}
	}
	if c.timerAt != at || c.timerTicket != ticket {
		h.t.Fatalf("t=%v %s: timer stands for the reservation at %v under ticket %d, the earliest pending one is at %v under ticket %d",
			h.sim.Now(), c.Name, c.timerAt, c.timerTicket, at, ticket)
	}
	if armed := c.timerEv != nil; armed == math.IsInf(at, 1) {
		h.t.Fatalf("t=%v %s: timer armed = %v with the earliest pending reservation at %v", h.sim.Now(), c.Name, armed, at)
	}
	if ev := c.timerEv; ev != nil && (ev.Canceled() || ev.Time != at) {
		h.t.Fatalf("t=%v %s: timer event for %v (canceled %v), the earliest pending reservation is at %v", h.sim.Now(), c.Name, ev.Time, ev.Canceled(), at)
	}
}

// due counts the cluster's pending reservations that are due by at.
func due(c *Cluster, at float64) int {
	n := 0
	for _, r := range c.queue {
		if r != nil && r.State == Pending && r.resStart <= at {
			n++
		}
	}
	return n
}

// endInstant requires that the instant the clock is about to leave has
// left no pending reservation overdue.
func (h *compressChecker) endInstant() {
	for _, c := range h.clusters {
		if n := due(c, h.sim.Now()); n > 0 {
			h.t.Fatalf("t=%v %s: the instant ends with %d pending reservations due", h.sim.Now(), c.Name, n)
		}
	}
}

// step fires one event and reports whether there was one.
func (h *compressChecker) step() bool {
	at, ok := h.sim.Peek()
	if !ok || at > h.sim.Now() {
		h.endInstant()
	}
	if !ok {
		return false
	}
	before := make([]struct {
		twin                          *cbfTwin
		passes, queued, due, canceled int
		fires                         int64
	}, len(h.clusters))
	for i, c := range h.clusters {
		h.started[i] = h.started[i][:0]
		b := &before[i]
		b.passes, b.queued, b.due, b.canceled = c.stats.Passes, len(c.queue), due(c, at), c.stats.Canceled
		b.fires = c.cTimerFires.Value()
		if c.needCompress {
			b.twin = cloneCBF(c, h.withdraw)
		}
	}
	h.sim.Step()
	fired := 0
	for i, c := range h.clusters {
		if err := c.checkInvariants(); err != nil {
			h.t.Fatalf("t=%v: %v", h.sim.Now(), err)
		}
		if err := c.profile.Validate(c.cfg.Nodes); err != nil {
			h.t.Fatalf("t=%v: %s: %v", h.sim.Now(), c.Name, err)
		}
		h.checkTimer(c)
		b := &before[i]
		if len(c.queue) < b.queued {
			h.compactions++
		}
		if c.cTimerFires.Value() != b.fires {
			if b.due == 0 {
				h.t.Fatalf("t=%v %s: the reservation timer fired with no reservation due", h.sim.Now(), c.Name)
			}
			fired++
			h.fires++
			if b.due > 1 {
				h.firesMulti++
			}
			if h.firedAt == at && h.firedOn != i && h.tiedAt != at {
				h.firesTied++
				h.tiedAt = at
			}
			h.firedAt, h.firedOn = at, i
		}
		if c.stats.Passes != b.passes && c.stats.Canceled != b.canceled {
			// Only its own start callbacks cancel on a cluster while it
			// passes.
			h.staleRescans++
		}
		if tw := b.twin; tw != nil && c.stats.Passes != b.passes {
			var n compressCounts
			referencePassCBF(tw.c, &n)
			h.compare(c, h.started[i], tw)
			n.withdrawn = tw.c.stats.Canceled
			h.add(n)
		}
	}
	if fired > 1 {
		h.t.Fatalf("t=%v: one event fired %d reservation timers", h.sim.Now(), fired)
	}
	return true
}

// compare requires the cluster, after its own pass, to match the copy
// after the reference pass.
func (h *compressChecker) compare(c *Cluster, started []*Request, tw *cbfTwin) {
	t, ref := h.t, tw.c
	t.Helper()
	at := h.sim.Now()
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
	// The timer stands for the same request at the same time, and the
	// reservations took their tickets in the same order: the reference
	// takes one where every request used to re-arm a timer of its own.
	if got, want := timerHolder(c, tw.real), timerHolder(ref, tw.copy); c.timerAt != ref.timerAt || got != want {
		t.Fatalf("t=%v %s pass %d: timer armed for %v (request %d of the queue), the reference arms %v (request %d)",
			at, c.Name, c.stats.Passes, c.timerAt, got, ref.timerAt, want)
	}
	if got, want := ticketOrder(tw.real), ticketOrder(tw.copy); !slices.Equal(got, want) {
		t.Fatalf("t=%v %s pass %d: reservations hold their tickets in the order %v, the reference's in %v", at, c.Name, c.stats.Passes, got, want)
	}
	// Element for element, which is stricter than the rendered String.
	if !slices.Equal(c.profile.times, ref.profile.times) || !slices.Equal(c.profile.avail, ref.profile.avail) {
		t.Fatalf("t=%v %s pass %d: profile\n%v\nthe reference leaves\n%v", at, c.Name, c.stats.Passes, c.profile, ref.profile)
	}
	if c.relStart != ref.relStart || c.relEnd != ref.relEnd || c.needCompress != ref.needCompress {
		t.Fatalf("t=%v %s pass %d: released window [%v, %v) compress=%v, the reference carries [%v, %v) compress=%v",
			at, c.Name, c.stats.Passes, c.relStart, c.relEnd, c.needCompress, ref.relStart, ref.relEnd, ref.needCompress)
	}
	if c.free != ref.free || len(c.queue) != len(ref.queue) || c.holes != ref.holes {
		t.Fatalf("t=%v %s pass %d: %d free, queue %d with %d holes; the reference has %d free, queue %d with %d holes",
			at, c.Name, c.stats.Passes, c.free, len(c.queue), c.holes, ref.free, len(ref.queue), ref.holes)
	}
}

func (h *compressChecker) runUntil(t float64) { stepUntil(h.sim, h.step, t) }

// submit enqueues a request from the script and notes when that compacted
// the queue.
func (h *compressChecker) submit(c *Cluster, r *Request) {
	before := len(c.queue)
	c.Submit(r)
	if len(c.queue) < before {
		h.compactions++
	}
	h.checkTimer(c)
}

// reserved returns the pending requests that hold a reservation, in
// queue order.
func reserved(c *Cluster) []*Request {
	var out []*Request
	for _, r := range c.queue {
		if r != nil && r.State == Pending && !math.IsNaN(r.resStart) {
			out = append(out, r)
		}
	}
	return out
}

// withdrawEverySixth is a start callback's same-cluster half: when a
// job whose number divides by six starts, the reservation in the middle
// of those still pending is canceled on the spot — capacity released in
// the middle of a compression, ahead of or behind the request being
// examined, and a request the pass's walk toward the next reservation
// may already have counted.
func withdrawEverySixth(c *Cluster, r *Request) {
	if r.JobID%6 != 0 {
		return
	}
	if rs := reserved(c); len(rs) > 0 {
		c.Cancel(rs[len(rs)/2])
	}
}

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

// Script header flags.
const (
	scriptWithdraw         = 1 << iota // withdrawEverySixth rides the start callback
	scriptCompressOnCancel             // Config.CompressOnCancel
	scriptNoCancelBackfill             // Config.DisableCancelBackfill
	// scriptDeep holds a deep queue behind a wide, long job and mostly
	// cancels, so the queue compacts between passes and, through the
	// start callback, during them.
	scriptDeep
)

// scriptMax bounds a script: the checker copies the cluster before every
// compressing pass, and the fuzzer grows inputs to a megabyte.
const scriptMax = 1200

// runTimerScript interprets data as a script against one CBF cluster
// under the compression and reservation-timer checks. The first byte is
// the cluster's size, the second the script flags; every operation after
// that is one byte — submit (followed by nodes, estimate and runtime),
// cancel a reserved request (followed by which), run to the next event,
// let up to three seconds pass (followed by how many), or nothing — whose
// upper part says whether the pass the operation kicked runs before the
// next operation or shares it.
func runTimerScript(t *testing.T, data []byte) compressCounts {
	s := scriptBytes(data[:min(len(data), scriptMax)])
	nodes, flags := 2+s.next()%31, s.next()
	var withdraw func(*Cluster, *Request)
	if flags&scriptWithdraw != 0 {
		withdraw = withdrawEverySixth
	}
	h := newCompressChecker(t, withdraw, Config{
		Nodes: nodes, Alg: CBF,
		CompressOnCancel:      flags&scriptCompressOnCancel != 0,
		DisableCancelBackfill: flags&scriptNoCancelBackfill != 0,
	})
	c := h.clusters[0]
	var id int64
	deep := flags&scriptDeep != 0
	if deep {
		id++
		h.submit(c, testReq(id, nodes-1, 40, 1000))
		for k := 0; k < 120; k++ {
			id++
			h.submit(c, testReq(id, 2+s.next()%(nodes-1), 5, float64(5+s.next()%8)))
		}
		h.runUntil(h.sim.Now())
	}
	for len(s) > 0 {
		now := h.sim.Now()
		op := s.next()
		switch k := op % 10; {
		case k < 4 && (!deep || k < 2):
			// Small integer times: anchors tie with breakpoints, half
			// the jobs finish early and half on time.
			id++
			n, estimate, run := 1+s.next()%nodes, float64(1+s.next()%12), s.next()
			runtime := estimate
			if run%2 == 0 {
				runtime = float64(run / 2 % int(estimate+1))
			}
			h.submit(c, testReq(id, n, runtime, estimate))
		case k < 6:
			if rs := reserved(c); len(rs) > 0 {
				h.cancel(c, rs[s.next()%len(rs)])
			}
		case k < 8:
			// The next completion (or whatever else is due first).
			if at, ok := h.sim.Peek(); ok {
				h.runUntil(at)
			}
		case k == 8:
			h.runUntil(now + float64(s.next()%4))
		}
		// Usually let the kicked pass run before the next operation;
		// sometimes let operations share a pass.
		if op/10%4 != 0 {
			h.runUntil(now)
		}
	}
	for h.step() {
	}
	return h.compressCounts
}

// timerSeeds are the CBF unit cases of cluster_test.go in script form,
// times divided by ten: {size-2, flags}, then per submission {op, nodes-1,
// estimate-1, runtime*2}, and {18, n} lets n seconds pass.
var timerSeeds = [][]byte{
	// TestCBFReservationAndCompression: a wide job requests 10 and ends
	// at 4; the one reserved behind it is compressed to 4.
	{2, 0, 10, 3, 9, 8, 18, 1, 10, 3, 4, 1},
	// TestCBFBackfillsIntoHole: a reservation at 10, and a narrow job
	// submitted with it that fits in front.
	{2, 0, 10, 1, 9, 1, 18, 1, 0, 3, 4, 1, 10, 1, 5, 1},
	// TestCBFHoleUsableAfterCancelWithoutCompression: two reservations in
	// a row, the first canceled, a newcomer takes its hole and the second
	// is compressed onto the newcomer's end.
	{2, 0, 10, 3, 9, 1, 18, 1, 10, 3, 4, 1, 18, 1, 10, 3, 4, 1, 18, 3, 14, 0, 18, 1, 10, 3, 3, 1},
	// The same with no pass kicked by the cancel: the timer alone must
	// find the second reservation after the first is withdrawn.
	{2, scriptNoCancelBackfill, 10, 3, 9, 1, 18, 1, 10, 3, 4, 1, 18, 1, 10, 3, 4, 1, 18, 3, 14, 0},
	// Three reservations for the same instant behind one job; the sixth
	// job to start withdraws the middle one of those left from inside
	// the pass that starts it.
	{2, scriptWithdraw, 10, 3, 4, 1, 10, 1, 4, 1, 10, 0, 4, 1, 10, 0, 4, 1, 10, 1, 4, 1, 10, 0, 4, 1, 10, 0, 4, 1},
	// A deep queue that compacts.
	append([]byte{30, scriptDeep | scriptWithdraw | scriptCompressOnCancel}, make([]byte, 300)...),
}

// TestCompressionMatchesRewriteReference drives random scripts against
// one CBF cluster, and then whole multi-cluster simulations under the
// redundant-request protocol, and requires every compressing pass to
// leave each request's reservation, the reservation timer, the starts
// and their order, the released window and the profile itself exactly
// where the remove, search, clamp and re-add reference leaves them — and
// the timer, after every pass and every cancel between passes, to stand
// for the earliest pending reservation, to fire only when one is due and
// to leave none overdue.
func TestCompressionMatchesRewriteReference(t *testing.T) {
	var scripted compressCounts
	for _, seed := range timerSeeds {
		scripted.add(runTimerScript(t, seed))
	}
	flag := func(on bool, f byte) byte {
		if on {
			return f
		}
		return 0
	}
	for trial := 0; trial < 2400; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 21))
		data := make([]byte, 100+r.IntN(400))
		if trial%10 == 0 {
			data = make([]byte, scriptMax)
		}
		for i := range data {
			data[i] = byte(r.Uint32())
		}
		data[1] = flag(trial%2 == 1, scriptWithdraw) | flag(trial%3 == 0, scriptCompressOnCancel) |
			flag(trial%4 == 2, scriptNoCancelBackfill) | flag(trial%10 == 0, scriptDeep)
		scripted.add(runTimerScript(t, data))
	}

	// Whole simulations: one stream per cluster, every job sent to 1, 2
	// or all clusters and its losing copies canceled from the winner's
	// start callback. The first 360 draw Lublin-Feitelson streams with
	// exact or phi estimates; the rest draw small integer times, so that
	// reservations on different clusters fall due at the same instant.
	var simulated compressCounts
	for trial := 0; trial < 540; trial++ {
		src := rng.New(uint64(trial) + 2100)
		k := 2 + trial%3
		copies := []int{1, 2, k}[trial/3%3]
		mode := []workload.EstimateMode{workload.Exact, workload.Phi}[trial/9%2]
		nodes := 8 << src.IntN(4)
		cfgs := make([]Config, k)
		for i := range cfgs {
			cfgs[i] = Config{Nodes: nodes, Alg: CBF, CompressOnCancel: trial%4 == 0, DisableCancelBackfill: trial%4 == 2}
		}
		h := newCompressChecker(t, nil, cfgs...)
		m := workload.NewModel(nodes)
		m.EstMode = mode
		m.Calibrate(src, nodes, 0.9+0.4*src.Float64(), 400)
		var id int64
		for home := range h.clusters {
			jobs := m.GenerateN(src, 40+src.IntN(60))
			if trial >= 360 {
				at := 0
				for i := range jobs {
					at += src.IntN(3)
					run := 1 + src.IntN(8)
					est := run
					if mode == workload.Phi {
						est += src.IntN(9)
					}
					jobs[i] = workload.Job{Arrival: float64(at), Nodes: 1 + src.IntN(nodes), Runtime: float64(run), Estimate: float64(est)}
				}
			}
			for _, j := range jobs {
				id++
				targets := append([]int{home}, src.SampleWithout(k, copies-1, home)...)
				reqs := make([]*Request, len(targets))
				for i := range reqs {
					reqs[i] = testReq(id, j.Nodes, j.Runtime, j.Estimate)
					reqs[i].Owner = reqs
				}
				h.sim.Schedule(j.Arrival, func() {
					for i, target := range targets {
						h.clusters[target].Submit(reqs[i])
					}
				})
			}
		}
		for h.step() {
		}
		for _, c := range h.clusters {
			if c.stats.Finished+c.stats.Canceled != c.stats.Submitted {
				t.Fatalf("simulation %d: %s finished %d and canceled %d of %d", trial, c.Name, c.stats.Finished, c.stats.Canceled, c.stats.Submitted)
			}
		}
		simulated.add(h.compressCounts)
	}

	t.Logf("scripts:     %+v", scripted)
	t.Logf("simulations: %+v", simulated)
	for _, floor := range []struct {
		what      string
		got, want int
	}{
		{"compressing passes in scripts", scripted.passes, 50000},
		{"compressing passes in simulations", simulated.passes, 40000},
		{"probes in scripts", scripted.probes, 500000},
		{"probes in simulations", simulated.probes, 200000},
		{"probes that moved the reservation, in scripts", scripted.moves, 250000},
		{"probes that moved the reservation, in simulations", simulated.moves, 80000},
		{"probes that left the reservation where it was", scripted.probes - scripted.moves + simulated.probes - simulated.moves, 350000},
		{"moves onto a breakpoint", scripted.movesToBreak, 250000},
		{"windows across a segment straddling the held start, in scripts", scripted.straddleHeld, 8000},
		{"windows across a segment straddling the held start, in simulations", simulated.straddleHeld, 8000},
		{"windows across a segment straddling the held end, in scripts", scripted.straddleEnd, 40000},
		{"windows across a segment straddling the held end, in simulations", simulated.straddleEnd, 15000},
		{"windows ending inside the held span, in scripts", scripted.endsInOwn, 200000},
		{"windows ending inside the held span, in simulations", simulated.endsInOwn, 70000},
		{"reservations withdrawn from a start callback mid-pass", scripted.withdrawn, 1000},
		{"queue compactions", scripted.compactions, 300},
		{"timer fires in scripts", scripted.fires, 10000},
		{"timer fires in simulations", simulated.fires, 10000},
		{"timer fires with two or more requests due", scripted.firesMulti + simulated.firesMulti, 4000},
		{"instants at which two clusters' timers fired", simulated.firesTied, 1000},
		{"cancels between passes of the request the timer stood for, in scripts", scripted.holderCancels, 8000},
		{"cancels between passes of the request the timer stood for, in simulations", simulated.holderCancels, 10000},
		{"such cancels that left no reservation", scripted.holderCancelsLast + simulated.holderCancelsLast, 5000},
		{"such cancels at the instant the reservation was due", simulated.holderCancelsDue, 150},
		{"passes that rescanned after a start callback withdrew a request", scripted.staleRescans, 1500},
	} {
		if floor.got < floor.want {
			t.Errorf("%s: %d, want at least %d: the scripts no longer exercise compression and the reservation timer", floor.what, floor.got, floor.want)
		}
	}
}

// FuzzReservationTimer is the script half of the same check under the
// native fuzzer.
func FuzzReservationTimer(f *testing.F) {
	for _, seed := range timerSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runTimerScript(t, data) })
}
