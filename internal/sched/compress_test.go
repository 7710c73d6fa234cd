package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"redreq/internal/des"
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

// compressCounts is what the reference saw while compressing, so the
// test can require that the scripts reached the cases the probe has to
// get right without editing the profile.
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
}

// referenceCompress is compressCBF as it was before it probed: every
// pending reservation with a non-empty search range is taken out of the
// profile, searched for with FindAnchorLimit, clamped to where it was
// and put back, moved or not.
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
			c.armTimer(r, anchor)
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
	for i := 0; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending {
			continue
		}
		if math.IsNaN(r.resStart) {
			c.reserveCBF(r, now)
		} else if r.resStart <= now {
			c.startReserved(r, now)
		}
	}
	c.inPass = false
	if c.needCompact {
		c.needCompact = false
		c.compactQueue()
	}
}

// cbfTwin is a detached copy of what a CBF cluster schedules from —
// profile, queue, reservations, armed timers, released window — on a
// simulation of its own, for the reference pass to run on.
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
		cp.cluster, cp.startEv = t, nil
		if r.startEv != nil {
			t.armTimer(&cp, r.startEv.Time)
		}
		t.queue[i] = &cp
		tw.real = append(tw.real, r)
		tw.copy = append(tw.copy, &cp)
	}
	t.OnStart = func(r *Request) {
		tw.started = append(tw.started, r)
		if withdraw != nil {
			withdraw(t, r)
		}
	}
	return tw
}

// sameTime reports whether two times are equal, NaN equal to NaN.
func sameTime(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

// compressChecker steps a simulation of CBF clusters event by event.
// Before an event that may be a compressing pass it copies the cluster;
// when the event was one, it runs the reference pass on the copy and
// requires the cluster to have ended up where the copy did.
type compressChecker struct {
	t        *testing.T
	sim      *des.Simulation
	clusters []*Cluster
	started  [][]*Request // per cluster, since the last step

	// withdraw is the part of the start callback that acts on the
	// cluster the request started on; the reference pass applies it to
	// the copy.
	withdraw func(*Cluster, *Request)

	compressCounts
}

func newCompressChecker(t *testing.T, withdraw func(*Cluster, *Request), cfgs ...Config) *compressChecker {
	h := &compressChecker{t: t, sim: des.New(), withdraw: withdraw, started: make([][]*Request, len(cfgs))}
	for i, cfg := range cfgs {
		c := NewCluster(h.sim, "diff", i, cfg)
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
						s.cluster.Cancel(s)
					}
				}
			}
		}
		h.clusters = append(h.clusters, c)
	}
	return h
}

// step fires one event and reports whether there was one.
func (h *compressChecker) step() bool {
	before := make([]struct {
		twin           *cbfTwin
		passes, queued int
	}, len(h.clusters))
	for i, c := range h.clusters {
		h.started[i] = h.started[i][:0]
		before[i].passes, before[i].queued = c.stats.Passes, len(c.queue)
		if c.needCompress {
			before[i].twin = cloneCBF(c, h.withdraw)
		}
	}
	if !h.sim.Step() {
		return false
	}
	for i, c := range h.clusters {
		if err := c.checkInvariants(); err != nil {
			h.t.Fatalf("t=%v: %v", h.sim.Now(), err)
		}
		if err := c.profile.Validate(c.cfg.Nodes); err != nil {
			h.t.Fatalf("t=%v: %s: %v", h.sim.Now(), c.Name, err)
		}
		if len(c.queue) < before[i].queued {
			h.compactions++
		}
		if tw := before[i].twin; tw != nil && c.stats.Passes != before[i].passes {
			var n compressCounts
			referencePassCBF(tw.c, &n)
			h.compare(c, h.started[i], tw)
			n.withdrawn = tw.c.stats.Canceled
			h.add(n)
		}
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
		armed, refArmed := math.NaN(), math.NaN()
		if r.startEv != nil {
			armed = r.startEv.Time
		}
		if cp.startEv != nil {
			refArmed = cp.startEv.Time
		}
		if !sameTime(armed, refArmed) {
			t.Fatalf("t=%v %s pass %d, job %d: timer armed for %v, the reference arms %v", at, c.Name, c.stats.Passes, r.JobID, armed, refArmed)
		}
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

// mutate applies a queue operation made outside a pass and notes when it
// compacted the queue.
func (h *compressChecker) mutate(c *Cluster, op func()) {
	before := len(c.queue)
	op()
	if len(c.queue) < before {
		h.compactions++
	}
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
// examined.
func withdrawEverySixth(c *Cluster, r *Request) {
	if r.JobID%6 != 0 {
		return
	}
	if rs := reserved(c); len(rs) > 0 {
		c.Cancel(rs[len(rs)/2])
	}
}

// TestCompressionMatchesRewriteReference drives random scripts against
// one CBF cluster, and then whole multi-cluster simulations under the
// redundant-request protocol, and requires every compressing pass to
// leave each request's reservation and timer, the starts and their
// order, the released window and the profile itself exactly where the
// remove, search, clamp and re-add reference leaves them.
func TestCompressionMatchesRewriteReference(t *testing.T) {
	var scripted compressCounts
	for trial := 0; trial < 2400; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 21))
		nodes := 2 + r.IntN(31)
		var withdraw func(*Cluster, *Request)
		if trial%2 == 1 {
			withdraw = withdrawEverySixth
		}
		h := newCompressChecker(t, withdraw, Config{Nodes: nodes, Alg: CBF, CompressOnCancel: trial%3 == 0})
		c := h.clusters[0]
		var id int64
		submit := func(req *Request) { h.mutate(c, func() { c.Submit(req) }) }
		ops := 30 + r.IntN(120)
		// Every tenth script holds a deep queue behind a wide, long job
		// and mostly cancels, so the queue compacts between passes and,
		// through the start callback, during them.
		deep := trial%10 == 0
		if deep {
			ops = 400
			id++
			submit(testReq(id, nodes-1, 40, 1000))
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
				// Small integer times: anchors tie with breakpoints, half
				// the jobs finish early and half on time. No estimate is
				// zero: such a request holds nodes for the rest of the
				// pass that starts it and nothing in the profile, and CBF
				// panics when the next reservation falls due in that pass.
				id++
				req := smallRequest(r, id, nodes)
				req.Estimate = max(req.Estimate, 1)
				submit(req)
			case k < 6:
				if rs := reserved(c); len(rs) > 0 {
					victim := rs[r.IntN(len(rs))]
					h.mutate(c, func() { c.Cancel(victim) })
				}
			case k < 8:
				// The next completion (or whatever else is due first).
				if at, ok := h.sim.Peek(); ok {
					h.runUntil(at)
				}
			case k == 8:
				h.runUntil(now + float64(r.IntN(4)))
			}
			// Usually let the kicked pass run before the next operation;
			// sometimes let operations share a pass.
			if r.IntN(4) != 0 {
				h.runUntil(now)
			}
		}
		for h.step() {
		}
		scripted.add(h.compressCounts)
	}

	// Whole simulations: Lublin-Feitelson streams with exact or phi
	// estimates, one per cluster, every job sent to 1, 2 or all clusters
	// and its losing copies canceled from the winner's start callback.
	var simulated compressCounts
	for trial := 0; trial < 360; trial++ {
		src := rng.New(uint64(trial) + 2100)
		k := 2 + trial%3
		copies := []int{1, 2, k}[trial/3%3]
		mode := []workload.EstimateMode{workload.Exact, workload.Phi}[trial/9%2]
		nodes := 8 << src.IntN(4)
		cfgs := make([]Config, k)
		for i := range cfgs {
			cfgs[i] = Config{Nodes: nodes, Alg: CBF, CompressOnCancel: trial%4 == 0}
		}
		h := newCompressChecker(t, nil, cfgs...)
		m := workload.NewModel(nodes)
		m.EstMode = mode
		m.Calibrate(src, nodes, 0.9+0.4*src.Float64(), 400)
		var id int64
		for home := range h.clusters {
			for _, j := range m.GenerateN(src, 40+src.IntN(60)) {
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
	} {
		if floor.got < floor.want {
			t.Errorf("%s: %d, want at least %d: the scripts no longer exercise compression", floor.what, floor.got, floor.want)
		}
	}
}
