package sched

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"redreq/internal/des"
)

// oracleRunningProfile is what the transient EASY profile used to be:
// every running job still holding nodes after now is one AddBusy from
// now to its requested end, on a fresh Profile. Jobs are added in start
// order, not in the running set's own order.
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
// there off the oracle profile, the way passEASY used to.
func oracleShadow(c *Cluster, now, estimate float64, nodes int) (float64, int) {
	p := oracleRunningProfile(c, now)
	shadow := p.FindAnchor(now, estimate, nodes)
	return shadow, p.AvailAt(shadow) - nodes
}

// TestShadowMatchesProfileOracle builds random running sets — tied
// requested ends, ends equal to now, ends before now — and requires the
// ordered-set walk to return the Profile oracle's shadow and leftover
// for every head size, and buildRunningProfile to equal the
// AddBusy-built profile segment for segment.
func TestShadowMatchesProfileOracle(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 15))
		nodes := 1 + r.IntN(48)
		c := NewCluster(des.New(), "diff", 0, Config{Nodes: nodes, Alg: EASY})
		now := float64(20 + r.IntN(10))
		// Few distinct ends, some at or before now, so ties are common.
		ends := 1 + r.IntN(6)
		start := 0.0
		for id := int64(0); c.free > 0 && r.IntN(12) != 0; id++ {
			start += float64(r.IntN(3))
			if start > now {
				start = now
			}
			end := now - 2 + float64(r.IntN(ends+2))
			if end < start {
				end = start
			}
			req := testReq(id, 1+r.IntN(c.free), 0, end-start)
			req.Start = start
			c.free -= req.Nodes
			c.insertRunning(req)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		want := oracleRunningProfile(c, now)
		got := c.buildRunningProfile(now)
		if !slices.Equal(got.times, want.times) || !slices.Equal(got.avail, want.avail) {
			t.Fatalf("trial %d: appended profile %v, AddBusy-built %v", trial, got, want)
		}
		for head := 1; head <= nodes; head++ {
			estimate := float64(r.IntN(8))
			wantAt, wantSpare := oracleShadow(c, now, estimate, head)
			gotAt, gotSpare := c.shadow(now, head)
			if gotAt != wantAt || gotSpare != wantSpare {
				t.Fatalf("trial %d, %d-node head at %v over %v (free %d): shadow (%v, %d), oracle (%v, %d)",
					trial, head, now, want, c.free, gotAt, gotSpare, wantAt, wantSpare)
			}
		}
	}
}

// TestShadowMatchesProfileOracleInSimulation steps whole EASY
// simulations event by event on workloads with small integer times, so
// requested ends tie and zero-length jobs end at now, and whenever the
// queue head is blocked requires the ordered-set walk to equal a shadow
// recomputed from scratch through a fresh Profile.
func TestShadowMatchesProfileOracleInSimulation(t *testing.T) {
	blocked := 0
	for trial := 0; trial < 240; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 16))
		nodes := 2 + r.IntN(31)
		sim := des.New()
		c := NewCluster(sim, "diff", 0, Config{
			Nodes: nodes, Alg: EASY,
			Order:   []Ordering{OrderFCFS, OrderFCFS, OrderSJF}[trial%3],
			Predict: trial%4 == 0,
		})
		n := 20 + r.IntN(120)
		reqs := make([]*Request, n)
		arrival := 0.0
		for i := range reqs {
			arrival += float64(r.IntN(4))
			estimate := float64(r.IntN(30))
			runtime := estimate
			if r.IntN(2) == 0 {
				runtime = float64(r.IntN(int(estimate) + 1))
			}
			reqs[i] = testReq(int64(i), 1+r.IntN(nodes), runtime, estimate)
			submitAt(sim, c, arrival, reqs[i])
		}
		for i := 0; i < n/8; i++ {
			victim := reqs[r.IntN(n)]
			sim.Schedule(arrival*r.Float64(), func() {
				if victim.Cluster() == c {
					c.Cancel(victim)
				}
			})
		}
		for sim.Step() {
			if err := c.checkInvariants(); err != nil {
				t.Fatalf("trial %d t=%v: %v", trial, sim.Now(), err)
			}
			var head *Request
			if view := c.orderedPending(sim.Now()); len(view) > 0 {
				head = view[0]
			}
			if head == nil || head.Nodes <= c.free {
				continue
			}
			blocked++
			now := sim.Now()
			wantAt, wantSpare := oracleShadow(c, now, head.Estimate, head.Nodes)
			gotAt, gotSpare := c.shadow(now, head.Nodes)
			if gotAt != wantAt || gotSpare != wantSpare {
				t.Fatalf("trial %d t=%v, job %d (%d nodes) blocked with %d free: shadow (%v, %d), oracle (%v, %d) over %v",
					trial, now, head.JobID, head.Nodes, c.free, gotAt, gotSpare, wantAt, wantSpare, oracleRunningProfile(c, now))
			}
		}
	}
	if blocked < 1000 {
		t.Fatalf("only %d blocked-head states compared: the workloads no longer exercise the shadow walk", blocked)
	}
}
