package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"redreq/internal/core"
	"redreq/internal/experiment"
	"redreq/internal/report"
)

// registrySpecs is the pinned spec list of a pass, in registry order.
// sec4 and overload are left out because they sleep on wall-clock
// windows, validate because its analytical-twin tolerances are tuned to
// the registry's own base seed and report findings on others.
var registrySpecs = []string{"table1", "fig4", "faults", "routing", "trace"}

// registryPasses is the pinned number of timed passes.
const registryPasses = 6

// passStats is what one pass over the spec list reports.
type passStats struct {
	sims     int64
	json     []byte
	specWall time.Duration // slowest spec
	memo     core.MemoStats
}

type registryWorkload struct {
	p      params
	specs  []*experiment.Spec
	passes int

	first    []byte // rendered JSON of the last section's first pass
	differ   int    // passes whose JSON differs from it
	sims     []int64
	specWall []float64 // slowest spec per pass, ms
	last     passStats
	busy     float64 // share of the pool's cores the last section kept busy
}

func newRegistryWorkload(p params) (*registryWorkload, error) {
	w := &registryWorkload{p: p, passes: p.units(registryPasses)}
	for _, name := range registrySpecs {
		s, ok := experiment.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("registry has no experiment %q", name)
		}
		w.specs = append(w.specs, s)
	}
	return w, nil
}

// options are a pass's experiment options: quick scale, two workers,
// replication seeds derived from the run's seed.
func (w *registryWorkload) options(reps int) experiment.Options {
	opts := experiment.Quick()
	opts.Reps = reps
	opts.Workers = workers
	opts.BaseSeed = w.p.seed
	return opts
}

// pass runs the spec list once, the way one redsim process does: quick
// scale, a fresh result memo, one shared pool of two workers, every
// report rendered as JSON.
func (w *registryWorkload) pass(reps int, tr *tracer, op int) (passStats, error) {
	var ps passStats
	opts := w.options(reps)
	memo := core.NewMemo()
	opts.Cache = memo
	var sims atomic.Int64
	opts.Progress = func(int, int) { sims.Add(1) }

	var out bytes.Buffer
	start := time.Now()
	root := tr.begin("experiment.Reports", -1, op)
	err := experiment.Reports(w.specs, opts, func(i int, rep *report.Report, elapsed time.Duration) error {
		// Every spec starts when Reports does; elapsed is its own wall.
		tr.add("experiment.spec:"+rep.Name, start, elapsed, root, op)
		ps.specWall = max(ps.specWall, elapsed)
		id := tr.begin("report.WriteJSON", root, op)
		defer tr.end(id)
		return rep.WriteJSON(&out)
	})
	tr.end(root)
	if err != nil {
		return ps, err
	}
	ps.sims = sims.Load()
	ps.json = out.Bytes()
	ps.memo = memo.Stats()
	return ps, nil
}

func (w *registryWorkload) setup() error {
	_, err := w.pass(1, nil, 0)
	return err
}

func (w *registryWorkload) run(tr *tracer) (runResult, error) {
	rr := runResult{}
	w.first, w.differ, w.sims, w.specWall = nil, 0, nil, nil
	// One pass per chunk.
	err := rr.inChunks(w.passes, 1, func(i, _ int) (attempted, failed int, err error) {
		t0 := time.Now()
		ps, err := w.pass(experiment.Quick().Reps, tr, i)
		rr.latMS = append(rr.latMS, float64(time.Since(t0))/1e6)
		if err != nil {
			return 0, 0, fmt.Errorf("pass %d: %w", i, err)
		}
		attempted = int(ps.sims)
		if i == 0 {
			w.first = ps.json
		} else if !bytes.Equal(ps.json, w.first) {
			w.differ++
			failed = attempted
		}
		w.sims = append(w.sims, ps.sims)
		w.specWall = append(w.specWall, float64(ps.specWall)/1e6)
		w.last = ps
		return attempted, failed, nil
	})
	w.busy = rr.busyFrac(workers)
	return rr, err
}

func (w *registryWorkload) verify() []string {
	var bad []string
	if w.differ > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d passes rendered JSON that differs from the first pass", w.differ, w.passes))
	}
	if len(w.first) == 0 {
		bad = append(bad, "a pass rendered no JSON")
	}
	want := w.p.pins["experiment.sims_per_pass"]
	for i, n := range w.sims {
		if n != want {
			bad = append(bad, fmt.Sprintf("pass %d scheduled %d simulations, golden.json pins %d", i, n, want))
		}
	}
	return bad
}

func (w *registryWorkload) counts() map[string]int64 { return nil }

func (w *registryWorkload) layers(tr *tracer) map[string]float64 {
	m := passLayers(w.last)
	m["experiment.spec_wall_ms_max"] = median(w.specWall)
	m["experiment.pool_busy_frac"] = w.busy
	m["report.render_ms"] = median(tr.durationsMS("report.WriteJSON"))
	return m
}

// passLayers turns one pass's counters into per-layer metrics.
func passLayers(ps passStats) map[string]float64 {
	frac := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	return map[string]float64{
		"experiment.sims_per_pass":    float64(ps.sims),
		"experiment.spec_wall_ms_max": float64(ps.specWall) / 1e6,
		"core.memo_hit_frac":          frac(ps.memo.Hit+ps.memo.Inflight, ps.memo.Miss),
		"workload.stream_hit_frac":    frac(ps.memo.StreamHit, ps.memo.StreamMiss),
	}
}

func (w *registryWorkload) teardown() { w.first, w.last = nil, passStats{} }
