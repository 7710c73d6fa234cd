package core

import (
	"redreq/internal/des"
	"redreq/internal/sched"
)

// StepRun is Run with the event loop handed to
// the caller: loop receives the simulation, loaded with the arrival
// chains, and the clusters, and fires the events itself, so a test can
// look at the schedulers between any two of them.
func StepRun(cfg Config, loop func(sim *des.Simulation, clusters []*sched.Cluster)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	loop(e.sim, e.clusters)
	return e.collect()
}

// RunRetiring is Run that also reports how many Requests the engine
// created, as opposed to recycled from retired jobs. With poison set,
// every Request and grid job is overwritten as it retires (NaN times,
// -1 nodes, no owner, no engine), so anything that reads one after
// retirement shows in the Result or panics.
func RunRetiring(cfg Config, poison bool) (res *Result, requests int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	e.poison = poison
	e.run()
	res, err = e.collect()
	return res, e.reqs.made, err
}
