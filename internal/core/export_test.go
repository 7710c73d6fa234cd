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
	return e.finish()
}
