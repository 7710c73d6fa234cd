// Spec for the routing-axis study: with routing, redundancy, and queue
// ordering split into orthogonal policy axes, does informed routing at
// honest (staleness-bounded) information cost buy what redundancy buys?
// The paper's Section 3.3 frames metascheduler-style informed placement
// as the alternative to redundant submission; this experiment prices
// both on the same grid information service.

package experiment

import (
	"fmt"

	"redreq/internal/core"
	"redreq/internal/metrics"
	"redreq/internal/report"
	"redreq/internal/sched"
)

// routingN is the platform size and routingLatency the control latency
// of the routing study: latency is what makes information stale, so
// unlike most specs this one pins it on.
const (
	routingN       = 8
	routingLatency = 60
)

// routingSchemes are the redundancy levels each routing policy is
// crossed with.
var routingSchemes = []struct {
	name   string
	scheme core.Scheme
}{
	{"R2", core.SchemeR2},
	{"R3", core.SchemeR3},
	{"ALL", core.SchemeAll},
}

// routingRows are the routing-policy × staleness rows of the study.
// Staleness 60 equals the control latency (the default interval: the
// freshest information the platform can honestly deliver); 900 models
// a coarse 15-minute load reporter.
var routingRows = []struct {
	name      string
	pol       core.Routing
	staleness float64
}{
	{"uniform", core.RouteUniform, routingLatency},
	{"queuelen, 60s stale", core.RouteLeastQueue, routingLatency},
	{"queuelen, 900s stale", core.RouteLeastQueue, 900},
	{"leastwork, 60s stale", core.RouteLeastWork, routingLatency},
	{"leastwork, 900s stale", core.RouteLeastWork, 900},
	{"po2, 60s stale", core.RoutePowerTwo, routingLatency},
	{"po2, 900s stale", core.RoutePowerTwo, 900},
}

// routingOrderings are the queue-ordering rows of the companion table,
// each crossed with routingOrderSchemes.
var routingOrderings = []struct {
	name  string
	order sched.Ordering
}{
	{"SJF", sched.OrderSJF},
	{"aged", sched.OrderAged},
}

var routingOrderSchemes = []core.Scheme{core.SchemeNone, core.SchemeR2}

// routingGroups builds the matrix: against the NONE/uniform/FCFS
// baseline, routing policy × staleness × scheme, then ordering ×
// {NONE, R2}.
func routingGroups(opts Options) []compared {
	base := opts.base(routingN)
	base.ControlLatency = routingLatency
	g := compared{base: variant{Name: "NONE/uniform/fcfs", Config: base}}
	for _, row := range routingRows {
		for _, sc := range routingSchemes {
			cfg := base
			cfg.Routing = row.pol
			cfg.Staleness = row.staleness
			cfg.Scheme = sc.scheme
			g.cells = append(g.cells, variant{
				Name:   fmt.Sprintf("%s/%s", sc.name, row.name),
				Config: cfg,
			})
		}
	}
	for _, od := range routingOrderings {
		for _, scheme := range routingOrderSchemes {
			cfg := base
			cfg.Ordering = od.order
			cfg.Scheme = scheme
			g.cells = append(g.cells, variant{
				Name:   fmt.Sprintf("%v/uniform/%s", scheme, od.name),
				Config: cfg,
			})
		}
	}
	return []compared{g}
}

// routingReduce relativizes every cell against the NONE/uniform/FCFS
// baseline (paired seeds: identical job streams).
func routingReduce(opts Options, res [][]runSummary) ([]*report.Table, error) {
	gs, err := relativize(routingGroups(opts), res)
	if err != nil {
		return nil, err
	}
	row := func(name string, rels []metrics.Relative) []any {
		cells := []any{name}
		for _, rel := range rels {
			cells = append(cells, report.F(rel.AvgStretch, 2))
		}
		return cells
	}
	policies := len(routingRows) * len(routingSchemes)

	t1 := report.NewTable(
		fmt.Sprintf("Routing × redundancy at equal information cost (N=%d, EASY, latency %ds): avg stretch relative to NONE", routingN, routingLatency),
		"routing policy", "R2", "R3", "ALL")
	for i, rels := range rows(gs[0].rel[:policies], len(routingSchemes)) {
		t1.AddRow(row(routingRows[i].name, rels)...)
	}

	t2 := report.NewTable(
		fmt.Sprintf("Queue ordering under redundancy (N=%d, EASY, uniform routing): avg stretch relative to NONE/FCFS", routingN),
		"ordering", "NONE", "R2")
	for i, rels := range rows(gs[0].rel[policies:], len(routingOrderSchemes)) {
		t2.AddRow(row(routingOrderings[i].name, rels)...)
	}
	return []*report.Table{t1, t2}, nil
}

var routingSpec = &Spec{
	Name:  "routing",
	Title: "Routing, redundancy, and ordering as orthogonal axes over the grid information service",
	Desc:  "informed routing (queuelen/leastwork/po2) × redundancy × snapshot staleness, plus SJF/aged queue orderings",
	Params: fmt.Sprintf("N=%d, latency=%ds, staleness={%d,900}s, schemes=R2,R3,ALL",
		routingN, routingLatency, routingLatency),
	Variants: func(opts Options) []variant { return groupVariants(routingGroups(opts)) },
	Reduce:   routingReduce,
}
