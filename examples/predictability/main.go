// Predictability: queue-waiting-time prediction with and without
// redundant requests (Section 5). The example runs two simulations on
// 10 CBF clusters with phi-model (overestimated) runtime requests,
// recording at each submission the wait the scheduler would promise —
// the CBF reservation; for redundant jobs, the minimum over all
// copies. It then reports how far predictions overshoot effective
// waits for each job class.
package main

import (
	"fmt"
	"log"

	"redreq/internal/core"
	"redreq/internal/metrics"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

func main() {
	base := core.Config{
		Clusters:   make([]core.ClusterSpec, 10),
		Alg:        sched.CBF,
		Routing:    core.RouteUniform,
		Seed:       11,
		Horizon:    2 * 3600,
		EstMode:    workload.Phi, // requests overestimate runtimes ~2x
		TargetLoad: 1.15,         // contended regime: waits long enough to predict
		MinRuntime: 30,
		MaxRuntime: 36 * 3600,
		Predict:    true,
	}
	for i := range base.Clusters {
		base.Clusters[i] = core.ClusterSpec{Nodes: 128}
	}

	show := func(label string, res *core.Result, f metrics.Filter) {
		ps := metrics.Predictions(res, f, 1.0)
		fmt.Printf("%-28s predicted/effective wait: avg %6.2f  CV %4.0f%%  (n=%d)\n",
			label, ps.Avg, ps.CV, ps.N)
	}

	noRed, err := core.Run(base)
	if err != nil {
		log.Fatalf("predictability: %v", err)
	}
	fmt.Println("Queue waiting time over-prediction, 10 CBF clusters, phi-model requests:")
	show("0% redundant jobs:", noRed, nil)

	mixed := base
	mixed.Scheme = core.SchemeAll
	mixed.RedundantFraction = 0.4
	res, err := core.Run(mixed)
	if err != nil {
		log.Fatalf("predictability: %v", err)
	}
	show("40% ALL — n-r jobs:", res, metrics.NonRedundantOnly)
	show("40% ALL — r jobs:", res, metrics.RedundantOnly)
	fmt.Println("Redundant-request churn inflates everyone's over-prediction;")
	fmt.Println("jobs not using redundancy are penalized the most.")
}
