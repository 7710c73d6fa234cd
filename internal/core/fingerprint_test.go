package core

import (
	"encoding/hex"
	"testing"

	"redreq/internal/fault"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// pinnedFingerprintConfigs are two fixed configs whose fingerprints
// are pinned below: a small two-cluster run and a ten-cluster one
// carrying every fault-plan field, outages included.
func pinnedFingerprintConfigs() map[string]Config {
	faulty := Config{
		Alg: sched.CBF, Scheme: SchemeAll, RedundantFraction: 0.4,
		Routing: RouteLeastQueue, Seed: 20060619, Horizon: 3600,
		EstMode: workload.Phi, InflateRemote: 0.1, TargetLoad: 1.15,
		MinRuntime: 30, MaxRuntime: 36 * 3600, Predict: true,
		ControlLatency: 10, Staleness: 900, Ordering: sched.OrderSJF,
		Faults: &fault.Plan{
			Seed: 3, SubmitLoss: 0.05, CancelLoss: 0.25,
			SubmitDelayMean: 2, CancelDelayMean: 4,
			Outages: []fault.Outage{{Cluster: 1, Start: 100, End: 400}, {Cluster: 7, Start: 900, End: 1200}},
		},
	}
	for i := 0; i < 10; i++ {
		faulty.Clusters = append(faulty.Clusters, ClusterSpec{Nodes: 16 << (i % 4), MeanIAT: 2 + float64(i)})
	}
	return map[string]Config{"small": memoTestConfig(), "faulty": faulty}
}

// TestFingerprintPinned pins the hex fingerprint of two fixed configs,
// so a change to the encoding that forgets to bump fingerprintVersion
// fails here, and requires Fingerprint not to allocate.
func TestFingerprintPinned(t *testing.T) {
	want := map[string]string{
		"small":  "f79bc7d491733b8e1d9d5d79d945120430113de3a3d62b825b3c824437733ab3",
		"faulty": "31b5ee50edc362ff33c5f55689b6b1e40e1a921ca41bbe849f1e157b458c82f1",
	}
	for name, cfg := range pinnedFingerprintConfigs() {
		fp := cfg.Fingerprint()
		if got := hex.EncodeToString(fp[:]); got != want[name] {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want[name])
		}
		if n := testing.AllocsPerRun(100, func() { fp = cfg.Fingerprint() }); n != 0 {
			t.Errorf("%s: Fingerprint allocates %v times per call, want 0", name, n)
		}
	}
}
