package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redreq/internal/core"
	"redreq/internal/metrics"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// The expectation file of TestTiedReservationOrder pins the outcomes
// under CBF's tie rule: reservation timers due at one instant fire in the
// order they were armed. Regenerate it only on a commit that changes that
// rule on purpose:
//
//	go test ./internal/core -run TestTiedReservationOrder -update
var update = flag.Bool("update", false, "rewrite the expectation files in testdata/")

const tieFixture = "testdata/tied_reservations.txt"

// tieCase is one configuration of the tie-hunting differential.
type tieCase struct {
	name string
	cfg  core.Config
}

// tieCases builds the differential's configurations: CBF under NONE, R2
// and ALL, exact and padded estimates, the two cancel-path ablations and
// neither, 18 seeds of each. Every arrival, runtime and estimate is a
// small integer, so reservations on different clusters fall due at the
// bit-identical instant all the time instead of never.
func tieCases() []tieCase {
	var out []tieCase
	for _, scheme := range []core.Scheme{core.SchemeNone, core.SchemeR2, core.SchemeAll} {
		for _, mode := range []workload.EstimateMode{workload.Exact, workload.Phi} {
			for _, ablation := range []string{"plain", "compress-on-cancel", "no-cancel-backfill"} {
				for seed := uint64(1); seed <= 18; seed++ {
					r := rand.New(rand.NewPCG(seed, uint64(scheme)<<8|uint64(mode)))
					k := 2 + r.IntN(3)
					nodes := 4 << r.IntN(3)
					cfg := core.Config{
						Alg:                   sched.CBF,
						Scheme:                scheme,
						RedundantFraction:     1,
						Routing:               core.RouteUniform,
						Seed:                  seed,
						Horizon:               1, // unused: the streams are explicit
						EstMode:               mode,
						CompressOnCancel:      ablation == "compress-on-cancel",
						DisableCancelBackfill: ablation == "no-cancel-backfill",
					}
					for i := 0; i < k; i++ {
						cfg.Clusters = append(cfg.Clusters, core.ClusterSpec{Nodes: nodes})
						cfg.Streams = append(cfg.Streams, tieStream(r, nodes, mode))
					}
					out = append(out, tieCase{
						name: fmt.Sprintf("%v/%v/%s/%d", scheme, mode, ablation, seed),
						cfg:  cfg,
					})
				}
			}
		}
	}
	return out
}

// tieStream draws one cluster's jobs: arrivals 0 to 2 seconds apart,
// runtimes of 1 to 8 seconds on up to the whole cluster (a load past
// saturation, so queues and reservations build up), and under Phi an
// estimate padded by 0 to 8 seconds so most jobs finish early.
func tieStream(r *rand.Rand, nodes int, mode workload.EstimateMode) []workload.Job {
	jobs := make([]workload.Job, 40+r.IntN(60))
	at := 0
	for i := range jobs {
		at += r.IntN(3)
		run := 1 + r.IntN(8)
		est := run
		if mode == workload.Phi {
			est += r.IntN(9)
		}
		jobs[i] = workload.Job{Arrival: float64(at), Nodes: 1 + r.IntN(nodes), Runtime: float64(run), Estimate: float64(est)}
	}
	return jobs
}

// tieOutcome reduces a run to one line: events, per-cluster passes, the
// digest fingerprint of its job records and a hash of every job's
// winner, start and end.
func tieOutcome(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d passes=", res.Events)
	for i, c := range res.Clusters {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, c.Stats.Passes)
	}
	dc := metrics.NewDigestCollector(0, nil)
	for i := range res.Jobs {
		dc.Observe(&res.Jobs[i])
	}
	h := sha256.New()
	d := dc.Digest()
	for _, v := range d.Fingerprint() {
		binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	fmt.Fprintf(&b, " digest=%x", h.Sum(nil)[:8])
	h.Reset()
	for i := range res.Jobs {
		j := &res.Jobs[i]
		binary.Write(h, binary.LittleEndian, []uint64{uint64(j.ID), uint64(j.Winner), math.Float64bits(j.Start), math.Float64bits(j.End)})
	}
	fmt.Fprintf(&b, " timelines=%x", h.Sum(nil)[:8])
	return b.String()
}

// TestTiedReservationOrder is the firing-order differential: whole
// core.Run simulations in which reservations on different clusters keep
// falling due at the same instant must come out exactly as pinned. Which
// of two clusters' timers fires first at a tied instant decides which
// copy of a job wins, so a changed order shows up as a changed timeline
// of a redundant scheme; NONE runs one copy per job and does not move.
func TestTiedReservationOrder(t *testing.T) {
	cases := tieCases()
	if len(cases) < 300 {
		t.Fatalf("%d configurations, want at least 300", len(cases))
	}
	got := make([]string, len(cases))
	for i, tc := range cases {
		res, err := core.Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[i] = tc.name + " " + tieOutcome(res)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(tieFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tieFixture, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(tieFixture)
	if err != nil {
		t.Fatalf("%v (pinned from the reference commit; see the comment on -update)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d configurations, the test runs %d", tieFixture, len(want), len(got))
	}
	differ := 0
	for i := range got {
		if got[i] != want[i] {
			if differ++; differ <= 10 {
				t.Errorf("outcome differs from the pinned tie rule:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d configurations differ", differ, len(got))
	}
}
