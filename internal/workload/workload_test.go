package workload

import (
	"math"
	"testing"
	"testing/quick"

	"redreq/internal/rng"
)

func TestNewModelDefaults(t *testing.T) {
	m := NewModel(128)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.MeanInterarrival(); math.Abs(got-5.01) > 0.01 {
		t.Errorf("mean interarrival = %v, want ~5.01 (the paper's peak-hour rate)", got)
	}
	if m.UHi != 7 {
		t.Errorf("UHi = %v, want log2(128) = 7", m.UHi)
	}
}

func TestSetMeanInterarrival(t *testing.T) {
	m := NewModel(128)
	m.SetMeanInterarrival(2.0)
	if got := m.MeanInterarrival(); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("mean interarrival = %v, want 2", got)
	}
	src := rng.New(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += m.SampleInterarrival(src)
	}
	if got := sum / n; math.Abs(got-2.0) > 0.05 {
		t.Errorf("sampled mean interarrival = %v, want ~2", got)
	}
}

func TestSampleNodesRange(t *testing.T) {
	for _, maxNodes := range []int{1, 16, 128, 256} {
		m := NewModel(maxNodes)
		src := rng.New(2)
		for i := 0; i < 20000; i++ {
			n := m.SampleNodes(src)
			if n < 1 || n > maxNodes {
				t.Fatalf("maxNodes=%d: sampled %d nodes", maxNodes, n)
			}
		}
	}
}

func TestSampleNodesSerialFraction(t *testing.T) {
	m := NewModel(128)
	src := rng.New(3)
	serial := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.SampleNodes(src) == 1 {
			serial++
		}
	}
	frac := float64(serial) / n
	// At least SerialProb of jobs are serial (plus parallel jobs
	// that rounded down to one node).
	if frac < m.SerialProb-0.01 || frac > m.SerialProb+0.15 {
		t.Errorf("serial fraction = %v, SerialProb = %v", frac, m.SerialProb)
	}
}

func TestSampleNodesPowerOfTwoBias(t *testing.T) {
	m := NewModel(128)
	src := rng.New(4)
	pow2 := 0
	parallel := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := m.SampleNodes(src)
		if v == 1 {
			continue
		}
		parallel++
		if v&(v-1) == 0 {
			pow2++
		}
	}
	frac := float64(pow2) / float64(parallel)
	if frac < 0.55 {
		t.Errorf("power-of-two fraction among parallel jobs = %v, want > 0.55 (Pow2Prob=%v)", frac, m.Pow2Prob)
	}
}

func TestSampleRuntimeClamped(t *testing.T) {
	m := NewModel(128)
	m.MinRuntime = 30
	m.MaxRuntime = 7200
	src := rng.New(5)
	for i := 0; i < 50000; i++ {
		rt := m.SampleRuntime(src, 1+i%128)
		if rt < 30 || rt > 7200 {
			t.Fatalf("runtime %v outside clamp [30, 7200]", rt)
		}
	}
}

func TestRuntimeSizeDependence(t *testing.T) {
	// Larger jobs draw from the long-runtime Gamma more often
	// (p decreases with size), so their mean log-runtime is larger.
	m := NewModel(128)
	m.MaxRuntime = math.Inf(1)
	src := rng.New(6)
	meanLog := func(nodes int) float64 {
		var sum float64
		const n = 30000
		for i := 0; i < n; i++ {
			sum += math.Log(m.SampleRuntime(src, nodes))
		}
		return sum / n
	}
	small, large := meanLog(1), meanLog(128)
	if large <= small {
		t.Errorf("mean log-runtime: size 1 = %v, size 128 = %v; want increasing", small, large)
	}
}

func TestEstimateModes(t *testing.T) {
	m := NewModel(128)
	src := rng.New(7)
	m.EstMode = Exact
	if got := m.Estimate(src, 500); got != 500 {
		t.Errorf("exact estimate = %v, want 500", got)
	}
	m.EstMode = Phi
	var ratioSum float64
	const n = 100000
	for i := 0; i < n; i++ {
		est := m.Estimate(src, 500)
		if est < 500 {
			t.Fatalf("phi estimate %v below runtime", est)
		}
		if est > 500/m.PhiFactor+1e-6 {
			t.Fatalf("phi estimate %v above runtime/phi", est)
		}
		ratioSum += est / 500
	}
	// E[1/U(phi,1)] = ln(1/phi)/(1-phi) ~ 2.56 for phi = 0.1.
	want := math.Log(1/m.PhiFactor) / (1 - m.PhiFactor)
	if got := ratioSum / n; math.Abs(got-want) > 0.05 {
		t.Errorf("mean overestimation factor = %v, want ~%v", got, want)
	}
}

func TestGenerateWindow(t *testing.T) {
	m := NewModel(128)
	src := rng.New(8)
	jobs := m.GenerateWindow(src, 3600)
	if len(jobs) < 500 || len(jobs) > 900 {
		t.Fatalf("generated %d jobs in an hour at ~5s interarrival", len(jobs))
	}
	prev := 0.0
	for i, j := range jobs {
		if j.Arrival <= prev {
			t.Fatalf("job %d arrival %v not increasing", i, j.Arrival)
		}
		if j.Arrival >= 3600 {
			t.Fatalf("job %d arrives at %v beyond horizon", i, j.Arrival)
		}
		if j.Estimate < j.Runtime {
			t.Fatalf("job %d estimate %v < runtime %v", i, j.Estimate, j.Runtime)
		}
		prev = j.Arrival
	}
}

// TestGenerateWindowExactSize holds a generated stream to no spare
// capacity, the same jobs one SampleJob call after another gives, and
// allocations that grow with the stream's doublings, not its jobs.
func TestGenerateWindowExactSize(t *testing.T) {
	m := NewModel(128)
	jobs := m.GenerateWindow(rng.New(8), 3600)
	if len(jobs) != cap(jobs) {
		t.Fatalf("stream of %d jobs in %d of capacity", len(jobs), cap(jobs))
	}
	src := rng.New(8)
	n := 0
	for at := m.SampleInterarrival(src); at < 3600; at += m.SampleInterarrival(src) {
		if want := m.SampleJob(src, at); n >= len(jobs) || jobs[n] != want {
			t.Fatalf("job %d: stream has %d jobs, want %+v", n, len(jobs), want)
		}
		n++
	}
	if n != len(jobs) {
		t.Fatalf("stream has %d jobs, want %d", len(jobs), n)
	}
	// About 700 jobs: ten doublings of append's growth and the copy.
	if allocs := testing.AllocsPerRun(10, func() { m.GenerateWindow(rng.New(8), 3600) }); allocs > 16 {
		t.Errorf("GenerateWindow made %v allocations for %d jobs", allocs, len(jobs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := NewModel(128)
	a := m.GenerateWindow(rng.New(10), 600)
	b := m.GenerateWindow(rng.New(10), 600)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestCalibrateClamped(t *testing.T) {
	for _, target := range []float64{0.7, 0.93, 1.5} {
		m := NewModel(128)
		m.MinRuntime = 30
		m.MaxRuntime = 7200
		m.CalibrateClamped(rng.New(11), 128, target, 100000)
		got := m.OfferedLoad(rng.New(12), 128, 200000)
		if math.Abs(got-target) > 0.05*target {
			t.Errorf("target %v: calibrated load = %v (scale %v)", target, got, m.RuntimeScale)
		}
	}
}

func TestValidateCatchesBadModels(t *testing.T) {
	mods := []func(*Model){
		func(m *Model) { m.MaxNodes = 0 },
		func(m *Model) { m.SerialProb = 1.5 },
		func(m *Model) { m.Pow2Prob = -0.1 },
		func(m *Model) { m.UProb = 2 },
		func(m *Model) { m.AArr = 0 },
		func(m *Model) { m.A1 = -1 },
		func(m *Model) { m.RuntimeScale = 0 },
		func(m *Model) { m.MaxRuntime = m.MinRuntime - 1 },
		func(m *Model) { m.PhiFactor = 0 },
	}
	for i, mod := range mods {
		m := NewModel(128)
		mod(m)
		if err := m.Validate(); err == nil {
			t.Errorf("modification %d not caught by Validate", i)
		}
	}
}

func TestTinyClusterDegenerate(t *testing.T) {
	// A 1-node cluster must still produce valid jobs (UHi = 0 < ULow).
	m := NewModel(1)
	src := rng.New(14)
	for i := 0; i < 1000; i++ {
		j := m.SampleJob(src, float64(i))
		if j.Nodes != 1 {
			t.Fatalf("1-node cluster produced a %d-node job", j.Nodes)
		}
	}
}

// Property: every sampled job is internally consistent under random
// (valid) clamps and estimate modes.
func TestQuickJobConsistency(t *testing.T) {
	f := func(seed uint32, phi bool, minR, maxR uint16) bool {
		m := NewModel(128)
		m.MinRuntime = float64(minR%100) + 1
		m.MaxRuntime = m.MinRuntime + float64(maxR) + 1
		if phi {
			m.EstMode = Phi
		}
		src := rng.New(uint64(seed))
		for i := 0; i < 50; i++ {
			j := m.SampleJob(src, 0)
			if j.Nodes < 1 || j.Nodes > 128 {
				return false
			}
			if j.Runtime < m.MinRuntime || j.Runtime > m.MaxRuntime {
				return false
			}
			if j.Estimate < j.Runtime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
