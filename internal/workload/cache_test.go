package workload

import (
	"sync"
	"sync/atomic"
	"testing"

	"redreq/internal/rng"
)

// TestStreamCacheSingleFlight hammers one key from many goroutines:
// generate must run exactly once and everyone must share its slice.
func TestStreamCacheSingleFlight(t *testing.T) {
	c := NewStreamCache()
	model := NewModel(64)
	key := StreamKey{Model: *model, Seed: 11, Horizon: 600}
	var calls atomic.Int64
	generate := func() []Job {
		calls.Add(1)
		return model.GenerateWindow(rng.New(key.Seed), key.Horizon)
	}

	const callers = 16
	streams := make([][]Job, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = c.Jobs(key, generate)
		}(i)
	}
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("generate ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if &streams[i][0] != &streams[0][0] {
			t.Fatalf("caller %d got a different backing slice", i)
		}
	}
	hit, miss := c.Stats()
	if miss != 1 || hit != callers-1 {
		t.Errorf("stats = %d hit / %d miss, want %d / 1", hit, miss, callers-1)
	}
}

// TestStreamCacheKeys checks distinct keys generate distinct streams
// and a nil cache always generates.
func TestStreamCacheKeys(t *testing.T) {
	c := NewStreamCache()
	model := NewModel(64)
	gen := func(seed uint64) func() []Job {
		return func() []Job { return model.GenerateWindow(rng.New(seed), 600) }
	}
	a := c.Jobs(StreamKey{Model: *model, Seed: 1, Horizon: 600}, gen(1))
	b := c.Jobs(StreamKey{Model: *model, Seed: 2, Horizon: 600}, gen(2))
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty generated streams")
	}
	if &a[0] == &b[0] {
		t.Error("distinct keys shared one stream")
	}
	if _, miss := c.Stats(); miss != 2 {
		t.Errorf("%d misses, want 2", miss)
	}

	var nilCache *StreamCache
	var calls int
	for i := 0; i < 2; i++ {
		nilCache.Jobs(StreamKey{Model: *model, Seed: 1, Horizon: 600}, func() []Job {
			calls++
			return nil
		})
	}
	if calls != 2 {
		t.Errorf("nil cache called generate %d times, want every call", calls)
	}
}

// TestCalibrateClampedCached pins the cached calibration to the
// direct computation bit for bit, across target loads, clamps, and
// sample counts — the guard for the draw-order lockstep between
// calTape.ensure and Model.SampleRuntime.
func TestCalibrateClampedCached(t *testing.T) {
	const seed = 0xCA11B8A7E
	cases := []struct {
		nodes              int
		load, minRt, maxRt float64
		samples            int
	}{
		{128, 0.45, 30, 36 * 3600, 20000},
		{128, 0.93, 30, 36 * 3600, 20000},
		{128, 1.15, 30, 36 * 3600, 20000},
		{128, 0.45, 0, 0, 20000},
		{64, 0.70, 60, 7200, 10000},
	}
	for _, tc := range cases {
		direct := NewModel(tc.nodes)
		if tc.minRt > 0 {
			direct.MinRuntime = tc.minRt
		}
		if tc.maxRt > 0 {
			direct.MaxRuntime = tc.maxRt
		}
		want := direct.CalibrateClamped(rng.New(seed), tc.nodes, tc.load, tc.samples)

		cached := NewModel(tc.nodes)
		if tc.minRt > 0 {
			cached.MinRuntime = tc.minRt
		}
		if tc.maxRt > 0 {
			cached.MaxRuntime = tc.maxRt
		}
		got := cached.CalibrateClampedCached(seed, tc.nodes, tc.load, tc.samples)
		if got != want {
			t.Errorf("nodes=%d load=%v clamps=[%v,%v] samples=%d: cached %v != direct %v",
				tc.nodes, tc.load, tc.minRt, tc.maxRt, tc.samples, got, want)
		}
		if cached.RuntimeScale != got {
			t.Errorf("RuntimeScale side effect %v != returned scale %v", cached.RuntimeScale, got)
		}
		// A second call replays the same tape and must agree.
		again := NewModel(tc.nodes)
		if tc.minRt > 0 {
			again.MinRuntime = tc.minRt
		}
		if tc.maxRt > 0 {
			again.MaxRuntime = tc.maxRt
		}
		if rescored := again.CalibrateClampedCached(seed, tc.nodes, tc.load, tc.samples); rescored != want {
			t.Errorf("cached recall %v != direct %v", rescored, want)
		}
	}
}
