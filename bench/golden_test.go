package main

import (
	"path/filepath"
	"slices"
	"testing"
)

// golden.json must parse and may only name workloads BENCHMARK.json
// declares and per-layer metrics it lists, or a typo would pin nothing.
func TestGoldenNamesExist(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden(filepath.Base(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if gold.Seed != defaultSeed || gold.Seconds != spec.RunSeconds {
		t.Errorf("golden.json pins seed %d at %d s; the default run is seed %d at %d s",
			gold.Seed, gold.Seconds, defaultSeed, spec.RunSeconds)
	}
	for name, counts := range gold.Workloads {
		if !spec.hasWorkload(name) {
			t.Errorf("golden.json pins counts for %q, which BENCHMARK.json does not declare", name)
		}
		if len(counts) == 0 {
			t.Errorf("golden.json pins no counts for %q", name)
		}
	}
	for name := range gold.Layers {
		if !slices.ContainsFunc(spec.PerLayer, func(m metricSpec) bool { return m.Name == name }) {
			t.Errorf("golden.json pins %q, which is not a per_layer metric of BENCHMARK.json", name)
		}
	}
	for _, name := range pinnedLayers {
		if _, ok := gold.Layers[name]; !ok {
			t.Errorf("golden.json does not pin %q", name)
		}
	}
}

// Every declared workload must be constructible, and the two lists of
// metric names the program fills by hand must match the declaration.
func TestDeclaredNamesAreImplemented(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, params{scale: 1}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	one := runResult{attempted: 1, latMS: []float64{1}, chunks: []chunk{{ok: 1, wall: 1, cpu: 1}}}
	if _, err := pairMetrics(spec.EndToEnd, endToEnd(one, 1)); err != nil {
		t.Errorf("end_to_end: %v", err)
	}
}

func TestGoldenMismatches(t *testing.T) {
	var none golden
	if got := none.mismatches(map[string]int64{"jobs": 1}); got != nil {
		t.Errorf("nil golden reports %v", got)
	}
	g := golden{"jobs": 10, "events": 20}
	if got := g.mismatches(map[string]int64{"jobs": 10, "events": 20}); got != nil {
		t.Errorf("equal counts report %v", got)
	}
	if got := g.mismatches(map[string]int64{"jobs": 10, "events": 21}); len(got) != 1 {
		t.Errorf("one differing count reports %v", got)
	}
	if got := g.mismatches(map[string]int64{"jobs": 10}); len(got) != 1 {
		t.Errorf("a missing count reports %v", got)
	}
}
