package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenFile is bench/golden.json: exact counts pinned so that a change
// that makes the simulator faster must leave every simulated statistic
// where it was.
type goldenFile struct {
	// Seed and Seconds say which run the workload counts were taken
	// from; they are only compared on that run.
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	// Workloads maps a workload to its counts summed over the timed
	// section.
	Workloads map[string]map[string]int64 `json:"workloads"`
	// Layers pins per-layer counts that do not depend on the seed; they
	// are compared on every run.
	Layers map[string]int64 `json:"layers"`
}

// pinnedLayers are the per-layer counts golden.json pins.
var pinnedLayers = []string{
	"experiment.sims_per_pass",
	"middleware.envelope_bytes",
	"middleware.transactions_per_op",
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func (g *goldenFile) write(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// golden is one workload's pinned counts; nil pins nothing.
type golden map[string]int64

// mismatches compares a run's exact counts with the pinned ones.
func (g golden) mismatches(got map[string]int64) []string {
	var bad []string
	for name, want := range g {
		if got[name] != want {
			bad = append(bad, fmt.Sprintf("%s = %d, golden.json pins %d", name, got[name], want))
		}
	}
	sort.Strings(bad)
	return bad
}
