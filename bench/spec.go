package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the one place workload names, metric
// names, units and regression bounds are declared. The program reads it
// instead of repeating it, and refuses to report a metric set that
// differs from it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: missing run_seconds, workloads, end_to_end or per_layer", path)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported reading.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pairMetrics pairs the declared metrics with their readings. A declared
// metric without a finite reading, or a reading nobody declared, is an
// error: the output must carry exactly the declared set.
func pairMetrics(declared []metricSpec, got map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("no reading for declared metric %s", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s reads %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("reading for undeclared metric %s", name)
		}
	}
	return out, nil
}
