// Snapshot: an immutable, name-sorted export of a trace's instruments,
// the interchange form consumed by internal/report for rendering trace
// reports as tables, CSV, or JSON.

package obs

// CounterSnap is one counter's exported value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's exported value and high-water mark.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// BucketSnap is one non-empty histogram bucket: Count observations at
// most Le seconds and above the next lower bucket's Le.
type BucketSnap struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistSnap is one histogram's exported summary and buckets.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// SeriesSnap is one series' retained points.
type SeriesSnap struct {
	Name   string  `json:"name"`
	Total  int64   `json:"total"`
	Points []Point `json:"points"`
}

// Snapshot is a point-in-time export of every instrument in a trace,
// each section sorted by name.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"histograms,omitempty"`
	Series   []SeriesSnap  `json:"series,omitempty"`
}

// Empty reports whether the snapshot holds no instruments.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Hists) == 0 && len(s.Series) == 0
}

// Counter returns the named counter's value (0 when absent), for tests
// and assertions on snapshots.
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Snapshot exports the trace's current state; the zero Snapshot on a
// nil receiver. It is safe to snapshot a trace that is still being
// written, though the sections are not mutually atomic.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	counters := make(map[string]*Counter, len(t.counters))
	for k, v := range t.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(t.gauges))
	for k, v := range t.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(t.hists))
	for k, v := range t.hists {
		hists[k] = v
	}
	series := make(map[string]*Series, len(t.series))
	for k, v := range t.series {
		series[k] = v
	}
	t.mu.Unlock()

	var snap Snapshot
	for _, name := range sortedKeys(counters) {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: counters[name].Value()})
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.Value(), Max: g.Max()})
	}
	for _, name := range sortedKeys(hists) {
		snap.Hists = append(snap.Hists, hists[name].snap(name))
	}
	for _, name := range sortedKeys(series) {
		s := series[name]
		snap.Series = append(snap.Series, SeriesSnap{Name: name, Total: s.Total(), Points: s.Points()})
	}
	return snap
}
