package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected cut points are what Python 3.11 prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 3.5, 1.0, 8.0, 4.0}, 1.75, 3.5, 6},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("one value has quartiles")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{200, 95, 190},
		{199, 90, 180},
		{100, 90, 90},
		{60, 75, 45},
		{40, 75, 30},
		{39, 0, 39},
		{1, 0, 1},
	} {
		p, v := tail(seq(c.n))
		if p != c.p || v != c.v {
			t.Errorf("tail(1..%d) = p%v %v, want p%v %v", c.n, p, v, c.p, c.v)
		}
	}
	if _, v := tail(nil); !math.IsNaN(v) {
		t.Error("tail(nil) has a value")
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint", interval{0, 100}, []interval{{10, 20}, {50, 80}}, 60},
		{"overlapping callers", interval{0, 100}, []interval{{10, 60}, {40, 90}}, 20},
		{"nested child counts once", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"child sticks out", interval{10, 100}, []interval{{0, 20}, {95, 120}}, 75},
		{"unsorted", interval{0, 100}, []interval{{70, 80}, {0, 10}}, 80},
		{"fully covered", interval{0, 100}, []interval{{0, 100}}, 0},
		{"empty parent", interval{5, 5}, []interval{{0, 10}}, 0},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
