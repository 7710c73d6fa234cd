package experiment

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"redreq/internal/report"
)

// TestSection4Smoke pins the -sweep conversion (whole depths from 0 pass
// through; a fractional, negative or infinite position is rejected by
// name), then measures a
// two-point Figure 5 sweep and the middleware modes once and checks the
// rendered tables: one Figure 5 row per depth with scans/cycle pinned
// near that depth, and every bound row.
func TestSection4Smoke(t *testing.T) {
	t.Run("sweep_depths", func(t *testing.T) {
		got, err := queueDepths([]float64{0, 10000})
		if err != nil || len(got) != 2 || got[0] != 0 || got[1] != 10000 {
			t.Fatalf("queueDepths(0,10000) = %v, %v", got, err)
		}
		for _, bad := range []float64{2.5, -1, math.Inf(1)} {
			if _, err := queueDepths([]float64{1000, bad}); err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Errorf("queueDepths(1000,%v) error = %v, want one naming %v", bad, err, bad)
			}
		}
	})

	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const clients = 2
	depths := []int{0, 2000}
	res, err := section4(section4Options{
		QueueSizes: depths,
		Clients:    clients,
		Window:     150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tables := res.tables()
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2 (Figure 5, bounds)", len(tables))
	}

	t.Run("figure5_rows", func(t *testing.T) {
		checkFigure5Rows(t, tables[0], depths, clients)
	})
	t.Run("bound_rows", func(t *testing.T) {
		checkBoundRows(t, tables[1], res)
	})
}

// checkFigure5Rows checks the Figure 5 table: one row per depth with a
// positive pair rate and scans/cycle in [d, d + clients].
func checkFigure5Rows(t *testing.T, tab *report.Table, depths []int, clients int) {
	fig5 := csvRows(t, tab)
	if got, want := strings.Join(fig5[0], ","), "queue size,pairs/s,scans/cycle"; got != want {
		t.Fatalf("Figure 5 header = %q, want %q", got, want)
	}
	if len(fig5) != 1+len(depths) {
		t.Fatalf("Figure 5 rows = %d, want %d", len(fig5)-1, len(depths))
	}
	for i, d := range depths {
		row := fig5[1+i]
		if row[0] != strconv.Itoa(d) {
			t.Errorf("row %d queue size = %s, want %d", i, row[0], d)
		}
		if rate, _ := strconv.ParseFloat(row[1], 64); rate <= 0 {
			t.Errorf("depth %d: pairs/s = %s, want > 0", d, row[1])
		}
		scan, err := strconv.ParseFloat(row[2], 64)
		if err != nil || scan < float64(d) || scan > float64(d+clients) {
			t.Errorf("depth %d: scans/cycle = %s, want in [%d, %d]", d, row[2], d, d+clients)
		}
	}
}

// checkBoundRows checks the bounds table lists every metric, each rate
// and bound a positive number and the bottleneck one of the two layers.
func checkBoundRows(t *testing.T, tab *report.Table, res *section4Result) {
	bounds := csvRows(t, tab)
	var metrics []string
	for _, row := range bounds[1:] {
		metrics = append(metrics, row[0])
		if row[0] == "bottleneck" {
			continue
		}
		if v, err := strconv.ParseFloat(row[1], 64); err != nil || v <= 0 {
			t.Errorf("bound row %q = %q, want a positive number", row[0], row[1])
		}
	}
	want := []string{
		"scheduler bound (r <)",
		"raw marshalling (round-trips/s, 30k records)",
		"middleware pairs/s, in-memory",
		"middleware pairs/s, durable",
		"middleware pairs/s, durable+security",
		"middleware bound (r <)",
		"bottleneck",
	}
	if strings.Join(metrics, "|") != strings.Join(want, "|") {
		t.Errorf("bound rows = %q, want %q", metrics, want)
	}
	if res.SchedulerBound <= 0 || res.MiddlewareBound <= 0 {
		t.Errorf("bounds: %d / %d", res.SchedulerBound, res.MiddlewareBound)
	}
	if res.MarshalPerSec <= 0 {
		t.Errorf("marshal rate = %v", res.MarshalPerSec)
	}
	if res.Bottleneck != "scheduler" && res.Bottleneck != "middleware" {
		t.Errorf("bottleneck = %q", res.Bottleneck)
	}
}

// csvRows renders a table as CSV and returns its header and rows.
func csvRows(t *testing.T, tab *report.Table) [][]string {
	t.Helper()
	var b bytes.Buffer
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&b)
	r.Comment = '#'
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
