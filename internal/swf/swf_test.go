package swf

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"redreq/internal/rng"
	"redreq/internal/workload"
)

const sampleTrace = `; Computer: SDSC SP2
; MaxNodes: 128
; MaxProcs: 128
; Note: sample
1 0.00 10.00 300.00 4 -1.00 -1.00 4 600.00 -1.00 1 5 1 -1 1 -1 -1 -1.00
2 12.50 0.00 60.00 1 -1.00 -1.00 1 60.00 -1.00 1 5 1 -1 1 -1 -1 -1.00
; trailing comment
3 20.00 5.00 120.00 8 -1.00 -1.00 -1 240.00 -1.00 1 6 1 -1 1 -1 -1 -1.00
`

func TestParse(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Computer != "SDSC SP2" || tr.Header.MaxNodes != 128 {
		t.Errorf("header = %+v", tr.Header)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("parsed %d records, want 3", len(tr.Records))
	}
	r := tr.Records[0]
	if r.JobNumber != 1 || r.SubmitTime != 0 || r.RunTime != 300 || r.ReqProcs != 4 || r.ReqTime != 600 {
		t.Errorf("record 0 = %+v", r)
	}
	if tr.Records[2].ReqProcs != -1 {
		t.Errorf("record 2 ReqProcs = %d, want -1", tr.Records[2].ReqProcs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",                               // too few fields
		"a 0 0 1 1 0 0 1 1 0 1 1 1 1 1 1 1 0\n", // non-numeric int field
		"1 x 0 1 1 0 0 1 1 0 1 1 1 1 1 1 1 0\n", // non-numeric float field
	}
	for i, c := range cases {
		_, err := Parse(strings.NewReader(c))
		if err == nil {
			t.Errorf("case %d: expected parse error", i)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("case %d: error %v is not a *ParseError", i, err)
		} else if pe.Line != 1 {
			t.Errorf("case %d: error on line %d, want 1", i, pe.Line)
		}
	}
}

func TestParseEmptyAndComments(t *testing.T) {
	tr, err := Parse(strings.NewReader("; only comments\n\n; Computer: X\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 0 || tr.Header.Computer != "X" {
		t.Errorf("trace = %+v", tr)
	}
}

func TestRoundTrip(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(tr2.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(tr2.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if tr.Records[i] != tr2.Records[i] {
			t.Errorf("record %d changed: %+v vs %+v", i, tr.Records[i], tr2.Records[i])
		}
	}
	if tr2.Header != tr.Header {
		t.Errorf("header changed: %+v vs %+v", tr2.Header, tr.Header)
	}
}

func TestJobsConversion(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("converted %d jobs, want 3", len(jobs))
	}
	// Record 3 has ReqProcs -1; falls back to UsedProcs 8.
	if jobs[2].Nodes != 8 {
		t.Errorf("job 3 nodes = %d, want 8", jobs[2].Nodes)
	}
	// Estimates never fall below runtimes.
	for i, j := range jobs {
		if j.Estimate < j.Runtime {
			t.Errorf("job %d estimate %v < runtime %v", i, j.Estimate, j.Runtime)
		}
	}
}

func TestJobsSkipsInvalid(t *testing.T) {
	tr := &Trace{Records: []Record{
		{JobNumber: 1, RunTime: -1, ReqProcs: 4},                // no runtime
		{JobNumber: 2, RunTime: 100, ReqProcs: 0, UsedProcs: 0}, // no procs
		{JobNumber: 3, RunTime: 100, ReqProcs: 2, ReqTime: 50},  // ok (estimate raised)
	}}
	jobs := tr.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("kept %d jobs, want 1", len(jobs))
	}
	if jobs[0].Estimate != 100 {
		t.Errorf("estimate = %v, want raised to 100", jobs[0].Estimate)
	}
}

func TestFromJobsRoundTrip(t *testing.T) {
	m := workload.NewModel(64)
	m.MinRuntime = 30
	src := rng.New(5)
	jobs := m.GenerateWindow(src, 900)
	tr := FromJobs(jobs, "test cluster", 64)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	jobs2 := tr2.Jobs()
	if len(jobs2) != len(jobs) {
		t.Fatalf("round trip: %d vs %d jobs", len(jobs2), len(jobs))
	}
	for i := range jobs {
		// SWF stores two decimal places.
		if d := jobs[i].Arrival - jobs2[i].Arrival; d > 0.011 || d < -0.011 {
			t.Fatalf("job %d arrival drifted by %v", i, d)
		}
		if jobs[i].Nodes != jobs2[i].Nodes {
			t.Fatalf("job %d nodes changed", i)
		}
	}
}

func TestLongLineRejected(t *testing.T) {
	line := strings.Repeat("1 ", 17) + "1 1" // 19 fields
	if _, err := Parse(strings.NewReader(line + "\n")); err == nil {
		t.Error("expected error for 19-field line")
	}
}

// Property: FromJobs -> Write -> Parse -> Jobs preserves node counts
// and (rounded) runtimes for arbitrary valid jobs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		jobs := make([]workload.Job, 0, len(raw))
		tArr := 0.0
		for _, v := range raw {
			tArr += float64(v%50) + 0.25
			rt := float64(v%1000) + 1
			jobs = append(jobs, workload.Job{
				Arrival: tArr, Nodes: int(v%32) + 1,
				Runtime: rt, Estimate: rt * 2,
			})
		}
		tr := FromJobs(jobs, "q", 32)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		tr2, err := Parse(&buf)
		if err != nil {
			return false
		}
		out := tr2.Jobs()
		if len(out) != len(jobs) {
			return false
		}
		for i := range jobs {
			if out[i].Nodes != jobs[i].Nodes {
				return false
			}
			if d := out[i].Runtime - jobs[i].Runtime; d > 0.011 || d < -0.011 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestJobsOutOfOrderSubmit replays a trace whose records are logged out
// of submit-time order — common in real PWA files, where job numbers
// follow completion or accounting order — and checks Jobs() returns a
// nondecreasing arrival sequence with ties broken by job number.
// Feeding the raw record order to the simulator would schedule
// non-monotone arrivals and silently corrupt queue dynamics.
func TestJobsOutOfOrderSubmit(t *testing.T) {
	const outOfOrder = `; Computer: disordered
4 30.5 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1
1 12.25 0 10 2 -1 -1 2 10 -1 1 1 1 -1 1 -1 -1 -1
3 12.25 0 10 4 -1 -1 4 10 -1 1 1 1 -1 1 -1 -1 -1
2 0.5 0 10 8 -1 -1 8 10 -1 1 1 1 -1 1 -1 -1 -1
`
	tr, err := Parse(strings.NewReader(outOfOrder))
	if err != nil {
		t.Fatal(err)
	}
	jobs := tr.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(jobs))
	}
	wantArrivals := []float64{0.5, 12.25, 12.25, 30.5}
	wantNodes := []int{8, 2, 4, 1} // job 1 before job 3 on the 12.25 tie
	for i := range jobs {
		if jobs[i].Arrival != wantArrivals[i] || jobs[i].Nodes != wantNodes[i] {
			t.Errorf("job %d = {arrival %v nodes %d}, want {%v %d}",
				i, jobs[i].Arrival, jobs[i].Nodes, wantArrivals[i], wantNodes[i])
		}
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, jobs[i].Arrival, jobs[i-1].Arrival)
		}
	}
}

// TestWriteRoundTripExact pins value-faithful writing: FromJobs ->
// Write -> Parse -> Jobs must reproduce every float bit-for-bit, even
// for sub-centisecond arrivals the old %.2f formatting rounded away.
func TestWriteRoundTripExact(t *testing.T) {
	m := workload.NewModel(64)
	src := rng.New(11)
	jobs := m.GenerateWindow(src, 600)
	// Splice in adversarial sub-centisecond values (past the last
	// arrival, so the Jobs() sort keeps input positions).
	last := jobs[len(jobs)-1].Arrival
	jobs = append(jobs, workload.Job{Arrival: last + 0.001220703125, Nodes: 3, Runtime: 1.0000000001, Estimate: 2.5e-3 + 4})
	tr := FromJobs(jobs, "exact", 64)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	jobs2 := tr2.Jobs()
	if len(jobs2) != len(jobs) {
		t.Fatalf("round trip: %d vs %d jobs", len(jobs2), len(jobs))
	}
	// FromJobs preserves input order and GenerateWindow emits monotone
	// arrivals, so positions line up after the Jobs() sort.
	for i := range jobs {
		if jobs2[i] != jobs[i] {
			t.Fatalf("job %d changed: %+v vs %+v", i, jobs2[i], jobs[i])
		}
	}
}
