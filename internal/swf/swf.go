// Package swf reads and writes the Standard Workload Format of the
// Parallel Workloads Archive, the trace format the paper mentions as an
// alternative to the Lublin model (Section 3.1.1: "We conducted some
// simulations using real-world traces made available in the Parallel
// Workloads Archive"). Traces parsed here can be replayed through the
// same simulation path as model-generated job streams.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"redreq/internal/workload"
)

// Record is one SWF job line. Fields follow the SWF v2.2 definition;
// -1 denotes "unknown" throughout.
type Record struct {
	JobNumber    int
	SubmitTime   float64 // seconds since trace start
	WaitTime     float64
	RunTime      float64
	UsedProcs    int
	AvgCPUTime   float64
	UsedMemory   float64
	ReqProcs     int
	ReqTime      float64
	ReqMemory    float64
	Status       int
	UserID       int
	GroupID      int
	ExecutableID int
	QueueID      int
	PartitionID  int
	PrecedingJob int
	ThinkTime    float64
}

// Header carries the subset of SWF header comments we preserve.
type Header struct {
	Computer string
	MaxNodes int
	MaxProcs int
	Note     string
}

// Trace is a parsed SWF file.
type Trace struct {
	Header  Header
	Records []Record
}

// ParseError describes a malformed SWF line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("swf: line %d: %s", e.Line, e.Msg)
}

// Parse reads an SWF trace. Comment lines start with ';'; header
// comments of the form "; Key: value" populate Header for the keys we
// understand. Data lines have 18 whitespace-separated fields.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			parseHeaderComment(&tr.Header, line)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 18 {
			return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("expected 18 fields, got %d", len(fields))}
		}
		rec, err := parseRecord(fields)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		tr.Records = append(tr.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: read: %w", err)
	}
	return tr, nil
}

func parseHeaderComment(h *Header, line string) {
	body := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	key, value, ok := strings.Cut(body, ":")
	if !ok {
		return
	}
	value = strings.TrimSpace(value)
	switch strings.TrimSpace(key) {
	case "Computer":
		h.Computer = value
	case "MaxNodes":
		if n, err := strconv.Atoi(value); err == nil {
			h.MaxNodes = n
		}
	case "MaxProcs":
		if n, err := strconv.Atoi(value); err == nil {
			h.MaxProcs = n
		}
	case "Note":
		h.Note = value
	}
}

func parseRecord(f []string) (Record, error) {
	var rec Record
	ints := []struct {
		dst *int
		idx int
	}{
		{&rec.JobNumber, 0}, {&rec.UsedProcs, 4}, {&rec.ReqProcs, 7},
		{&rec.Status, 10}, {&rec.UserID, 11}, {&rec.GroupID, 12},
		{&rec.ExecutableID, 13}, {&rec.QueueID, 14}, {&rec.PartitionID, 15},
		{&rec.PrecedingJob, 16},
	}
	for _, p := range ints {
		v, err := strconv.Atoi(f[p.idx])
		if err != nil {
			return rec, fmt.Errorf("field %d: %v", p.idx+1, err)
		}
		*p.dst = v
	}
	floats := []struct {
		dst *float64
		idx int
	}{
		{&rec.SubmitTime, 1}, {&rec.WaitTime, 2}, {&rec.RunTime, 3},
		{&rec.AvgCPUTime, 5}, {&rec.UsedMemory, 6}, {&rec.ReqTime, 8},
		{&rec.ReqMemory, 9}, {&rec.ThinkTime, 17},
	}
	for _, p := range floats {
		v, err := strconv.ParseFloat(f[p.idx], 64)
		if err != nil {
			return rec, fmt.Errorf("field %d: %v", p.idx+1, err)
		}
		*p.dst = v
	}
	return rec, nil
}

// Write emits the trace in SWF format.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if tr.Header.Computer != "" {
		fmt.Fprintf(bw, "; Computer: %s\n", tr.Header.Computer)
	}
	// Every value Parse can read back is written, the -1 of an unknown
	// size included; 0 is what a trace without the header parses to.
	if tr.Header.MaxNodes != 0 {
		fmt.Fprintf(bw, "; MaxNodes: %d\n", tr.Header.MaxNodes)
	}
	if tr.Header.MaxProcs != 0 {
		fmt.Fprintf(bw, "; MaxProcs: %d\n", tr.Header.MaxProcs)
	}
	if tr.Header.Note != "" {
		fmt.Fprintf(bw, "; Note: %s\n", tr.Header.Note)
	}
	for _, r := range tr.Records {
		// Times use minimal-precision formatting: the historical %.2f
		// rounded sub-centisecond values, so a swfgen -> Parse round
		// trip was not value-faithful for model-generated arrivals.
		_, err := fmt.Fprintf(bw, "%d %s %s %s %d %s %s %d %s %s %d %d %d %d %d %d %d %s\n",
			r.JobNumber, g(r.SubmitTime), g(r.WaitTime), g(r.RunTime), r.UsedProcs,
			g(r.AvgCPUTime), g(r.UsedMemory), r.ReqProcs, g(r.ReqTime), g(r.ReqMemory),
			r.Status, r.UserID, r.GroupID, r.ExecutableID, r.QueueID,
			r.PartitionID, r.PrecedingJob, g(r.ThinkTime))
		if err != nil {
			return fmt.Errorf("swf: write: %w", err)
		}
	}
	return bw.Flush()
}

// g formats a float with the fewest digits that parse back to the same
// value, keeping written traces value-faithful under round trips.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Jobs converts the trace's records to workload jobs, skipping records
// without a positive runtime or processor count. Requested processors
// fall back to used processors, and requested time falls back to the
// actual runtime, mirroring common SWF-replay practice.
//
// Jobs are returned in nondecreasing arrival order regardless of the
// trace's record order — real PWA files commonly log records out of
// submit-time order, and replaying such a trace verbatim would feed the
// simulator non-monotone arrivals, silently corrupting queue dynamics.
// Ties on arrival keep job-number order.
func (tr *Trace) Jobs() []workload.Job {
	type numbered struct {
		job workload.Job
		num int
	}
	keep := make([]numbered, 0, len(tr.Records))
	for _, r := range tr.Records {
		nodes := r.ReqProcs
		if nodes <= 0 {
			nodes = r.UsedProcs
		}
		if nodes <= 0 || r.RunTime <= 0 {
			continue
		}
		est := r.ReqTime
		if est < r.RunTime {
			est = r.RunTime
		}
		keep = append(keep, numbered{
			job: workload.Job{
				Arrival:  r.SubmitTime,
				Nodes:    nodes,
				Runtime:  r.RunTime,
				Estimate: est,
			},
			num: r.JobNumber,
		})
	}
	sort.SliceStable(keep, func(i, j int) bool {
		if keep[i].job.Arrival != keep[j].job.Arrival {
			return keep[i].job.Arrival < keep[j].job.Arrival
		}
		return keep[i].num < keep[j].num
	})
	jobs := make([]workload.Job, len(keep))
	for i, k := range keep {
		jobs[i] = k.job
	}
	return jobs
}

// FromJobs builds an SWF trace from a job stream, for writing
// model-generated workloads to disk (cmd/swfgen).
func FromJobs(jobs []workload.Job, computer string, maxNodes int) *Trace {
	tr := &Trace{Header: Header{Computer: computer, MaxNodes: maxNodes, MaxProcs: maxNodes}}
	for i, j := range jobs {
		tr.Records = append(tr.Records, Record{
			JobNumber:    i + 1,
			SubmitTime:   j.Arrival,
			WaitTime:     -1,
			RunTime:      j.Runtime,
			UsedProcs:    j.Nodes,
			AvgCPUTime:   -1,
			UsedMemory:   -1,
			ReqProcs:     j.Nodes,
			ReqTime:      j.Estimate,
			ReqMemory:    -1,
			Status:       1,
			UserID:       -1,
			GroupID:      -1,
			ExecutableID: -1,
			QueueID:      -1,
			PartitionID:  -1,
			PrecedingJob: -1,
			ThinkTime:    -1,
		})
	}
	return tr
}
