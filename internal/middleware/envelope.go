// Package middleware is a real grid-middleware stack standing in for
// the Globus WS-GRAM / gSOAP measurements of Section 4.2: an XML
// (SOAP-style) message layer and an HTTP job-submission service
// layered above the pbsd batch scheduler daemon. The paper's argument
// needs two measured regimes — raw message marshalling (fast, the
// gSOAP result of [20]) and full middleware transactions with
// persistent service state (orders of magnitude slower, the WS-GRAM
// result of [23]) — from which it derives the tolerable number of
// redundant requests per job. Both regimes are measurable here.
package middleware

import (
	"encoding/xml"
	"fmt"

	"redreq/internal/pbsd"
)

// Envelope is the SOAP-style message wrapper.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Header  Header   `xml:"Header"`
	Body    Body     `xml:"Body"`
}

// envelopeName and responseName are the XMLName encoding/xml's
// decoder stores; the codec in codec.go stores the same.
var (
	envelopeName = xml.Name{Local: "Envelope"}
	responseName = xml.Name{Local: "Response"}
)

// Header carries message metadata.
type Header struct {
	MessageID string `xml:"MessageID"`
	Sender    string `xml:"Sender"`
}

// Body holds exactly one operation (a batch counts as one).
type Body struct {
	Submit      *SubmitJob   `xml:"SubmitJob,omitempty"`
	Cancel      *CancelJob   `xml:"CancelJob,omitempty"`
	Status      *JobStatus   `xml:"JobStatus,omitempty"`
	SubmitBatch *SubmitBatch `xml:"SubmitBatch,omitempty"`
	CancelBatch *CancelBatch `xml:"CancelBatch,omitempty"`
}

// SubmitJob requests execution of a job.
type SubmitJob struct {
	// OpID is the per-operation idempotency key, required inside a
	// batch (where the envelope's MessageID covers the whole batch,
	// not the individual operation); ignored for single submits.
	OpID     string  `xml:"OpID,omitempty"`
	Name     string  `xml:"Name"`
	Nodes    int     `xml:"Nodes"`
	Walltime float64 `xml:"WalltimeSeconds"`
	// Arguments model the job description payload.
	Arguments []string `xml:"Arguments>Arg"`
}

// CancelJob withdraws a pending job.
type CancelJob struct {
	// OpID is the per-operation idempotency key inside a batch;
	// ignored for single cancels.
	OpID  string `xml:"OpID,omitempty"`
	JobID int64  `xml:"JobID"`
}

// SubmitBatch carries n independent submissions in one round trip.
// The service answers with a per-operation Response.Batch in request
// order; one shed or failed entry does not fail the envelope. Each
// entry's OpID deduplicates that operation alone, so a replayed or
// partially-overlapping retry re-attempts exactly the entries that
// never landed.
type SubmitBatch struct {
	Jobs []SubmitJob `xml:"Jobs>Job"`
}

// CancelBatch withdraws n jobs in one round trip (the loser-cancel
// fan-in of a redundant submit), with the same per-operation status
// and idempotency contract as SubmitBatch.
type CancelBatch struct {
	Ops []CancelJob `xml:"Ops>Op"`
}

// JobStatus queries daemon state.
type JobStatus struct{}

// Response is the service reply.
type Response struct {
	XMLName xml.Name `xml:"Response"`
	OK      bool     `xml:"OK"`
	JobID   int64    `xml:"JobID,omitempty"`
	Error   string   `xml:"Error,omitempty"`
	Queued  int      `xml:"Queued,omitempty"`
	Running int      `xml:"Running,omitempty"`
	Free    int      `xml:"Free,omitempty"`
	// Batch holds per-operation outcomes for SubmitBatch/CancelBatch
	// envelopes, in request order.
	Batch []BatchResult `xml:"Batch>Op,omitempty"`
}

// BatchResult is one batch entry's outcome.
type BatchResult struct {
	OK    bool   `xml:"OK"`
	JobID int64  `xml:"JobID,omitempty"`
	Error string `xml:"Error,omitempty"`
	// Shed marks per-operation backpressure ("busy" for a full queue,
	// "late" for an admission-control drop) — the batch analog of the
	// single-op 503/429 statuses. Shed entries are never cached, so a
	// retried batch re-attempts them.
	Shed string `xml:"Shed,omitempty"`
}

// Validate checks that the envelope carries exactly one well-formed
// operation.
func (e *Envelope) Validate() error {
	ops := 0
	if e.Body.Submit != nil {
		ops++
		s := e.Body.Submit
		if s.Nodes < 1 {
			return fmt.Errorf("middleware: SubmitJob.Nodes %d < 1", s.Nodes)
		}
		if _, err := pbsd.Walltime(s.Walltime); err != nil {
			return fmt.Errorf("middleware: SubmitJob: %w", err)
		}
	}
	if e.Body.Cancel != nil {
		ops++
		if e.Body.Cancel.JobID < 1 {
			return fmt.Errorf("middleware: CancelJob.JobID %d < 1", e.Body.Cancel.JobID)
		}
	}
	if e.Body.Status != nil {
		ops++
	}
	if e.Body.SubmitBatch != nil {
		ops++
		if len(e.Body.SubmitBatch.Jobs) == 0 {
			return fmt.Errorf("middleware: SubmitBatch carries no operations")
		}
		for i, s := range e.Body.SubmitBatch.Jobs {
			if s.OpID == "" {
				return fmt.Errorf("middleware: SubmitBatch job %d lacks an OpID", i)
			}
			if s.Nodes < 1 {
				return fmt.Errorf("middleware: SubmitBatch job %d: Nodes %d < 1", i, s.Nodes)
			}
			if _, err := pbsd.Walltime(s.Walltime); err != nil {
				return fmt.Errorf("middleware: SubmitBatch job %d: %w", i, err)
			}
		}
	}
	if e.Body.CancelBatch != nil {
		ops++
		if len(e.Body.CancelBatch.Ops) == 0 {
			return fmt.Errorf("middleware: CancelBatch carries no operations")
		}
		for i, c := range e.Body.CancelBatch.Ops {
			if c.OpID == "" {
				return fmt.Errorf("middleware: CancelBatch op %d lacks an OpID", i)
			}
			if c.JobID < 1 {
				return fmt.Errorf("middleware: CancelBatch op %d: JobID %d < 1", i, c.JobID)
			}
		}
	}
	if ops != 1 {
		return fmt.Errorf("middleware: envelope must carry exactly one operation, has %d", ops)
	}
	return nil
}

// Triple is the record of the gSOAP benchmark of [20]: two integers
// and one double-precision number.
type Triple struct {
	A int     `xml:"a"`
	B int     `xml:"b"`
	X float64 `xml:"x"`
}

// TripleArray is the [20] benchmark payload: an array of 30,000
// Triples, over 450 KB when serialized — "many more bytes than needed
// for a batch request submission".
type TripleArray struct {
	XMLName xml.Name `xml:"TripleArray"`
	Items   []Triple `xml:"Item"`
}

// NewTripleArray builds the canonical n-element payload.
func NewTripleArray(n int) *TripleArray {
	ta := &TripleArray{Items: make([]Triple, n)}
	for i := range ta.Items {
		ta.Items[i] = Triple{A: i, B: i * 2, X: float64(i) * 0.5}
	}
	return ta
}

// MarshalTriples serializes the payload (the [20] marshalling
// direction).
func MarshalTriples(ta *TripleArray) ([]byte, error) {
	b, err := xml.Marshal(ta)
	if err != nil {
		return nil, fmt.Errorf("middleware: marshal triples: %w", err)
	}
	return b, nil
}

// UnmarshalTriples deserializes the payload (the [20] unmarshalling
// direction).
func UnmarshalTriples(b []byte) (*TripleArray, error) {
	var ta TripleArray
	if err := xml.Unmarshal(b, &ta); err != nil {
		return nil, fmt.Errorf("middleware: unmarshal triples: %w", err)
	}
	return &ta, nil
}

// RoundTripTriples is one iteration of the [20] marshalling benchmark:
// serialize the payload, parse it back, and report the serialized size.
func RoundTripTriples(ta *TripleArray) (size int, err error) {
	b, err := MarshalTriples(ta)
	if err == nil {
		_, err = UnmarshalTriples(b)
	}
	return len(b), err
}
