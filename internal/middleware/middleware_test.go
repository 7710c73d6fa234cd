package middleware

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"redreq/internal/loadgen"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{
		Header: Header{MessageID: "m-1", Sender: "alice"},
		Body: Body{Submit: &SubmitJob{
			Name: "render", Nodes: 8, Walltime: 3600,
			Arguments: []string{"--scene", "castle.xml"},
		}},
	}
	raw, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != env.Header {
		t.Errorf("header changed: %+v", got.Header)
	}
	s := got.Body.Submit
	if s == nil || s.Name != "render" || s.Nodes != 8 || s.Walltime != 3600 {
		t.Errorf("submit changed: %+v", s)
	}
	if len(s.Arguments) != 2 || s.Arguments[1] != "castle.xml" {
		t.Errorf("arguments changed: %v", s.Arguments)
	}
}

func TestEnvelopeValidation(t *testing.T) {
	cases := []struct {
		name string
		body Body
	}{
		{"empty", Body{}},
		{"two ops", Body{Submit: &SubmitJob{Nodes: 1, Walltime: 1}, Cancel: &CancelJob{JobID: 1}}},
		{"bad nodes", Body{Submit: &SubmitJob{Nodes: 0, Walltime: 1}}},
		{"bad walltime", Body{Submit: &SubmitJob{Nodes: 1, Walltime: 0}}},
		{"NaN walltime", Body{Submit: &SubmitJob{Nodes: 1, Walltime: math.NaN()}}},
		{"Inf walltime", Body{Submit: &SubmitJob{Nodes: 1, Walltime: math.Inf(1)}}},
		{"walltime past Duration", Body{Submit: &SubmitJob{Nodes: 1, Walltime: 1e10}}},
		{"batch NaN walltime", Body{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{{OpID: "o", Nodes: 1, Walltime: math.NaN()}}}}},
		{"batch Inf walltime", Body{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{{OpID: "o", Nodes: 1, Walltime: math.Inf(1)}}}}},
		{"batch walltime past Duration", Body{SubmitBatch: &SubmitBatch{Jobs: []SubmitJob{{OpID: "o", Nodes: 1, Walltime: 1e10}}}}},
		{"bad jobid", Body{Cancel: &CancelJob{JobID: 0}}},
	}
	for _, c := range cases {
		env := &Envelope{Body: c.body}
		if err := env.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, s := range []string{"", "not xml", "<Envelope><unclosed>"} {
		if _, err := Unmarshal(strings.NewReader(s)); err == nil {
			t.Errorf("Unmarshal(%q) succeeded", s)
		}
	}
}

func TestTripleArray(t *testing.T) {
	ta := NewTripleArray(1000)
	raw, err := MarshalTriples(ta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTriples(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != 1000 {
		t.Fatalf("round trip kept %d items", len(got.Items))
	}
	for i, item := range got.Items {
		if item.A != i || item.B != i*2 || item.X != float64(i)*0.5 {
			t.Fatalf("item %d = %+v", i, item)
		}
	}
}

func TestTripleArrayPayloadSize(t *testing.T) {
	raw, err := MarshalTriples(NewTripleArray(30000))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 450*1024 {
		t.Errorf("payload %d bytes, want > 450 KB (the [20] benchmark size)", len(raw))
	}
}

func newTestEndpoint(t *testing.T, durable, security bool) (*Endpoint, *pbsd.Server) {
	t.Helper()
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServiceConfig{Durable: durable, Security: security, Backend: backend}
	if durable {
		cfg.StateDir = t.TempDir()
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ep.Close()
		svc.Close()
		backend.Close()
	})
	return ep, backend
}

func TestServiceSubmitCancel(t *testing.T) {
	ep, backend := newTestEndpoint(t, false, false)
	c := NewClient(ep.URL, "tester")
	id, err := c.Submit("job-1", 4, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if q, _, _ := backend.Stat(); q != 1 {
		t.Errorf("backend queue = %d", q)
	}
	q, r, free, err := c.Stat()
	if err != nil || q != 1 || r != 0 || free != 16 {
		t.Errorf("Stat = %d/%d/%d, %v", q, r, free, err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err == nil {
		t.Error("double cancel succeeded")
	}
}

// TestServiceTrace verifies the SOAP-envelope path populates per-op
// latency histograms and counts failed transactions.
func TestServiceTrace(t *testing.T) {
	tr := obs.New()
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Backend: backend, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ep.Close()
		svc.Close()
		backend.Close()
	})
	c := NewClient(ep.URL, "trace-tester")
	id, err := c.Submit("traced", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err == nil { // fails: already canceled
		t.Fatal("double cancel succeeded")
	}
	// Malformed envelope straight over HTTP.
	resp, err := http.Post(ep.URL+"/gram", "text/xml", strings.NewReader("not xml"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if n := tr.Histogram("gram.latency.submit").Count(); n != 1 {
		t.Errorf("gram.latency.submit count = %d, want 1", n)
	}
	if n := tr.Histogram("gram.latency.cancel").Count(); n != 2 {
		t.Errorf("gram.latency.cancel count = %d, want 2", n)
	}
	if n := tr.Histogram("gram.latency.status").Count(); n != 1 {
		t.Errorf("gram.latency.status count = %d, want 1", n)
	}
	if h := tr.Histogram("gram.latency.submit"); !(h.Mean() > 0) {
		t.Errorf("submit latency mean = %v, want > 0", h.Mean())
	}
	// One failed cancel + one unmarshal failure.
	if got := tr.Snapshot().Counter("gram.errors"); got != 2 {
		t.Errorf("gram.errors = %d, want 2", got)
	}
}

func TestServiceDurableMode(t *testing.T) {
	ep, _ := newTestEndpoint(t, true, false)
	c := NewClient(ep.URL, "tester")
	id, err := c.Submit("durable-job", 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSecurityMode(t *testing.T) {
	ep, _ := newTestEndpoint(t, true, true)
	c := NewClient(ep.URL, "tester")
	id, err := c.Submit("secure-job", 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	ep, _ := newTestEndpoint(t, false, false)
	c := NewClient(ep.URL, "tester")
	if _, err := c.Submit("too-big", 64, time.Hour); err == nil {
		t.Error("oversized job accepted")
	}
	if err := c.Cancel(424242); err == nil {
		t.Error("cancel of unknown job succeeded")
	}

	// Malformed XML gets an error response, not a hang or crash.
	resp, err := http.Post(ep.URL+"/gram", "text/xml", strings.NewReader("<nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	// GET is rejected.
	resp, err = http.Get(ep.URL + "/gram")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestServiceConfigValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{}); err == nil {
		t.Error("nil backend accepted")
	}
	backend, _ := pbsd.New(pbsd.Config{Nodes: 4})
	defer backend.Close()
	if _, err := NewService(ServiceConfig{Durable: true, Backend: backend}); err == nil {
		t.Error("durable without StateDir accepted")
	}
}

func TestTransactionsCounter(t *testing.T) {
	backend, _ := pbsd.New(pbsd.Config{Nodes: 4})
	defer backend.Close()
	svc, err := NewService(ServiceConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	c := NewClient(ep.URL, "t")
	id, err := c.Submit("x", 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if got := svc.Transactions(); got != 2 {
		t.Errorf("Transactions = %d, want 2", got)
	}
}

// A closed loop of Pair calls through a live endpoint completes pairs
// at a positive rate and cancels everything it submitted — the Section
// 4.2 measurement.
func TestClosedLoopPairRateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	ep, backend := newTestEndpoint(t, false, false)
	cl := NewClient(ep.URL, "bench")
	res, err := loadgen.Ceiling(context.Background(), 2, 150*time.Millisecond, cl.Pair)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK < 1 || res.Goodput <= 0 {
		t.Errorf("rate result = %+v", res)
	}
	if queued, _, _ := backend.Stat(); queued != 0 {
		t.Errorf("%d jobs left queued after %d pairs, want every submit canceled", queued, res.OK)
	}
}

// Property: any valid submit envelope round-trips through XML intact.
func TestQuickEnvelopeRoundTrip(t *testing.T) {
	f := func(nodes uint8, wall uint16, name string) bool {
		env := &Envelope{
			Header: Header{MessageID: "q", Sender: "quick"},
			Body: Body{Submit: &SubmitJob{
				Name:     strings.ToValidUTF8(name, ""),
				Nodes:    int(nodes%64) + 1,
				Walltime: float64(wall) + 1,
			}},
		}
		raw, err := Marshal(env)
		if err != nil {
			return false
		}
		got, err := Unmarshal(bytes.NewReader(raw))
		if err != nil {
			return false
		}
		return got.Body.Submit.Nodes == env.Body.Submit.Nodes &&
			got.Body.Submit.Walltime == env.Body.Submit.Walltime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
