// Tests of the service's request path around the codec: the body
// bound, the replay cache's FIFO ring, and the durable state record
// computed from the bytes received.

package middleware

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"redreq/internal/pbsd"
)

// A body over maxEnvelopeBytes is answered 413 and enqueues nothing,
// whether or not the sender declared its length; an envelope of
// exactly the bound is served (and its retry replayed).
func TestServiceRejectsOversizeBody(t *testing.T) {
	ep, backend := newTestEndpoint(t, false, false)
	envelope := func(nameLen int) []byte {
		raw, err := Marshal(&Envelope{
			Header: Header{MessageID: fmt.Sprintf("big-%d", nameLen), Sender: "t"},
			Body:   Body{Submit: &SubmitJob{Name: strings.Repeat("x", nameLen), Nodes: 1, Walltime: 60}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	post := func(body io.Reader) int {
		resp, err := http.Post(ep.URL+"/gram", "text/xml", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	big := envelope(maxEnvelopeBytes)
	for _, body := range []io.Reader{
		bytes.NewReader(big),                 // Content-Length declared
		io.MultiReader(bytes.NewReader(big)), // chunked, length unknown
	} {
		if code := post(body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize body answered %d, want 413", code)
		}
	}
	if q, _, _ := backend.Stat(); q != 0 {
		t.Fatalf("oversize bodies enqueued %d jobs", q)
	}
	fits := envelope(maxEnvelopeBytes - (len(big) - maxEnvelopeBytes))
	if len(fits) != maxEnvelopeBytes {
		t.Fatalf("envelope at the bound is %d bytes, want %d", len(fits), maxEnvelopeBytes)
	}
	for _, body := range []io.Reader{bytes.NewReader(fits), io.MultiReader(bytes.NewReader(fits))} {
		if code := post(body); code != http.StatusOK {
			t.Fatalf("envelope at the bound answered %d", code)
		}
	}
	if q, _, _ := backend.Stat(); q != 1 {
		t.Fatalf("envelope at the bound: queue %d, want 1", q)
	}
}

// The replay cache is a FIFO ring of IdempotencyWindow keys: with a
// window of 3, the fourth mutating transaction evicts the first. A
// retry of a resident transaction replays its response; a retry of the
// evicted one executes again.
func TestReplayCacheRingEvictsFIFO(t *testing.T) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	svc, err := NewService(ServiceConfig{Backend: backend, IdempotencyWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	submit := func(msg string) int64 {
		r := postEnvelope(t, ep.URL, &Envelope{
			Header: Header{MessageID: msg, Sender: "ring"},
			Body:   Body{Submit: &SubmitJob{Name: msg, Nodes: 1, Walltime: 3600}},
		})
		if !r.OK {
			t.Fatalf("submit %s: %s", msg, r.Error)
		}
		return r.JobID
	}
	queued := func() int {
		q, _, _ := backend.Stat()
		return q
	}
	ids := map[string]int64{}
	for _, m := range []string{"m1", "m2", "m3", "m4"} {
		ids[m] = submit(m)
	}
	if got := submit("m4"); got != ids["m4"] || queued() != 4 {
		t.Fatalf("retry of resident m4: job %d (first %d), queue %d; want a replay", got, ids["m4"], queued())
	}
	if got := submit("m1"); got == ids["m1"] || queued() != 5 {
		t.Fatalf("retry of evicted m1: job %d (first %d), queue %d; want a new job", got, ids["m1"], queued())
	}
	// Re-executing m1 cached it again and evicted m2, now the oldest.
	if got := submit("m3"); got != ids["m3"] || queued() != 5 {
		t.Fatalf("retry of resident m3: job %d (first %d), queue %d; want a replay", got, ids["m3"], queued())
	}
	if got := submit("m2"); got == ids["m2"] || queued() != 6 {
		t.Fatalf("retry of evicted m2: job %d (first %d), queue %d; want a new job", got, ids["m2"], queued())
	}
	svc.idemMu.Lock()
	ring, cached := len(svc.idemRing), len(svc.idemCache)
	svc.idemMu.Unlock()
	if ring != 3 || cached != 3 {
		t.Fatalf("ring holds %d keys and the cache %d, want 3 and 3", ring, cached)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// The durable state record hashes the envelope as received. For a
// Client's batch that is Marshal's encoding of it, so the record is
// the one computed from Marshal(env).
func TestDurableStateRecordMatchesMarshal(t *testing.T) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	dir := t.TempDir()
	svc, err := NewService(ServiceConfig{Durable: true, StateDir: dir, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Start(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var sent []byte
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	c := NewClientOptions(ep.URL, "durable", ClientOptions{
		Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				return nil, err
			}
			sent = body
			r.Body = io.NopCloser(bytes.NewReader(body))
			return transport.RoundTrip(r)
		}),
	})
	res, err := c.SubmitBatch([]BatchJob{
		{Name: "a", Nodes: 1, Walltime: time.Hour},
		{Name: `b<&'">`, Nodes: 2, Walltime: 90 * time.Second},
		{Name: "c", Nodes: 4, Walltime: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err() != nil {
			t.Fatalf("entry %d: %v", i, r.Err())
		}
	}
	var env Envelope
	if err := xml.Unmarshal(sent, &env); err != nil {
		t.Fatal(err)
	}
	raw, err := Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, sent) {
		t.Fatalf("the client sent %q, Marshal of it is %q", sent, raw)
	}
	sum := sha256.Sum256(raw)
	want := fmt.Sprintf("1 submit-batch %s %d\n", hex.EncodeToString(sum[:8]), len(raw))
	got, err := os.ReadFile(filepath.Join(dir, "job-1.state"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("state record %q, want %q", got, want)
	}
}
