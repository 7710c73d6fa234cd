// The middleware service: an HTTP endpoint that accepts XML job
// operations, optionally persists per-transaction service state (as
// WS-GRAM does — the dominant cost that made GRAM the system
// bottleneck in [23]), and drives the pbsd daemon.

package middleware

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"redreq/internal/obs"
	"redreq/internal/pbsd"
)

// maxEnvelopeBytes bounds a request body. A batched submission costs
// about 190 bytes, so 1 MiB holds some 5 000 of them; the largest batch
// the repository sends has 4. A body past the bound is answered 413
// and nothing is enqueued.
const maxEnvelopeBytes = 1 << 20

// ServiceConfig configures the middleware service.
type ServiceConfig struct {
	// Durable persists per-transaction service state the way WS-GRAM
	// does for each job: a freshly created state file, fsync'd and
	// atomically renamed into place. Without it, transactions are
	// limited by parsing, dispatch, and scheduler work only.
	Durable bool
	// Security enables GSI-like message-level security: each
	// transaction's digest is RSA-signed and the signature verified,
	// modeling credential handling (a dominant WS-GRAM cost).
	Security bool
	// StateDir is where durable state records are written (required
	// when Durable).
	StateDir string
	// Backend is the batch scheduler daemon operated by the service.
	Backend *pbsd.Server
	// Trace, when non-nil, collects wall-clock latency histograms per
	// operation on the SOAP-envelope path (gram.latency.submit,
	// gram.latency.cancel, gram.latency.status), the gram.errors
	// counter for failed transactions, gram.shed for requests shed
	// with 503 BUSY, gram.late for admission-control drops answered
	// 429 LATE, and gram.idem_hits for deduplicated retries.
	Trace *obs.Trace
	// IdempotencyWindow bounds the replay cache of recent mutating
	// transactions, keyed by (sender, message ID): a retried submit or
	// cancel whose original attempt succeeded gets the original
	// response replayed instead of double-enqueueing. 0 uses 4096
	// entries; negative disables deduplication.
	IdempotencyWindow int
}

// Service is the HTTP middleware service.
type Service struct {
	cfg     ServiceConfig
	mux     *http.ServeMux
	txCount atomic.Int64

	mu       sync.Mutex
	stateSeq int64

	// Replay cache for idempotent mutating operations: responses by
	// (sender, message ID), evicted FIFO at the configured window.
	// idemRing holds the cached keys in arrival order once it is full,
	// the oldest at idemNext.
	idemMu    sync.Mutex
	idemCache map[string]*Response
	idemRing  []string
	idemNext  int

	key *rsa.PrivateKey

	// Trace instruments (nil when tracing is off).
	hSubmit  *obs.Histogram
	hCancel  *obs.Histogram
	hStatus  *obs.Histogram
	cErrors  *obs.Counter
	cShed    *obs.Counter
	cLate    *obs.Counter
	cIdemHit *obs.Counter
}

// NewService builds the service; the caller owns the backend's
// lifetime.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("middleware: nil backend")
	}
	s := &Service{cfg: cfg, mux: http.NewServeMux()}
	if cfg.Durable {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("middleware: Durable requires StateDir")
		}
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("middleware: state dir: %w", err)
		}
	}
	if cfg.Security {
		key, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			return nil, fmt.Errorf("middleware: key generation: %w", err)
		}
		s.key = key
	}
	if cfg.IdempotencyWindow == 0 {
		s.cfg.IdempotencyWindow = 4096
	}
	if s.cfg.IdempotencyWindow > 0 {
		s.idemCache = make(map[string]*Response)
	}
	if tr := cfg.Trace; tr != nil {
		s.hSubmit = tr.Histogram("gram.latency.submit")
		s.hCancel = tr.Histogram("gram.latency.cancel")
		s.hStatus = tr.Histogram("gram.latency.status")
		s.cErrors = tr.Counter("gram.errors")
		s.cShed = tr.Counter("gram.shed")
		s.cLate = tr.Counter("gram.late")
		s.cIdemHit = tr.Counter("gram.idem_hits")
	}
	s.mux.HandleFunc("/gram", s.handleGRAM)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// Transactions returns the number of completed transactions.
func (s *Service) Transactions() int64 { return s.txCount.Load() }

// Handler exposes the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.mux }

// Close releases service resources.
func (s *Service) Close() error { return nil }

func (s *Service) handleGRAM(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	raw, err := readBody(http.MaxBytesReader(w, r.Body, maxEnvelopeBytes), r.ContentLength)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.cErrors.Inc()
		http.Error(w, "envelope too large", http.StatusRequestEntityTooLarge)
		return
	}
	var env *Envelope
	if err == nil {
		env, err = decodeEnvelope(raw)
	}
	if err != nil {
		s.cErrors.Inc()
		s.reply(w, &Response{OK: false, Error: err.Error()})
		return
	}
	var t0 time.Time
	if s.cfg.Trace != nil {
		t0 = time.Now()
	}
	resp, shed := s.execute(env, raw)
	if s.cfg.Trace != nil {
		elapsed := time.Since(t0).Seconds()
		switch {
		case env.Body.Submit != nil, env.Body.SubmitBatch != nil:
			s.hSubmit.Observe(elapsed)
		case env.Body.Cancel != nil, env.Body.CancelBatch != nil:
			s.hCancel.Observe(elapsed)
		case env.Body.Status != nil:
			s.hStatus.Observe(elapsed)
		}
		switch {
		case shed == shedBusy:
			s.cShed.Inc()
		case shed == shedLate:
			s.cLate.Inc()
		case !resp.OK:
			s.cErrors.Inc()
		}
	}
	switch shed {
	case shedBusy:
		// Explicit load shedding: the request was NOT enqueued. 503
		// tells the client to back off and retry, as opposed to a
		// Fault, which is final.
		http.Error(w, "BUSY", http.StatusServiceUnavailable)
		s.txCount.Add(1)
		return
	case shedLate:
		// Admission-control drop: the queue is over its delay budget,
		// not merely out of slots. 429 gives clients a distinct signal
		// to back off harder than for a 503.
		http.Error(w, "LATE", http.StatusTooManyRequests)
		s.txCount.Add(1)
		return
	}
	s.reply(w, resp)
	s.txCount.Add(1)
}

// readBody reads a request body whole, into one exact allocation when
// the sender declared its length.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length <= 0 || length > maxEnvelopeBytes {
		return io.ReadAll(r)
	}
	raw := make([]byte, length)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// shedVerdict classifies a request the backend refused to enqueue.
type shedVerdict int

const (
	notShed  shedVerdict = iota
	shedBusy             // queue slots full -> 503 BUSY
	shedLate             // queue delay over the admission budget -> 429 LATE
)

// idemKey is the replay-cache key of a mutating transaction; empty
// when the envelope is not deduplicable.
func idemKey(env *Envelope) string {
	if env.Header.MessageID == "" || env.Body.Status != nil {
		return ""
	}
	return env.Header.Sender + "\x00" + env.Header.MessageID
}

// replay returns the cached response for a retried transaction, if
// any.
func (s *Service) replay(key string) (*Response, bool) {
	if key == "" || s.idemCache == nil {
		return nil, false
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	r, ok := s.idemCache[key]
	return r, ok
}

// remember caches a definitive response for future retries of the
// same message, evicting the oldest entry past the window.
func (s *Service) remember(key string, resp *Response) {
	if key == "" || s.idemCache == nil {
		return
	}
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	if _, dup := s.idemCache[key]; dup {
		return
	}
	s.idemCache[key] = resp
	if len(s.idemRing) < s.cfg.IdempotencyWindow {
		s.idemRing = append(s.idemRing, key)
		return
	}
	delete(s.idemCache, s.idemRing[s.idemNext])
	s.idemRing[s.idemNext] = key
	s.idemNext = (s.idemNext + 1) % len(s.idemRing)
}

// execute runs one transaction; raw is the envelope as received. A
// non-notShed verdict means the backend refused to enqueue the request
// (queue cap or admission budget): the caller answers 503 BUSY or 429
// LATE, and nothing is cached — a retry should re-attempt, not replay.
func (s *Service) execute(env *Envelope, raw []byte) (*Response, shedVerdict) {
	key := idemKey(env)
	if cached, ok := s.replay(key); ok {
		s.cIdemHit.Inc()
		return cached, notShed
	}
	if s.cfg.Security {
		if err := s.authorize(raw); err != nil {
			return &Response{OK: false, Error: err.Error()}, notShed
		}
	}
	switch {
	case env.Body.Submit != nil:
		op := env.Body.Submit
		if s.cfg.Durable {
			if err := s.persist("submit", raw); err != nil {
				return &Response{OK: false, Error: err.Error()}, notShed
			}
		}
		id, err := s.submit(op.Name, op.Nodes, op.Walltime)
		if errors.Is(err, pbsd.ErrBusy) {
			return &Response{OK: false, Error: err.Error()}, shedBusy
		}
		if errors.Is(err, pbsd.ErrLate) {
			return &Response{OK: false, Error: err.Error()}, shedLate
		}
		resp := &Response{OK: true, JobID: id}
		if err != nil {
			resp = &Response{OK: false, Error: err.Error()}
		}
		s.remember(key, resp)
		return resp, notShed
	case env.Body.Cancel != nil:
		if s.cfg.Durable {
			if err := s.persist("cancel", raw); err != nil {
				return &Response{OK: false, Error: err.Error()}, notShed
			}
		}
		resp := &Response{OK: true}
		if err := s.cfg.Backend.Delete(env.Body.Cancel.JobID); err != nil {
			resp = &Response{OK: false, Error: err.Error()}
		}
		s.remember(key, resp)
		return resp, notShed
	case env.Body.SubmitBatch != nil:
		return s.executeSubmitBatch(env, raw, key), notShed
	case env.Body.CancelBatch != nil:
		return s.executeCancelBatch(env, raw, key), notShed
	case env.Body.Status != nil:
		q, run, free := s.cfg.Backend.Stat()
		return &Response{OK: true, Queued: q, Running: run, Free: free}, notShed
	default:
		return &Response{OK: false, Error: "no operation"}, notShed
	}
}

// submit converts a wire walltime in seconds and hands the job to the
// backend. Validate has already refused walltimes no Duration holds, so
// the conversion error is the backend's kind of refusal, not a shed.
func (s *Service) submit(name string, nodes int, secs float64) (int64, error) {
	walltime, err := pbsd.Walltime(secs)
	if err != nil {
		return 0, err
	}
	return s.cfg.Backend.Submit(name, nodes, walltime)
}

// opKey is the replay-cache key of one batch entry, distinct from any
// envelope key (different separator byte) so a batch operation and a
// whole envelope can never collide.
func (s *Service) opKey(env *Envelope, opID string) string {
	if opID == "" || s.idemCache == nil {
		return ""
	}
	return env.Header.Sender + "\x01" + opID
}

// executeSubmitBatch runs every submission of a batch envelope,
// deduplicating per operation: an entry whose OpID already has a
// cached outcome replays it, everything else hits the backend. Per-op
// shedding (BUSY/LATE) lands in the entry's result instead of failing
// the envelope, and shed entries are not cached — a retried batch
// re-attempts exactly those. The envelope itself is cached only when
// nothing was shed, for the same reason.
func (s *Service) executeSubmitBatch(env *Envelope, raw []byte, key string) *Response {
	ops := env.Body.SubmitBatch.Jobs
	if s.cfg.Durable {
		// One durable state record covers the whole envelope — batching
		// amortizes the fsync across every operation it carries.
		if err := s.persist("submit-batch", raw); err != nil {
			return &Response{OK: false, Error: err.Error()}
		}
	}
	results := make([]BatchResult, len(ops))
	anyShed := false
	for i, op := range ops {
		ok := s.opKey(env, op.OpID)
		if cached, hit := s.replay(ok); hit {
			s.cIdemHit.Inc()
			results[i] = BatchResult{OK: cached.OK, JobID: cached.JobID, Error: cached.Error}
			continue
		}
		id, err := s.submit(op.Name, op.Nodes, op.Walltime)
		switch {
		case errors.Is(err, pbsd.ErrBusy):
			results[i] = BatchResult{Error: err.Error(), Shed: "busy"}
			anyShed = true
			s.cShed.Inc()
			continue
		case errors.Is(err, pbsd.ErrLate):
			results[i] = BatchResult{Error: err.Error(), Shed: "late"}
			anyShed = true
			s.cLate.Inc()
			continue
		case err != nil:
			results[i] = BatchResult{Error: err.Error()}
		default:
			results[i] = BatchResult{OK: true, JobID: id}
		}
		s.remember(ok, &Response{OK: results[i].OK, JobID: results[i].JobID, Error: results[i].Error})
	}
	resp := &Response{OK: true, Batch: results}
	if !anyShed {
		s.remember(key, resp)
	}
	return resp
}

// executeCancelBatch is executeSubmitBatch's cancel-side twin.
func (s *Service) executeCancelBatch(env *Envelope, raw []byte, key string) *Response {
	ops := env.Body.CancelBatch.Ops
	if s.cfg.Durable {
		if err := s.persist("cancel-batch", raw); err != nil {
			return &Response{OK: false, Error: err.Error()}
		}
	}
	results := make([]BatchResult, len(ops))
	for i, op := range ops {
		ok := s.opKey(env, op.OpID)
		if cached, hit := s.replay(ok); hit {
			s.cIdemHit.Inc()
			results[i] = BatchResult{OK: cached.OK, Error: cached.Error}
			continue
		}
		if err := s.cfg.Backend.Delete(op.JobID); err != nil {
			results[i] = BatchResult{Error: err.Error()}
		} else {
			results[i] = BatchResult{OK: true}
		}
		s.remember(ok, &Response{OK: results[i].OK, Error: results[i].Error})
	}
	resp := &Response{OK: true, Batch: results}
	s.remember(key, resp)
	return resp
}

// authorize performs GSI-like message-level security work: it signs
// the digest of the envelope as received with the service credential
// and verifies the signature, the per-message public-key operations
// that dominate WS-GRAM's request path. The decoder accepts only
// Marshal's output, so raw is Marshal(env) byte for byte.
func (s *Service) authorize(raw []byte) error {
	digest := sha256.Sum256(raw)
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.key, crypto.SHA256, digest[:])
	if err != nil {
		return fmt.Errorf("middleware: sign: %w", err)
	}
	if err := rsa.VerifyPKCS1v15(&s.key.PublicKey, crypto.SHA256, digest[:], sig); err != nil {
		return fmt.Errorf("middleware: verify: %w", err)
	}
	return nil
}

// persist writes one durable state record the way GRAM persists job
// state: a new file per transaction, written, fsync'd, and atomically
// renamed into place. The record names the transaction's sequence
// number, operation, and the digest prefix and length of raw, the
// envelope as received.
func (s *Service) persist(op string, raw []byte) error {
	sum := sha256.Sum256(raw)
	s.mu.Lock()
	s.stateSeq++
	seq := s.stateSeq
	s.mu.Unlock()
	tmp := filepath.Join(s.cfg.StateDir, fmt.Sprintf(".job-%d.tmp", seq))
	final := filepath.Join(s.cfg.StateDir, fmt.Sprintf("job-%d.state", seq))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("middleware: persist: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%d %s %s %d\n", seq, op, hex.EncodeToString(sum[:8]), len(raw)); err != nil {
		f.Close()
		return fmt.Errorf("middleware: persist write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("middleware: persist sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("middleware: persist close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("middleware: persist rename: %w", err)
	}
	return nil
}

func (s *Service) reply(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "text/xml")
	w.Write(appendResponse(make([]byte, 0, 256), resp))
}

// Endpoint serves the middleware over a real TCP socket and returns
// its base URL; close the returned server to stop it.
type Endpoint struct {
	URL    string
	server *http.Server
	ln     net.Listener
	done   chan struct{}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves svc.
func Start(svc *Service, addr string) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("middleware: listen: %w", err)
	}
	ep := &Endpoint{
		URL:    "http://" + ln.Addr().String(),
		server: &http.Server{Handler: svc.Handler()},
		ln:     ln,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(ep.done)
		ep.server.Serve(ln)
	}()
	return ep, nil
}

// Close stops the endpoint.
func (ep *Endpoint) Close() error {
	err := ep.server.Close()
	<-ep.done
	return err
}
