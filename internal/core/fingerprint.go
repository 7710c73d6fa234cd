// Config fingerprinting: a canonical content hash over the fields
// that determine a run's Result, used as the key of the run memo
// (memo.go). Observability attachments (Trace) and cache plumbing
// (Workloads) are deliberately excluded — they never change what Run
// computes, only what it reports on the side — so traced and untraced
// runs of one config share a fingerprint, and a cached summary is
// bit-identical to one built from a fresh run.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Fingerprint is the canonical content address of a Config.
type Fingerprint [sha256.Size]byte

// fingerprintVersion is folded into every hash so the fingerprint
// space changes whenever the encoding below does.
// v2: added ControlLatency.
// v3: Selection became Routing (same word position); added Staleness
// and Ordering.
// v4: dropped MaxJobsPerCluster.
const fingerprintVersion = 4

// fpBuf is the canonical encoding of a Config under construction:
// every field is appended as a fixed-width little-endian word, with
// slice lengths prefixed, so no two field sequences can collide by
// concatenation. Each method returns the extended buffer, which keeps
// Fingerprint's stack buffer on the stack.
type fpBuf []byte

func (b fpBuf) u64(v uint64) fpBuf  { return binary.LittleEndian.AppendUint64(b, v) }
func (b fpBuf) i64(v int64) fpBuf   { return b.u64(uint64(v)) }
func (b fpBuf) f64(v float64) fpBuf { return b.u64(math.Float64bits(v)) }

func (b fpBuf) boolean(v bool) fpBuf {
	if v {
		return b.u64(1)
	}
	return b.u64(0)
}

// fpBufWords sizes Fingerprint's stack buffer, in words: a 64-cluster
// config with a full fault plan and 32 outages fits, and a larger one
// still hashes correctly, from a grown heap copy.
const fpBufWords = 256

// Fingerprint returns the canonical hash of every semantically
// meaningful field of cfg: two configs with equal fingerprints produce
// identical Results (Run is deterministic in these fields), and any
// change to one of them changes the hash. Trace and Workloads are
// excluded by design; Streams is not hashed — configs with explicit
// streams bypass the result cache entirely (see RunCached).
func (cfg *Config) Fingerprint() Fingerprint {
	var buf [fpBufWords * 8]byte
	b := fpBuf(buf[:0]).u64(fingerprintVersion)

	b = b.i64(int64(len(cfg.Clusters)))
	for _, cs := range cfg.Clusters {
		b = b.i64(int64(cs.Nodes)).f64(cs.MeanIAT)
	}
	b = b.i64(int64(cfg.Alg)).
		i64(int64(cfg.Scheme)).
		f64(cfg.RedundantFraction).
		i64(int64(cfg.Routing)).
		u64(cfg.Seed).
		f64(cfg.Horizon).
		i64(int64(cfg.EstMode)).
		f64(cfg.InflateRemote).
		f64(cfg.TargetLoad).
		f64(cfg.MinRuntime).
		boolean(cfg.Predict).
		boolean(cfg.DisableCancelBackfill).
		boolean(cfg.DisableCompression).
		boolean(cfg.CompressOnCancel).
		f64(cfg.RuntimeScale).
		f64(cfg.MaxRuntime).
		boolean(cfg.StopAtHorizon).
		f64(cfg.ControlLatency).
		f64(cfg.Staleness).
		i64(int64(cfg.Ordering))

	// An absent plan and an empty one are byte-identical at runtime
	// (the injector no-ops), so they share an encoding.
	if p := cfg.Faults; p != nil && !p.Empty() {
		b = b.boolean(true).
			u64(p.Seed).
			f64(p.SubmitLoss).
			f64(p.CancelLoss).
			f64(p.SubmitDelayMean).
			f64(p.CancelDelayMean).
			i64(int64(len(p.Outages)))
		for _, o := range p.Outages {
			b = b.i64(int64(o.Cluster)).f64(o.Start).f64(o.End)
		}
	} else {
		b = b.boolean(false)
	}
	return sha256.Sum256(b)
}
