// Config fingerprinting: a canonical content hash over the fields
// that determine a run's Result, used as the key of the whole-result
// memo cache (memo.go). Observability attachments (Trace) and cache
// plumbing (Workloads) are deliberately excluded — they never change
// what Run computes, only what it reports on the side — so traced and
// untraced runs of one config share a fingerprint, and a cached result
// is bit-identical to a fresh one.

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// Fingerprint is the canonical content address of a Config.
type Fingerprint [sha256.Size]byte

// fingerprintVersion is folded into every hash so the fingerprint
// space changes whenever the encoding below does.
// v2: added ControlLatency.
// v3: Selection became Routing (same word position); added Staleness
// and Ordering.
const fingerprintVersion = 3

// fpWriter serializes Config fields into a hash in a fixed canonical
// order. Every field is written as a fixed-width little-endian word,
// with slice lengths prefixed, so no two field sequences can collide
// by concatenation.
type fpWriter struct {
	sum hash.Hash
}

func (w *fpWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.sum.Write(buf[:])
}

func (w *fpWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) boolean(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// Fingerprint returns the canonical hash of every semantically
// meaningful field of cfg: two configs with equal fingerprints produce
// identical Results (Run is deterministic in these fields), and any
// change to one of them changes the hash. Trace and Workloads are
// excluded by design; Streams is not hashed — configs with explicit
// streams bypass the result cache entirely (see Memo.Run).
func (cfg *Config) Fingerprint() Fingerprint {
	w := &fpWriter{sum: sha256.New()}
	w.u64(fingerprintVersion)

	w.i64(int64(len(cfg.Clusters)))
	for _, cs := range cfg.Clusters {
		w.i64(int64(cs.Nodes))
		w.f64(cs.MeanIAT)
	}
	w.i64(int64(cfg.Alg))
	w.i64(int64(cfg.Scheme))
	w.f64(cfg.RedundantFraction)
	w.i64(int64(cfg.Routing))
	w.u64(cfg.Seed)
	w.f64(cfg.Horizon)
	w.i64(int64(cfg.EstMode))
	w.f64(cfg.InflateRemote)
	w.f64(cfg.TargetLoad)
	w.f64(cfg.MinRuntime)
	w.boolean(cfg.Predict)
	w.boolean(cfg.DisableCancelBackfill)
	w.boolean(cfg.DisableCompression)
	w.boolean(cfg.CompressOnCancel)
	w.i64(int64(cfg.MaxJobsPerCluster))
	w.f64(cfg.RuntimeScale)
	w.f64(cfg.MaxRuntime)
	w.boolean(cfg.StopAtHorizon)
	w.f64(cfg.ControlLatency)
	w.f64(cfg.Staleness)
	w.i64(int64(cfg.Ordering))

	// An absent plan and an empty one are byte-identical at runtime
	// (the injector no-ops), so they share an encoding.
	if p := cfg.Faults; p != nil && !p.Empty() {
		w.boolean(true)
		w.u64(p.Seed)
		w.f64(p.SubmitLoss)
		w.f64(p.CancelLoss)
		w.f64(p.SubmitDelayMean)
		w.f64(p.CancelDelayMean)
		w.i64(int64(len(p.Outages)))
		for _, o := range p.Outages {
			w.i64(int64(o.Cluster))
			w.f64(o.Start)
			w.f64(o.End)
		}
	} else {
		w.boolean(false)
	}

	var fp Fingerprint
	w.sum.Sum(fp[:0])
	return fp
}
