// DigestCollector reduces a stream of job records to mergeable
// sketches and moment accumulators without retaining a single record.
// Its output depends only on the order of records within each home
// cluster, not on how different home clusters interleave: the
// collector buckets per home cluster and merges the buckets in
// ascending cluster order at snapshot time.

package metrics

import (
	"math"

	"redreq/internal/core"
	"redreq/internal/stats"
)

// DigestAlpha is the default relative accuracy of digest quantiles:
// 1% error on stretch and turnaround percentiles, far below the
// run-to-run variance the paper averages over.
const DigestAlpha = 0.01

// homeDigest accumulates one home cluster's share of the stream.
type homeDigest struct {
	stretch    *stats.Sketch
	turnaround *stats.Sketch
	wait       stats.Moments
	stretchM   stats.Moments
	jobs       uint64
	redundant  uint64
}

// DigestCollector streams job records into per-home-cluster sketches.
// Not safe for concurrent use. Use Digest to extract the merged
// summary.
type DigestCollector struct {
	alpha  float64
	filter Filter
	homes  []*homeDigest
}

// NewDigestCollector returns a collector with the given quantile
// accuracy (0 uses DigestAlpha). filter selects the jobs to digest
// (nil digests all).
func NewDigestCollector(alpha float64, filter Filter) *DigestCollector {
	if alpha == 0 {
		alpha = DigestAlpha
	}
	return &DigestCollector{alpha: alpha, filter: filter}
}

// Observe adds one job record to its home cluster's bucket.
func (d *DigestCollector) Observe(rec *core.JobRecord) {
	if d.filter != nil && !d.filter(rec) {
		return
	}
	for len(d.homes) <= rec.Home {
		d.homes = append(d.homes, nil)
	}
	h := d.homes[rec.Home]
	if h == nil {
		h = &homeDigest{
			stretch:    stats.NewSketch(d.alpha),
			turnaround: stats.NewSketch(d.alpha),
		}
		d.homes[rec.Home] = h
	}
	h.jobs++
	if rec.Redundant {
		h.redundant++
	}
	s := rec.Stretch()
	h.stretch.Add(s)
	h.stretchM.Add(s)
	h.turnaround.Add(rec.Turnaround())
	h.wait.Add(rec.Wait())
}

// Digest is the merged summary of a digested record stream.
type Digest struct {
	Jobs      uint64
	Redundant uint64
	// Stretch and Turnaround answer percentile queries (0-100) within
	// the collector's relative accuracy.
	Stretch    *stats.Sketch
	Turnaround *stats.Sketch
	// StretchMoments and WaitMoments carry exact streaming moments.
	StretchMoments stats.Moments
	WaitMoments    stats.Moments
}

// Digest merges the per-home buckets in ascending cluster order and
// returns the summary. The merge order is fixed, so streams that differ
// only in how home clusters interleave produce bit-identical digests.
func (d *DigestCollector) Digest() Digest {
	out := Digest{
		Stretch:    stats.NewSketch(d.alpha),
		Turnaround: stats.NewSketch(d.alpha),
	}
	for _, h := range d.homes {
		if h == nil {
			continue
		}
		out.Jobs += h.jobs
		out.Redundant += h.redundant
		out.Stretch.Merge(h.stretch)
		out.Turnaround.Merge(h.turnaround)
		out.StretchMoments.Merge(&h.stretchM)
		out.WaitMoments.Merge(&h.wait)
	}
	return out
}

// Fingerprint folds the digest into one comparable value stream for
// determinism audits: counts and a spread of quantiles from each
// sketch plus the moment sums. Two digests of bit-identical streams
// produce equal fingerprints.
func (g *Digest) Fingerprint() []float64 {
	out := []float64{
		float64(g.Jobs), float64(g.Redundant),
		g.StretchMoments.Sum, g.StretchMoments.SumSq, g.StretchMoments.Min(), g.StretchMoments.Max(),
		g.WaitMoments.Sum, g.WaitMoments.SumSq, g.WaitMoments.Min(), g.WaitMoments.Max(),
	}
	for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
		out = append(out, g.Stretch.Quantile(p), g.Turnaround.Quantile(p))
	}
	for i, v := range out {
		if math.IsNaN(v) {
			out[i] = math.Inf(-1) // NaN != NaN; make audits comparable
		}
	}
	return out
}
