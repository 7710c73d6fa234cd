// Availability profile: the step function of free nodes over time that
// backfilling schedulers reason about. Conservative Backfilling
// maintains a persistent profile of running jobs and the reservations
// of all queued jobs; EASY/FCFS wait prediction (predictNew) builds a
// transient one from the running set. EASY passes themselves need only
// the head's shadow time and read it off the ordered running set.

package sched

import (
	"fmt"
	"math"
)

// Profile tracks the number of available nodes over [start, +inf) as a
// step function. Segment i spans [times[i], times[i+1]) (the last
// segment extends to +inf) with avail[i] free nodes.
type Profile struct {
	times []float64
	avail []int
}

// NewProfile returns a profile with nodes free everywhere from start.
func NewProfile(start float64, nodes int) *Profile {
	return &Profile{times: []float64{start}, avail: []int{nodes}}
}

// Reset reinitializes the profile in place, retaining capacity.
func (p *Profile) Reset(start float64, nodes int) {
	p.times = append(p.times[:0], start)
	p.avail = append(p.avail[:0], nodes)
}

// Len returns the number of segments.
func (p *Profile) Len() int { return len(p.times) }

// Start returns the beginning of the profile's domain.
func (p *Profile) Start() float64 { return p.times[0] }

// search returns the first index whose breakpoint is at or after t,
// len(p.times) when there is none. It is sort.SearchFloat64s without
// the func value per probe: AddBusy and the anchor searches sit on the
// CBF hot path.
func (p *Profile) search(t float64) int {
	lo, hi := 0, len(p.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// segmentAt returns the index of the segment containing t, clamping to
// the first segment for t before the domain.
func (p *Profile) segmentAt(t float64) int {
	i := p.search(t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// AvailAt returns the number of free nodes at time t.
func (p *Profile) AvailAt(t float64) int { return p.avail[p.segmentAt(t)] }

// ensureBreak inserts a breakpoint at t (if within the domain) and
// returns the index of the segment starting at t.
func (p *Profile) ensureBreak(t float64) int {
	i := p.search(t)
	if i < len(p.times) && p.times[i] == t {
		return i
	}
	if i == 0 {
		// t precedes the domain; treat domain start as t.
		return 0
	}
	// Split segment i-1 at t.
	p.times = append(p.times, 0)
	copy(p.times[i+1:], p.times[i:])
	p.times[i] = t
	p.avail = append(p.avail, 0)
	copy(p.avail[i+1:], p.avail[i:])
	p.avail[i] = p.avail[i-1]
	return i
}

// AddBusy subtracts nodes from availability over [start, end). Negative
// nodes releases capacity. Intervals before the domain start are
// clipped; empty intervals are ignored.
func (p *Profile) AddBusy(start, end float64, nodes int) {
	if end <= start || nodes == 0 {
		return
	}
	if start < p.times[0] {
		start = p.times[0]
	}
	if end <= start {
		return
	}
	i := p.ensureBreak(start)
	j := p.ensureBreak(end)
	for k := i; k < j; k++ {
		p.avail[k] -= nodes
	}
	p.coalesce(i, j)
}

// coalesce merges equal-availability adjacent segments in [lo-1, hi+1]
// to bound profile growth.
func (p *Profile) coalesce(lo, hi int) {
	from := lo - 1
	if from < 0 {
		from = 0
	}
	to := hi + 1
	if to > len(p.times)-1 {
		to = len(p.times) - 1
	}
	w := from
	for r := from + 1; r <= to; r++ {
		if p.avail[r] == p.avail[w] {
			continue
		}
		w++
		p.times[w] = p.times[r]
		p.avail[w] = p.avail[r]
	}
	if w < to {
		// Shift the tail left.
		tailLen := len(p.times) - (to + 1)
		copy(p.times[w+1:], p.times[to+1:])
		copy(p.avail[w+1:], p.avail[to+1:])
		p.times = p.times[:w+1+tailLen]
		p.avail = p.avail[:w+1+tailLen]
	}
}

// FindAnchor returns the earliest time t >= earliest such that at least
// nodes are available throughout [t, t+duration). It returns +Inf when
// no such time exists (nodes exceeds the profile's eventual capacity).
func (p *Profile) FindAnchor(earliest, duration float64, nodes int) float64 {
	return p.findAnchor(earliest, math.Inf(1), math.Inf(1), duration, nodes)
}

// FindEarlierAnchor asks where a reservation the profile already
// carries — nodes over [held, held+duration) — could move to, without
// editing the profile: it returns the earliest t in [earliest, limit)
// and before held at which nodes are available throughout
// [t, t+duration) once the reservation's own allocation is given back,
// or +Inf when there is no such anchor. CBF compression passes as
// [earliest, limit) the anchor range that released capacity could have
// improved, so it neither re-walks the whole profile for every queued
// request after every completion nor rewrites it for a reservation
// that stays.
//
// The answer is the one removing the allocation, searching and adding
// it back gives. Every candidate anchor lies before held, where the
// allocation changes nothing; and from held on the window
// [t, t+duration) is inside [held, held+duration), where the profile
// with the allocation given back has at least nodes free because
// availability is never negative. So only [t, min(t+duration, held))
// needs looking at, on the profile as it stands: a segment that begins
// before held is judged on its own availability even when it reaches
// past held (the breakpoint there was coalesced away), and one that
// begins at or after held is never read.
func (p *Profile) FindEarlierAnchor(earliest, limit, held, duration float64, nodes int) float64 {
	return p.findAnchor(earliest, min(limit, held), held, duration, nodes)
}

// findAnchor is the search behind FindAnchor and FindEarlierAnchor:
// the earliest anchor in [earliest, limit) with nodes available
// throughout the part of [anchor, anchor+duration) before held.
func (p *Profile) findAnchor(earliest, limit, held, duration float64, nodes int) float64 {
	if earliest < p.times[0] {
		earliest = p.times[0]
	}
	n := len(p.times)
	i := p.segmentAt(earliest)
	for i < n {
		if p.avail[i] < nodes {
			i++
			continue
		}
		anchor := p.times[i]
		if anchor < earliest {
			anchor = earliest
		}
		if anchor >= limit {
			break
		}
		need := min(anchor+duration, held)
		// Verify [anchor, need) has capacity; j walks forward.
		ok := true
		for j := i + 1; j < n && p.times[j] < need; j++ {
			if p.avail[j] < nodes {
				// Restart after the violation.
				i = j + 1
				ok = false
				break
			}
		}
		if ok {
			return anchor
		}
	}
	return math.Inf(1)
}

// TrimBefore drops breakpoints strictly before t, moving the domain
// start to t. Segments before t are never consulted once simulated time
// has passed them; trimming bounds the profile's memory footprint.
func (p *Profile) TrimBefore(t float64) {
	if t <= p.times[0] {
		return
	}
	i := p.segmentAt(t)
	if i == 0 {
		p.times[0] = t
		return
	}
	copy(p.times, p.times[i:])
	copy(p.avail, p.avail[i:])
	p.times = p.times[:len(p.times)-i]
	p.avail = p.avail[:len(p.avail)-i]
	p.times[0] = t
}

// MinAvail returns the minimum availability over [start, end).
func (p *Profile) MinAvail(start, end float64) int {
	if start < p.times[0] {
		start = p.times[0]
	}
	i := p.segmentAt(start)
	min := p.avail[i]
	for j := i + 1; j < len(p.times) && p.times[j] < end; j++ {
		if p.avail[j] < min {
			min = p.avail[j]
		}
	}
	return min
}

// Validate checks structural invariants (strictly increasing
// breakpoints, matching slice lengths) and that availability stays
// within [0, capacity] when capacity >= 0. It is used by tests and
// debug assertions.
func (p *Profile) Validate(capacity int) error {
	if len(p.times) == 0 || len(p.times) != len(p.avail) {
		return fmt.Errorf("profile: bad lengths times=%d avail=%d", len(p.times), len(p.avail))
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			return fmt.Errorf("profile: non-increasing breakpoints at %d: %v <= %v", i, p.times[i], p.times[i-1])
		}
	}
	if capacity >= 0 {
		for i, a := range p.avail {
			if a < 0 || a > capacity {
				return fmt.Errorf("profile: segment %d availability %d outside [0,%d]", i, a, capacity)
			}
		}
	}
	return nil
}

// String renders the profile for debugging.
func (p *Profile) String() string {
	s := "Profile{"
	for i := range p.times {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%.6g:%d]", p.times[i], p.avail[i])
	}
	return s + "}"
}
