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

// AddBusy subtracts nodes from availability over [start, end). Negative
// nodes releases capacity. Intervals before the domain start are
// clipped; empty intervals are ignored.
func (p *Profile) AddBusy(start, end float64, nodes int) {
	if end <= start || nodes == 0 {
		return
	}
	p.edit([4]float64{start, end}, [3]int{nodes}, 1)
}

// Move moves a reservation the profile carries — nodes over
// [from, from+dur) — earlier, to [to, to+dur), leaving the profile that
// AddBusy(from, from+dur, -nodes) followed by AddBusy(to, to+dur, nodes)
// leaves, in one edit. Where the two windows overlap nothing changes,
// so the edit takes nodes over [to, min(to+dur, from)) and gives them
// back over [max(to+dur, from), from+dur). CBF compression moves a
// reservation this way once FindEarlierAnchor has found it an earlier
// anchor; reservations never move later.
func (p *Profile) Move(from, to, dur float64, nodes int) {
	if to > from {
		panic(fmt.Sprintf("sched: Profile.Move from %v to the later %v", from, to))
	}
	if to == from || dur <= 0 || nodes == 0 {
		return
	}
	p.edit([4]float64{to, min(to+dur, from), max(to+dur, from), from + dur}, [3]int{nodes, 0, -nodes}, 3)
}

// edit subtracts busy[q] from availability over [at[q], at[q+1]) for
// every q < m, where at[0] <= ... <= at[m]; points before the domain
// start are clipped to it. The profile must be canonical — no two
// adjacent segments with equal availability — and is left so.
//
// It makes one forward merge of the profile's breakpoints with the m+1
// edit points, from the segment holding at[0] to the last breakpoint
// at or before at[m], writing each segment's new availability in place
// and dropping a breakpoint whose segment would equal the one before:
// one binary search and one move of the tail whatever m is. The write
// index can run ahead of the read index by at most the edit points
// written so far, so a breakpoint about to be overwritten before it
// has been read waits in a four-entry ring (m <= 3). From at[m] on
// nothing changes, and the first breakpoint after it differs from the
// segment before it already, so the merge stops there.
func (p *Profile) edit(at [4]float64, busy [3]int, m int) {
	t0 := p.times[0]
	for q := 0; q <= m; q++ {
		at[q] = max(at[q], t0)
	}
	if at[m] <= at[0] {
		return
	}
	n := len(p.times)
	i := p.segmentAt(at[0])
	w, r := i, i
	prev, hasPrev := 0, i > 0
	if hasPrev {
		prev = p.avail[i-1]
	}
	cur := 0
	if p.times[i] < at[0] {
		// Segment i keeps its availability up to at[0].
		prev, hasPrev, cur = p.avail[i], true, p.avail[i]
		w, r = i+1, i+1
	}
	var (
		ringT  [4]float64
		ringA  [4]int
		rh, rn int
	)
	for q := 0; q <= m; {
		t := at[q]
		if rn > 0 && ringT[rh] <= t {
			t, cur = ringT[rh], ringA[rh]
			rh, rn = (rh+1)&3, rn-1
		} else if rn == 0 && r < n && p.times[r] <= t {
			t, cur = p.times[r], p.avail[r]
			r++
		}
		for q <= m && at[q] == t {
			q++
		}
		v := cur
		if q <= m {
			v -= busy[q-1]
		}
		if hasPrev && v == prev {
			continue
		}
		prev, hasPrev = v, true
		if w == r && r < n {
			ringT[(rh+rn)&3], ringA[(rh+rn)&3] = p.times[r], p.avail[r]
			rn++
			r++
		}
		if w < len(p.times) {
			p.times[w], p.avail[w] = t, v
		} else {
			p.times, p.avail = append(p.times, t), append(p.avail, v)
		}
		w++
	}
	// The tail: what waits in the ring, then p.times[r:n].
	tail := rn + n - r
	if rn == 0 {
		copy(p.times[w:], p.times[r:n])
		copy(p.avail[w:], p.avail[r:n])
	} else {
		// Here w == r or r == n: the ring goes where the tail begins,
		// and the tail moves right to make room for it.
		p.times = grow(p.times, w+tail)
		p.avail = grow(p.avail, w+tail)
		copy(p.times[w+rn:], p.times[r:n])
		copy(p.avail[w+rn:], p.avail[r:n])
		for k := 0; k < rn; k++ {
			p.times[w+k], p.avail[w+k] = ringT[(rh+k)&3], ringA[(rh+k)&3]
		}
	}
	p.times = p.times[:w+tail]
	p.avail = p.avail[:w+tail]
}

// grow returns s resliced or extended to length n >= len(s).
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
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
// breakpoints, matching slice lengths, canonical form: no two adjacent
// segments with equal availability) and that availability stays within
// [0, capacity] when capacity >= 0. It is used by tests and debug
// assertions.
func (p *Profile) Validate(capacity int) error {
	if len(p.times) == 0 || len(p.times) != len(p.avail) {
		return fmt.Errorf("profile: bad lengths times=%d avail=%d", len(p.times), len(p.avail))
	}
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			return fmt.Errorf("profile: non-increasing breakpoints at %d: %v <= %v", i, p.times[i], p.times[i-1])
		}
		if p.avail[i] == p.avail[i-1] {
			return fmt.Errorf("profile: segments %d and %d both have availability %d: not canonical", i-1, i, p.avail[i])
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
