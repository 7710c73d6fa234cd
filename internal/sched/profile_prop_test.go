package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refProfile is a brute-force per-second availability array used as
// the oracle for Profile's step-function arithmetic.
type refProfile struct {
	start float64
	avail []int // avail[i] covers [start+i, start+i+1)
}

func newRefProfile(start float64, nodes, horizon int) *refProfile {
	r := &refProfile{start: start, avail: make([]int, horizon)}
	for i := range r.avail {
		r.avail[i] = nodes
	}
	return r
}

func (r *refProfile) addBusy(start, end float64, nodes int) {
	for i := range r.avail {
		t := r.start + float64(i)
		if t >= start && t < end {
			r.avail[i] -= nodes
		}
	}
}

// minAvail returns the least availability over [start, end).
func (r *refProfile) minAvail(start, end float64) int {
	m := math.MaxInt
	for i, a := range r.avail {
		if t := r.start + float64(i); t >= start && t < end {
			m = min(m, a)
		}
	}
	return m
}

// mismatch returns the first second at which p differs from the
// reference, or -1.
func (r *refProfile) mismatch(p *Profile) int {
	for i, a := range r.avail {
		if p.AvailAt(r.start+float64(i)) != a {
			return i
		}
	}
	return -1
}

func (r *refProfile) availAt(t float64) int {
	i := int(t - r.start)
	if i < 0 {
		i = 0
	}
	return r.avail[i]
}

// findAnchor brute-forces the earliest integer t >= earliest with at
// least nodes available throughout [t, t+duration); limit bounds the
// anchor itself (use +Inf for none).
func (r *refProfile) findAnchor(earliest, limit, duration float64, nodes int) float64 {
	for i := 0; i < len(r.avail); i++ {
		t := r.start + float64(i)
		if t < earliest || t+duration > r.start+float64(len(r.avail)) {
			continue
		}
		if t >= limit {
			break
		}
		ok := true
		for j := i; j < len(r.avail) && r.start+float64(j) < t+duration; j++ {
			if r.avail[j] < nodes {
				ok = false
				break
			}
		}
		if ok {
			return t
		}
	}
	return math.Inf(1)
}

// FindAnchorLimit is FindAnchor restricted to anchors in [earliest,
// limit) — the window may extend past limit — or +Inf. It is the search
// CBF compression ran with the request's own allocation taken out of the
// profile, before FindEarlierAnchor; referenceCompress holds the probe
// to it.
func (p *Profile) FindAnchorLimit(earliest, limit, duration float64, nodes int) float64 {
	earliest = max(earliest, p.times[0])
	for i := p.segmentAt(earliest); i < len(p.times) && earliest < limit; {
		if p.avail[i] < nodes {
			i++
			continue
		}
		anchor := max(p.times[i], earliest)
		if anchor >= limit {
			break
		}
		j := i + 1
		for j < len(p.times) && p.times[j] < anchor+duration && p.avail[j] >= nodes {
			j++
		}
		if j == len(p.times) || p.times[j] >= anchor+duration {
			return anchor
		}
		i = j + 1
	}
	return math.Inf(1)
}

// TestProfileAgainstBruteForce pits AddBusy / FindAnchor /
// FindAnchorLimit / TrimBefore / coalesce against the per-second
// reference under randomized allocate/release traffic. All times are
// integers so the dense reference is exact.
func TestProfileAgainstBruteForce(t *testing.T) {
	const (
		capacity = 16
		opWindow = 500  // busy intervals live in [0, opWindow+maxDur)
		horizon  = 1000 // reference array length; covers every anchor probe
		maxDur   = 100
	)
	rng := rand.New(rand.NewPCG(42, 7))
	for trial := 0; trial < 30; trial++ {
		p := NewProfile(0, capacity)
		ref := newRefProfile(0, capacity, horizon)
		type alloc struct {
			start, end float64
			nodes      int
		}
		var live []alloc
		for op := 0; op < 200; op++ {
			if len(live) > 0 && rng.IntN(3) == 0 {
				// Release a previously added allocation.
				k := rng.IntN(len(live))
				a := live[k]
				live = append(live[:k], live[k+1:]...)
				p.AddBusy(a.start, a.end, -a.nodes)
				ref.addBusy(a.start, a.end, -a.nodes)
			} else {
				start := float64(rng.IntN(opWindow))
				end := start + float64(1+rng.IntN(maxDur))
				nodes := 1 + rng.IntN(4)
				if p.MinAvail(start, end) < nodes {
					continue // keep availability within [0, capacity]
				}
				p.AddBusy(start, end, nodes)
				ref.addBusy(start, end, nodes)
				live = append(live, alloc{start, end, nodes})
			}
			if err := p.Validate(capacity); err != nil {
				t.Fatalf("trial %d op %d: %v\n%v", trial, op, err, p)
			}
			for i := 0; i < horizon; i += 7 {
				at := float64(i)
				if got, want := p.AvailAt(at), ref.availAt(at); got != want {
					t.Fatalf("trial %d op %d: AvailAt(%v) = %d, want %d\n%v", trial, op, at, got, want, p)
				}
			}
			// Anchor probes, bounded and unbounded.
			earliest := float64(rng.IntN(opWindow))
			duration := float64(1 + rng.IntN(maxDur))
			nodes := 1 + rng.IntN(capacity)
			if got, want := p.FindAnchor(earliest, duration, nodes), ref.findAnchor(earliest, math.Inf(1), duration, nodes); got != want {
				t.Fatalf("trial %d op %d: FindAnchor(%v, %v, %d) = %v, want %v\n%v",
					trial, op, earliest, duration, nodes, got, want, p)
			}
			limit := earliest + float64(rng.IntN(2*maxDur))
			if got, want := p.FindAnchorLimit(earliest, limit, duration, nodes), ref.findAnchor(earliest, limit, duration, nodes); got != want {
				t.Fatalf("trial %d op %d: FindAnchorLimit(%v, %v, %v, %d) = %v, want %v\n%v",
					trial, op, earliest, limit, duration, nodes, got, want, p)
			}
		}
		// Trim to a random point and re-verify the surviving domain.
		cut := float64(rng.IntN(opWindow))
		p.TrimBefore(cut)
		if err := p.Validate(capacity); err != nil {
			t.Fatalf("trial %d after TrimBefore(%v): %v", trial, cut, err)
		}
		if p.Start() != cut && cut > 0 {
			t.Fatalf("trial %d: Start = %v after TrimBefore(%v)", trial, p.Start(), cut)
		}
		for i := int(cut); i < horizon; i += 3 {
			at := float64(i)
			if got, want := p.AvailAt(at), ref.availAt(at); got != want {
				t.Fatalf("trial %d: AvailAt(%v) = %d after trim, want %d", trial, at, got, want)
			}
		}
	}
}

// FindAnchorLimit must agree with FindAnchor whenever the unbounded
// anchor falls inside the limit, and report +Inf whenever it does not.
func TestFindAnchorLimitConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	for trial := 0; trial < 50; trial++ {
		p := NewProfile(0, 8)
		for i := 0; i < 30; i++ {
			start := float64(rng.IntN(300))
			p.AddBusy(start, start+float64(1+rng.IntN(50)), 1+rng.IntN(3))
			if err := p.Validate(-1); err != nil {
				t.Fatalf("trial %d: %v\n%v", trial, err, p)
			}
		}
		for probe := 0; probe < 50; probe++ {
			earliest := float64(rng.IntN(300))
			duration := float64(1 + rng.IntN(60))
			nodes := 1 + rng.IntN(8)
			limit := earliest + float64(rng.IntN(120))
			full := p.FindAnchor(earliest, duration, nodes)
			bounded := p.FindAnchorLimit(earliest, limit, duration, nodes)
			if full < limit {
				if bounded != full {
					t.Fatalf("bounded = %v, full = %v (limit %v)", bounded, full, limit)
				}
			} else if !math.IsInf(bounded, 1) {
				t.Fatalf("bounded = %v, want +Inf (full %v, limit %v)", bounded, full, limit)
			}
		}
	}
}

// probeScriptMax bounds a probe script: the per-second reference makes
// every operation linear in the horizon, and the fuzzer grows inputs to
// a megabyte.
const probeScriptMax = 4 * 128

// probeRun is what runProbeScript reports: the last probe's answer (NaN
// when the script made none), how many probes it made, how many of them
// found an earlier anchor, how many moves it made, and the profile it
// left.
type probeRun struct {
	last                 float64
	probes, found, moves int
	profile              *Profile
}

// runProbeScript replays a script of four-byte operations against a
// Profile and the per-second reference. An operation allocates (start,
// duration, nodes), if that still fits; releases one of the live
// allocations; probes: it takes a live allocation as the reservation
// held, asks FindEarlierAnchor where it could move to within
// [earliest, earliest+span), and requires the reference's answer with
// the allocation added back — and a profile left exactly as it was; or
// moves a live allocation earlier with Profile.Move, to the start given
// when that is earlier and the move fits (odd third byte) or to the
// earliest anchor FindEarlierAnchor finds from there, as compression
// does, and requires the profile that removing it and adding it back at
// the destination with AddBusy leaves, element for element, and the
// reference's availability at every second. The profile is validated,
// canonical form included, after every operation.
func runProbeScript(t *testing.T, script []byte) probeRun {
	const (
		capacity = 8
		horizon  = 512 // starts < 256, durations <= 64, so every window fits
	)
	type alloc struct {
		start, end float64
		nodes      int
	}
	var live []alloc
	p := NewProfile(0, capacity)
	ref := newRefProfile(0, capacity, horizon)
	run := probeRun{last: math.NaN(), profile: p}
	script = script[:min(len(script), probeScriptMax)]
	for ; len(script) >= 4; script = script[4:] {
		op, a, b, c := script[0]%5, int(script[1]), int(script[2]), int(script[3])
		switch {
		case op < 2:
			al := alloc{float64(a), float64(a + 1 + b%64), 1 + c%capacity}
			if p.MinAvail(al.start, al.end) < al.nodes {
				continue
			}
			p.AddBusy(al.start, al.end, al.nodes)
			ref.addBusy(al.start, al.end, al.nodes)
			live = append(live, al)
		case len(live) == 0:
		case op == 2:
			k := a % len(live)
			al := live[k]
			live = append(live[:k], live[k+1:]...)
			p.AddBusy(al.start, al.end, -al.nodes)
			ref.addBusy(al.start, al.end, -al.nodes)
		case op == 4:
			k := a % len(live)
			held := live[k]
			to, dur := float64(b), held.end-held.start
			if c%2 == 0 {
				to = p.FindEarlierAnchor(to, math.Inf(1), held.start, dur, held.nodes)
			}
			if to >= held.start {
				continue
			}
			ref.addBusy(held.start, held.end, -held.nodes)
			if ref.minAvail(to, to+dur) < held.nodes {
				ref.addBusy(held.start, held.end, held.nodes)
				continue
			}
			ref.addBusy(to, to+dur, held.nodes)
			want := &Profile{times: slices.Clone(p.times), avail: slices.Clone(p.avail)}
			want.AddBusy(held.start, held.end, -held.nodes)
			want.AddBusy(to, to+dur, held.nodes)
			before := p.String()
			p.Move(held.start, to, dur, held.nodes)
			if !slices.Equal(p.times, want.times) || !slices.Equal(p.avail, want.avail) {
				t.Fatalf("Move(%v, %v, %v, %d) turned %v into\n%v, the two AddBusy calls into\n%v",
					held.start, to, dur, held.nodes, before, p, want)
			}
			if i := ref.mismatch(p); i >= 0 {
				t.Fatalf("Move(%v, %v, %v, %d) turned %v into %v: availability %d at %d, the reference %d",
					held.start, to, dur, held.nodes, before, p, p.AvailAt(float64(i)), i, ref.avail[i])
			}
			live[k] = alloc{to, to + dur, held.nodes}
			run.moves++
		default:
			held := live[a%len(live)]
			earliest, limit, duration := float64(b), float64(b+c), held.end-held.start
			before := p.String()
			got := p.FindEarlierAnchor(earliest, limit, held.start, duration, held.nodes)
			if after := p.String(); after != before {
				t.Fatalf("FindEarlierAnchor turned %v into %v", before, after)
			}
			ref.addBusy(held.start, held.end, -held.nodes)
			want := ref.findAnchor(earliest, min(limit, held.start), duration, held.nodes)
			ref.addBusy(held.start, held.end, held.nodes)
			if got != want {
				t.Fatalf("FindEarlierAnchor(%v, %v, held %v, %v, %d) = %v, want %v\n%v",
					earliest, limit, held.start, duration, held.nodes, got, want, p)
			}
			run.last = got
			run.probes++
			if got < held.start {
				run.found++
			}
		}
		if err := p.Validate(capacity); err != nil {
			t.Fatalf("%v\n%v", err, p)
		}
	}
	return run
}

func opAlloc(start, duration, nodes int) []byte {
	return []byte{0, byte(start), byte(duration - 1), byte(nodes - 1)}
}

func opRelease(k int) []byte { return []byte{2, byte(k), 0, 0} }

// opProbe probes for the k-th live allocation over [earliest, earliest+span).
func opProbe(k, earliest, span int) []byte { return []byte{3, byte(k), byte(earliest), byte(span)} }

// opMove moves the k-th live allocation to start at to.
func opMove(k, to int) []byte { return []byte{4, byte(k), byte(to), 1} }

// probeCases are FindEarlierAnchor's unit cases in script form, on eight
// nodes; each ends in the probe whose answer is want. They seed
// FuzzProfileProbe.
var probeCases = []struct {
	name   string
	script []byte
	want   float64
}{
	{
		// [0:2][5:5][20:8]: the held 3 nodes over [10, 20) merged with the
		// 3 busy over [5, 10). The window [5, 15) crosses that segment
		// and is judged on the 5 it shows.
		name:   "segment straddling the held start, enough free",
		script: slices.Concat(opAlloc(0, 5, 6), opAlloc(5, 5, 3), opAlloc(10, 10, 3), opProbe(2, 0, 10)),
		want:   5,
	},
	{
		// [0:2][20:8]: the 2 free before 10 are all there is, whatever the
		// held 6 nodes would give back from 10 on.
		name:   "segment straddling the held start, too little free",
		script: slices.Concat(opAlloc(0, 10, 6), opAlloc(10, 10, 6), opProbe(1, 0, 10)),
		want:   math.Inf(1),
	},
	{
		// [0:0][4:8][10:5][30:8]: no breakpoint at the held end, 20.
		name:   "segment straddling the held end",
		script: slices.Concat(opAlloc(0, 4, 8), opAlloc(10, 10, 3), opAlloc(20, 10, 3), opProbe(1, 0, 10)),
		want:   4,
	},
	{
		// [0:0][3:8][10:4][12:0][16:4][20:8]: [12, 16) shows nothing free,
		// but the held 4 nodes are what fills it.
		name:   "window ending inside the held span, full but for the reservation itself",
		script: slices.Concat(opAlloc(0, 3, 8), opAlloc(10, 10, 4), opAlloc(12, 4, 4), opProbe(1, 0, 10)),
		want:   3,
	},
	{
		name:   "nothing earlier",
		script: slices.Concat(opAlloc(0, 10, 8), opAlloc(10, 5, 2), opProbe(1, 0, 40)),
		want:   math.Inf(1),
	},
	{
		// Once the 8 nodes over [0, 10) are released the held allocation
		// is the only one live.
		name:   "release opens the way",
		script: slices.Concat(opAlloc(0, 10, 8), opAlloc(10, 5, 2), opRelease(0), opProbe(0, 0, 40)),
		want:   0,
	},
	{
		name:   "first anchor at the limit",
		script: slices.Concat(opAlloc(0, 5, 8), opAlloc(20, 5, 2), opProbe(1, 0, 5)),
		want:   math.Inf(1),
	},
	{
		name:   "first anchor just inside the limit",
		script: slices.Concat(opAlloc(0, 5, 8), opAlloc(20, 5, 2), opProbe(1, 0, 6)),
		want:   5,
	},
	{
		// The limit reaches past the held start; anchors stop there.
		name:   "limit beyond the held start",
		script: slices.Concat(opAlloc(0, 20, 8), opAlloc(20, 5, 2), opProbe(1, 0, 200)),
		want:   math.Inf(1),
	},
}

// editCases are the unit cases of Profile's one-pass edit in script
// form, on eight nodes: each ends in the move or allocation that leaves
// want. runProbeScript holds every move to the two AddBusy calls it
// replaces and to the per-second reference. They seed FuzzProfileProbe.
var editCases = []struct {
	name   string
	script []byte
	want   string
}{
	{
		name:   "overlapping windows",
		script: slices.Concat(opAlloc(10, 20, 3), opMove(0, 5)),
		want:   "Profile{[0:8] [5:5] [25:8]}",
	},
	{
		name:   "destination ending where the source begins",
		script: slices.Concat(opAlloc(0, 10, 4), opAlloc(20, 10, 2), opMove(1, 10)),
		want:   "Profile{[0:4] [10:6] [20:8]}",
	},
	{
		name:   "edit starting at index 0",
		script: slices.Concat(opAlloc(5, 5, 2), opMove(0, 0)),
		want:   "Profile{[0:6] [5:8]}",
	},
	{
		// [0:5][10:8][20:5][30:8]: the destination begins on the
		// breakpoint at 10 and its segment merges into the one before.
		name:   "edit starting on a breakpoint, merging backwards",
		script: slices.Concat(opAlloc(0, 10, 3), opAlloc(20, 10, 3), opMove(1, 10)),
		want:   "Profile{[0:5] [20:8]}",
	},
	{
		// [0:8][40:7][70:8]: the held 1 node over [50, 60) has no
		// breakpoints of its own, so all four edit points are new.
		name:   "four new breakpoints",
		script: slices.Concat(opAlloc(40, 10, 1), opAlloc(50, 10, 1), opAlloc(60, 10, 1), opMove(1, 10)),
		want:   "Profile{[0:8] [10:7] [20:8] [40:7] [50:8] [60:7] [70:8]}",
	},
	{
		// A move ends at or before the last breakpoint, which is the
		// latest end of an allocation; an allocation can reach past it.
		name:   "edit reaching past the last breakpoint",
		script: slices.Concat(opAlloc(0, 10, 2), opAlloc(50, 10, 3)),
		want:   "Profile{[0:6] [10:8] [50:5] [60:8]}",
	},
	{
		// [0:8][40:7][70:8][200:7][210:8][220:7][230:8]: four new
		// breakpoints fill the ring, and the tail moves right behind them.
		name:   "four new breakpoints before a tail",
		script: slices.Concat(opAlloc(40, 10, 1), opAlloc(50, 10, 1), opAlloc(60, 10, 1), opAlloc(200, 10, 1), opAlloc(220, 10, 1), opMove(1, 10)),
		want:   "Profile{[0:8] [10:7] [20:8] [40:7] [50:8] [60:7] [70:8] [200:7] [210:8] [220:7] [230:8]}",
	},
	{
		// [0:0][5:8][40:4][60:8][200:7][210:8] loses two breakpoints and
		// its tail moves left.
		name:   "fewer breakpoints, tail moving left",
		script: slices.Concat(opAlloc(0, 5, 8), opAlloc(40, 20, 4), opAlloc(200, 10, 1), opMove(1, 5)),
		want:   "Profile{[0:0] [5:4] [25:8] [200:7] [210:8]}",
	},
}

func TestEditCases(t *testing.T) {
	for _, c := range editCases {
		if got := runProbeScript(t, c.script).profile.String(); got != c.want {
			t.Errorf("%s: the edit left %v, want %v", c.name, got, c.want)
		}
	}
	// A destination before the domain start is clipped, as AddBusy
	// clips: [5:8][10:6][30:8] trimmed from [0:8][10:6][30:8].
	p := NewProfile(0, 8)
	p.AddBusy(10, 30, 2)
	p.TrimBefore(5)
	p.Move(10, 0, 20, 2)
	if got, want := p.String(), "Profile{[5:6] [20:8]}"; got != want {
		t.Errorf("clipped destination: Move left %v, want %v", got, want)
	}
}

func TestFindEarlierAnchorCases(t *testing.T) {
	for _, c := range probeCases {
		if got := runProbeScript(t, c.script).last; got != c.want {
			t.Errorf("%s: FindEarlierAnchor = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFindEarlierAnchorAgainstBruteForce drives random scripts through
// the probe and move checks.
func TestFindEarlierAnchorAgainstBruteForce(t *testing.T) {
	probes, found, moves := 0, 0, 0
	for trial := 0; trial < 2000; trial++ {
		r := rand.New(rand.NewPCG(uint64(trial), 21))
		script := make([]byte, 4*(8+r.IntN(120)))
		for i := range script {
			script[i] = byte(r.Uint32())
		}
		run := runProbeScript(t, script)
		probes += run.probes
		found += run.found
		moves += run.moves
	}
	t.Logf("%d probes, %d found an earlier anchor; %d moves", probes, found, moves)
	if probes < 20000 || found < 2000 || moves < 8000 {
		t.Fatalf("%d probes, %d with an earlier anchor, %d moves: the scripts no longer exercise the probe and the move", probes, found, moves)
	}
}

// FuzzProfileProbe is the same check under the native fuzzer, seeded
// with the probe and move cases.
func FuzzProfileProbe(f *testing.F) {
	for _, c := range probeCases {
		f.Add(c.script)
	}
	for _, c := range editCases {
		f.Add(c.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runProbeScript(t, script) })
}
