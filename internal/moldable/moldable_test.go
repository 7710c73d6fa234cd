package moldable

import (
	"math"
	"testing"
	"testing/quick"

	"redreq/internal/rng"
)

func TestSpeedupModelTime(t *testing.T) {
	m := SpeedupModel{Work: 1000, SeqFraction: 0}
	if got := m.Time(1); got != 1000 {
		t.Errorf("Time(1) = %v", got)
	}
	if got := m.Time(10); math.Abs(got-100) > 1e-9 {
		t.Errorf("perfectly parallel Time(10) = %v, want 100", got)
	}
	m = SpeedupModel{Work: 1000, SeqFraction: 1}
	if got := m.Time(64); got != 1000 {
		t.Errorf("fully sequential Time(64) = %v, want 1000", got)
	}
	m = SpeedupModel{Work: 1000, SeqFraction: 0.1}
	// Amdahl: T(10) = 1000*(0.1 + 0.9/10) = 190.
	if got := m.Time(10); math.Abs(got-190) > 1e-9 {
		t.Errorf("Time(10) = %v, want 190", got)
	}
}

func TestSpeedupMonotone(t *testing.T) {
	m := SpeedupModel{Work: 500, SeqFraction: 0.05}
	prev := math.Inf(1)
	for n := 1; n <= 256; n *= 2 {
		tn := m.Time(n)
		if tn > prev {
			t.Fatalf("Time not nonincreasing at n=%d: %v > %v", n, tn, prev)
		}
		prev = tn
		if s := m.Speedup(n); s > float64(n)+1e-9 {
			t.Fatalf("superlinear speedup %v at n=%d", s, n)
		}
		if e := m.Efficiency(n); e > 1+1e-9 || e <= 0 {
			t.Fatalf("efficiency %v at n=%d", e, n)
		}
	}
}

func TestFromObservation(t *testing.T) {
	m, err := FromObservation(8, 190, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Time(8); math.Abs(got-190) > 1e-9 {
		t.Errorf("reconstructed Time(8) = %v, want 190", got)
	}
	for _, bad := range []struct {
		n int
		t float64
		s float64
	}{{0, 1, 0}, {1, 0, 0}, {1, 1, -0.1}, {1, 1, 1.1}} {
		if _, err := FromObservation(bad.n, bad.t, bad.s); err == nil {
			t.Errorf("FromObservation(%v) accepted", bad)
		}
	}
}

func TestVariants(t *testing.T) {
	m := SpeedupModel{Work: 1000, SeqFraction: 0.02}
	vs := m.Variants(16, 128, 2, 0.5)
	if len(vs) == 0 || vs[0].Nodes != 16 {
		t.Fatalf("variants = %+v", vs)
	}
	seen := map[int]bool{}
	for _, v := range vs {
		if seen[v.Nodes] {
			t.Fatalf("duplicate shape %d", v.Nodes)
		}
		seen[v.Nodes] = true
		if v.Nodes < 1 || v.Nodes > 128 {
			t.Fatalf("shape %d out of range", v.Nodes)
		}
		if math.Abs(v.Time-m.Time(v.Nodes)) > 1e-9 {
			t.Fatalf("variant time inconsistent: %+v", v)
		}
		if v.Nodes != 16 && m.Efficiency(v.Nodes) < 0.5 {
			t.Fatalf("inefficient shape %d kept", v.Nodes)
		}
	}
	// extra=2 around 16: candidates 8, 4, 32, 64 (efficiency
	// permitting) plus the base.
	if len(vs) < 3 {
		t.Errorf("only %d variants: %+v", len(vs), vs)
	}
}

func TestVariantsClamping(t *testing.T) {
	m := SpeedupModel{Work: 100, SeqFraction: 0}
	vs := m.Variants(256, 64, 3, 0)
	for _, v := range vs {
		if v.Nodes > 64 {
			t.Fatalf("variant %d exceeds cluster", v.Nodes)
		}
	}
	// A sequential job's wide variants get filtered by efficiency.
	seq := SpeedupModel{Work: 100, SeqFraction: 1}
	vs = seq.Variants(4, 64, 3, 0.5)
	for _, v := range vs {
		if v.Nodes > 4 {
			t.Fatalf("sequential job offered wide shape %d", v.Nodes)
		}
	}
}

func TestRandomSeqFraction(t *testing.T) {
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		s := RandomSeqFraction(src)
		if s < 0 || s > 0.3 {
			t.Fatalf("sequential fraction %v out of range", s)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (SpeedupModel{Work: 1, SeqFraction: 0.5}).Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []SpeedupModel{
		{Work: 0, SeqFraction: 0},
		{Work: -1, SeqFraction: 0},
		{Work: math.NaN(), SeqFraction: 0},
		{Work: 1, SeqFraction: -0.1},
		{Work: 1, SeqFraction: 1.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("model %+v accepted", bad)
		}
	}
}

// Property: Time is positive and nonincreasing in n for any valid
// model; Variants always include the (clamped) base shape first.
func TestQuickModelProperties(t *testing.T) {
	f := func(workRaw uint16, seqRaw uint8, n0Raw uint8) bool {
		m := SpeedupModel{
			Work:        float64(workRaw) + 1,
			SeqFraction: float64(seqRaw%101) / 100,
		}
		n0 := int(n0Raw%64) + 1
		prev := math.Inf(1)
		for n := 1; n <= 64; n *= 2 {
			tn := m.Time(n)
			if tn <= 0 || tn > prev+1e-9 {
				return false
			}
			prev = tn
		}
		vs := m.Variants(n0, 64, 2, 0.4)
		return len(vs) >= 1 && vs[0].Nodes == n0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
