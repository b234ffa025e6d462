package metrics

import (
	"testing"
)

const iv = seriesInterval

func TestSamplerTicksAtInterval(t *testing.T) {
	s := NewSampler()
	var v float64
	s.Register("x", ProbeGauge, func() float64 { return v })

	// First advance covers ticks at t=0..5 intervals inclusive: 6 ticks.
	v = 1
	s.Advance(5 * iv)
	if s.count != 6 {
		t.Fatalf("Len = %d, want 6", s.count)
	}
	// A catch-up jump records the missing ticks with the value visible at
	// advance time (piecewise-constant interpolation).
	v = 7
	s.Advance(10 * iv)
	if s.count != 11 {
		t.Fatalf("Len = %d, want 11", s.count)
	}
	d := s.Dump("tr")
	if len(d) != 1 {
		t.Fatalf("Dump series = %d, want 1", len(d))
	}
	want := []float64{1, 1, 1, 1, 1, 1, 7, 7, 7, 7, 7}
	if len(d[0].Points) != len(want) {
		t.Fatalf("points = %v, want %v", d[0].Points, want)
	}
	for i, p := range d[0].Points {
		if p != want[i] {
			t.Fatalf("points[%d] = %v, want %v (all: %v)", i, p, want[i], want)
		}
	}
	if d[0].Trace != "tr" || d[0].Name != "x" || d[0].Kind != ProbeGauge || d[0].IntervalNs != 50_000 {
		t.Fatalf("dump metadata wrong: %+v", d[0])
	}
}

func TestSamplerAdvanceIsIdempotentAtSameTime(t *testing.T) {
	s := NewSampler()
	s.Register("x", ProbeCounter, func() float64 { return 1 })
	s.Advance(5 * iv / 2)
	n := s.count
	s.Advance(5 * iv / 2)
	s.Advance(5 * iv / 2)
	if s.count != n {
		t.Fatalf("re-advancing at same ts grew series: %d -> %d", n, s.count)
	}
}

// TestSamplerDecimation feeds a ramp (at tick k the source reads k) one
// tick at a time. The ring holds 512 points at 50 us; the 513th tick
// decimates it to every other point and the cadence becomes 100 us.
func TestSamplerDecimation(t *testing.T) {
	s := NewSampler()
	tick := 0.0
	s.Register("t", ProbeGauge, func() float64 { return tick })
	advance := func(k int) {
		tick = float64(k)
		s.Advance(int64(k) * iv)
	}
	for k := 0; k < 512; k++ {
		advance(k)
	}
	if s.count != 512 || s.interval != 50_000 {
		t.Fatalf("after 512 ticks: Len %d interval %d, want 512 at 50 us", s.count, s.interval)
	}
	advance(512)
	if s.count != 257 || s.interval != 100_000 {
		t.Fatalf("after tick 513: Len %d interval %d, want 257 at 100 us", s.count, s.interval)
	}
	// Odd ticks now fall between samples; even ones land on the cadence.
	for k := 513; k < 800; k++ {
		advance(k)
	}
	if s.count != 400 {
		t.Fatalf("Len = %d, want 400 at the doubled cadence", s.count)
	}
	// Point j holds the value from 50 us tick 2j: a prefix-preserving
	// subsample whose last point is within one interval of the run's end.
	for j, p := range s.Dump("")[0].Points {
		if want := float64(2 * j); p != want {
			t.Fatalf("decimated points[%d] = %v, want %v", j, p, want)
		}
	}
}

func TestSamplerLateRegistrationBackfillsZero(t *testing.T) {
	s := NewSampler()
	s.Register("a", ProbeCounter, func() float64 { return 1 })
	s.Advance(4 * iv) // 5 ticks
	s.Register("b", ProbeCounter, func() float64 { return 2 })
	s.Advance(8 * iv) // 4 more
	d := s.Dump("")
	if len(d) != 2 {
		t.Fatalf("series = %d, want 2", len(d))
	}
	if len(d[0].Points) != len(d[1].Points) {
		t.Fatalf("series lengths differ: %d vs %d", len(d[0].Points), len(d[1].Points))
	}
	for i, p := range d[1].Points {
		want := 0.0
		if i >= 5 {
			want = 2.0
		}
		if p != want {
			t.Fatalf("late series points[%d] = %v, want %v (%v)", i, p, want, d[1].Points)
		}
	}
}

func TestSamplerDumpCopies(t *testing.T) {
	s := NewSampler()
	s.Register("a", ProbeGauge, func() float64 { return 3 })
	s.Advance(2 * iv)
	d := s.Dump("")
	d[0].Points[0] = -1
	d2 := s.Dump("")
	if d2[0].Points[0] != 3 {
		t.Fatalf("Dump aliases internal ring: %v", d2[0].Points)
	}
}

func TestSamplerNilDump(t *testing.T) {
	var s *Sampler
	if s.Dump("x") != nil {
		t.Fatal("nil sampler Dump should be nil")
	}
}

// The sampler hot path (Due check + catch-up Advance) must never allocate
// in steady state, including across decimations: rings are preallocated at
// full capacity and decimation compacts in place. 5000 advances of 0.7
// intervals cross three decimations.
func TestSamplerAdvanceAllocFree(t *testing.T) {
	s := NewSampler()
	s.Register("a", ProbeGauge, func() float64 { return 1 })
	s.Register("b", ProbeCounter, func() float64 { return 2 })
	ts := int64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		ts += 7 * iv / 10
		if s.Due(ts) {
			s.Advance(ts)
		}
	})
	if allocs != 0 {
		t.Fatalf("sampler Advance allocates %.1f/op, want 0", allocs)
	}
	if s.interval < 8*iv {
		t.Fatalf("interval %d: fewer than three decimations crossed", s.interval)
	}
}

func BenchmarkSamplerAdvance(b *testing.B) {
	s := NewSampler()
	for i := 0; i < 8; i++ {
		v := float64(i)
		s.Register("s", ProbeGauge, func() float64 { return v })
	}
	b.ReportAllocs()
	b.ResetTimer()
	ts := int64(0)
	for i := 0; i < b.N; i++ {
		ts += iv
		s.Advance(ts)
	}
}
