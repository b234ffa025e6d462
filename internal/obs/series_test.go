package obs

import (
	"testing"

	"biza/internal/metrics"
)

const iv = 50_000 // the sampler's cadence in virtual ns

func TestTraceSeriesFromProbes(t *testing.T) {
	tr := New(Config{})
	tr.SetName("eng0")
	tr.EnableSampler()

	qd := ProbeKey(ProbeQueueDepth, 0, 0)
	busy := ProbeKey(ProbeChanWriteBusy, 0, 2)
	tr.Counter(0, qd, 1)          // tick 0 records pre-update values (0)
	tr.Counter(3*iv/2, qd, 3)     // ticks through 1 record qd=1
	tr.Counter(22*iv/10, busy, 9) // late probe: backfilled with zeros
	tr.Counter(43*iv/10, qd, 2)   // ticks 3, 4 record qd=3, busy=9

	d := tr.SeriesDumps()
	if len(d) != 2 {
		t.Fatalf("series = %d, want 2 (qd, busy)", len(d))
	}
	// Registration order is probe-first-seen order.
	if d[0].Name != ProbeName(qd) || d[1].Name != ProbeName(busy) {
		t.Fatalf("series order: %q, %q", d[0].Name, d[1].Name)
	}
	if d[0].Kind != metrics.ProbeGauge || d[1].Kind != metrics.ProbeCounter {
		t.Fatalf("series kinds: %v, %v", d[0].Kind, d[1].Kind)
	}
	if d[0].Trace != "eng0" {
		t.Fatalf("trace label = %q", d[0].Trace)
	}
	// Ticks 0..4 (the emission at 4.3 ticks catches up through tick 4).
	wantQD := []float64{0, 1, 3, 3, 3}
	wantBusy := []float64{0, 0, 0, 9, 9}
	for i, want := range wantQD {
		if d[0].Points[i] != want {
			t.Fatalf("qd series %v, want %v", d[0].Points, wantQD)
		}
		if d[1].Points[i] != wantBusy[i] {
			t.Fatalf("busy series %v, want %v", d[1].Points, wantBusy)
		}
	}
	if len(d[0].Points) != 5 || len(d[1].Points) != 5 {
		t.Fatalf("series lengths %d/%d, want 5", len(d[0].Points), len(d[1].Points))
	}
}

func TestTraceSeriesEnableAfterProbes(t *testing.T) {
	tr := New(Config{})
	key := ProbeKey(ProbeOpenZones, 1, 0)
	tr.Counter(iv/2, key, 4)
	tr.EnableSampler()
	tr.Counter(5*iv/2, key, 6)
	d := tr.SeriesDumps()
	if len(d) != 1 {
		t.Fatalf("series = %d, want 1", len(d))
	}
	// Ticks 0, 1, 2 all see the pre-update value 4.
	want := []float64{4, 4, 4}
	if len(d[0].Points) != len(want) {
		t.Fatalf("points %v, want %v", d[0].Points, want)
	}
	for i := range want {
		if d[0].Points[i] != want[i] {
			t.Fatalf("points %v, want %v", d[0].Points, want)
		}
	}
}

func TestTraceAdvanceSamplerExtendsSeries(t *testing.T) {
	tr := New(Config{})
	tr.EnableSampler()
	key := ProbeKey(ProbeQueueDepth, 0, 0)
	tr.Counter(iv/10, key, 5)
	tr.AdvanceSampler(51 * iv / 10) // probe-quiet tail still gets sampled
	d := tr.SeriesDumps()
	if got := len(d[0].Points); got != 6 {
		t.Fatalf("points after AdvanceSampler = %d, want 6 (%v)", got, d[0].Points)
	}
	if last := d[0].Points[5]; last != 5 {
		t.Fatalf("tail value = %v, want 5", last)
	}
}

func TestTraceSeriesNilSafety(t *testing.T) {
	var tr *Trace
	tr.EnableSampler()
	tr.AdvanceSampler(100)
	if tr.SeriesDumps() != nil {
		t.Fatal("nil trace SeriesDumps should be nil")
	}
	on := New(Config{})
	if on.SeriesDumps() != nil {
		t.Fatal("sampler-less trace SeriesDumps should be nil")
	}
}

// Counter with a sampler enabled must stay allocation-free in steady state
// (after all probes have been seen once).
func TestCounterWithSamplerAllocFree(t *testing.T) {
	tr := New(Config{Capacity: 1 << 12})
	tr.EnableSampler()
	key := ProbeKey(ProbeQueueDepth, 0, 0)
	tr.Counter(0, key, 1) // registration alloc happens here
	ts := int64(0)
	allocs := testing.AllocsPerRun(4000, func() {
		ts += 33 * iv / 100
		tr.Counter(ts, key, ts%7)
	})
	if allocs != 0 {
		t.Fatalf("Counter with sampler allocates %.2f/op, want 0", allocs)
	}
}

func TestTailJSONL(t *testing.T) {
	tr := New(Config{})
	tr.SetName("x")
	id := tr.SpanBegin(100, LayerBIZA, OpWrite, 0, 1, 8, 4)
	tr.SpanEnd(id, 300, false)
	tr.Counter(400, ProbeKey(ProbeQueueDepth, 0, 0), 2)
	lines := tr.TailJSONL(2)
	if len(lines) != 2 {
		t.Fatalf("tail = %d lines, want 2", len(lines))
	}
	if want := `{"trace":1,"ts":400,"rec":"counter","probe":"qd/dev0","value":2}`; lines[1] != want {
		t.Fatalf("tail[1] = %s, want %s", lines[1], want)
	}
	if lines[0] == "" || lines[0][0] != '{' {
		t.Fatalf("tail[0] not JSONL: %s", lines[0])
	}
	var nilT *Trace
	if nilT.TailJSONL(5) != nil {
		t.Fatal("nil trace TailJSONL should be nil")
	}
}
