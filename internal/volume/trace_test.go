package volume

import (
	"bytes"
	"math"
	"testing"

	"biza/internal/obs"
)

// The volume layer must emit spans with qos-stall and queue stage marks
// that the attribution engine decomposes exactly.
func TestVolumeSpansAndStageMarks(t *testing.T) {
	eng, _, m := newManager(t, 1<<20, Config{MaxInflight: 1})
	tr := obs.New(obs.Config{})
	tr.SetName("vol")
	m.SetTracer(tr)

	// Tenant a: 1-block burst and a slow refill, so its second write
	// stalls at the token bucket. Tenant b: unlimited, but MaxInflight=1
	// makes it wait in the fair queue behind a's dispatch.
	a, err := m.Open("a", Options{Blocks: 1 << 10, QoS: QoS{RateBytesPerSec: 4096 << 10, BurstBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Open("b", Options{Blocks: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a.Write(0, 1, nil, nil)
	a.Write(1, 1, nil, nil) // gated: bucket is empty
	b.Write(0, 1, nil, nil) // queued: in-flight window held by a
	b.Read(0, 1, nil)
	eng.Run()

	var begins, ends, qosMarks, queueMarks int
	for _, r := range tr.Records() {
		switch r.Kind {
		case obs.RecSpanBegin:
			if r.Layer == obs.LayerVolume {
				begins++
			}
		case obs.RecSpanEnd:
			ends++
		case obs.RecMark:
			if r.Layer != obs.LayerVolume {
				continue
			}
			switch obs.Phase(r.Sub) {
			case obs.PhaseQoS:
				qosMarks++
			case obs.PhaseQueue:
				queueMarks++
			}
			if r.Arg0 <= r.TS {
				t.Fatalf("zero/negative-duration mark emitted: %+v", r)
			}
		}
	}
	if begins != 4 || ends != 4 {
		t.Fatalf("spans: %d begins, %d ends, want 4/4", begins, ends)
	}
	if qosMarks == 0 {
		t.Fatal("no qos-stall marks despite a token-bucket stall")
	}
	if queueMarks == 0 {
		t.Fatal("no queue marks despite WFQ backlog")
	}

	// End-to-end check through the export + attribution pipeline: stage
	// means must sum exactly to the e2e mean for every volume group.
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, []*obs.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	attr, err := obs.Attribute(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Spans != 4 {
		t.Fatalf("attributed %d spans, want 4", attr.Spans)
	}
	var sawQoS bool
	for _, g := range attr.Procs[0].Groups {
		var sum float64
		for st, h := range g.Stage {
			sum += h.Mean()
			if st == obs.StageQoS && h.Max() > 0 {
				sawQoS = true
			}
		}
		if e2e := g.E2E.Mean(); math.Abs(sum-e2e) > 1e-9 {
			t.Fatalf("group %s: stage means sum %v != e2e mean %v", g.Name, sum, e2e)
		}
	}
	if !sawQoS {
		t.Fatal("attribution shows no qos-stall time")
	}
}

// With a tracer AND a series sampler attached, the steady-state volume
// cycle must still allocate nothing: ring emission overwrites in place
// once the ring has wrapped, probe aggregates and sampler sources are
// registered once, and stage marks are flat records.
func TestVolumeTracedSteadyStateAllocationFree(t *testing.T) {
	eng, _, m := newManager(t, 1<<20, Config{MaxInflight: 4})
	tr := obs.New(obs.Config{Capacity: 256}) // small ring: wraps during warm-up
	tr.EnableSampler()
	m.SetTracer(tr)
	v, _ := m.Open("v", Options{Blocks: 1 << 12})
	warm := func(n int) {
		for i := 0; i < n; i++ {
			v.Write(0, 4, nil, nil)
		}
		eng.Run()
	}
	warm(64)
	if tr.Dropped() == 0 {
		t.Fatal("warm-up did not wrap the ring; alloc measurement would see append growth")
	}
	allocs := testing.AllocsPerRun(50, func() { warm(8) })
	if allocs > 0 {
		t.Fatalf("traced steady-state cycle allocates %.1f per run", allocs)
	}
}
