package bench

import (
	"testing"

	"biza/internal/obs"
)

// TestTraceParallelDeterminism is the observability determinism contract:
// with tracing on, the same seed must yield byte-identical exported traces
// at -parallel 1 and -parallel 8. Trace names derive from (experiment,
// point, construction ordinal), record streams from the deterministic
// engines, and the Runner assembles Report.Traces in canonical point
// order, so scheduling must not leak into the artifact.
func TestTraceParallelDeterminism(t *testing.T) {
	s := QuickScale()
	s.Duration /= 4 // tracing multiplies per-run work; keep the test fast
	run := func(parallel int) *Report {
		return (&Runner{Scale: s, Seed: 7, Parallel: parallel,
			Trace: &obs.Config{}}).Run([]string{"fig10"})
	}
	r1, r8 := run(1), run(8)
	if err := r1.Results[0].Error; err != "" {
		t.Fatalf("fig10 failed: %s", err)
	}
	if len(r1.Traces) == 0 {
		t.Fatal("no traces collected")
	}
	if len(r1.Traces) != len(r8.Traces) {
		t.Fatalf("trace counts differ: %d vs %d", len(r1.Traces), len(r8.Traces))
	}

	if exportTraces(t, r1) != exportTraces(t, r8) {
		t.Error("exported traces differ between -parallel 1 and 8")
	}

	// The observability side-channel must not perturb results either:
	// histograms and probe snapshots are part of the v2 artifact.
	a, b := r1.Results[0], r8.Results[0]
	if len(a.Histograms) == 0 || len(a.Histograms) != len(b.Histograms) {
		t.Fatalf("histograms: %d vs %d", len(a.Histograms), len(b.Histograms))
	}
	for i := range a.Histograms {
		if a.Histograms[i].Name != b.Histograms[i].Name ||
			a.Histograms[i].Summary != b.Histograms[i].Summary {
			t.Errorf("histogram %d differs: %+v vs %+v", i, a.Histograms[i], b.Histograms[i])
		}
	}
	if len(a.Stats.Probes) == 0 {
		t.Fatal("no probe snapshots in stats")
	}
}

// TestTraceSampling: sampling keeps every Nth I/O span but never drops
// typed events, and the trace name records the originating point.
func TestTraceSampling(t *testing.T) {
	s := QuickScale()
	s.Duration /= 4
	full := (&Runner{Scale: s, Seed: 7, Parallel: 2,
		Trace: &obs.Config{}}).Run([]string{"fig10"})
	sampled := (&Runner{Scale: s, Seed: 7, Parallel: 2,
		Trace: &obs.Config{SampleN: 16}}).Run([]string{"fig10"})
	if len(full.Traces) != len(sampled.Traces) {
		t.Fatalf("trace counts differ: %d vs %d", len(full.Traces), len(sampled.Traces))
	}
	var fullLen, sampledLen int
	for i := range full.Traces {
		if full.Traces[i].Name() != sampled.Traces[i].Name() {
			t.Fatalf("trace %d name: %q vs %q", i, full.Traces[i].Name(), sampled.Traces[i].Name())
		}
		fullLen += full.Traces[i].Len()
		sampledLen += sampled.Traces[i].Len()
	}
	if sampledLen >= fullLen {
		t.Fatalf("sampling did not shrink the trace: %d >= %d records", sampledLen, fullLen)
	}
}
