package bench

import (
	"math"
	"testing"
)

// TestSeriesParallelDeterminism: with series collection on, the sampled
// virtual-time series are part of the result artifact and must be
// byte-identical at any -parallel value. The sampler is driven purely by
// each engine's deterministic probe emission stream, so scheduling must
// not leak in.
func TestSeriesParallelDeterminism(t *testing.T) {
	s := QuickScale()
	s.Duration /= 4
	run := func(parallel int) *Report {
		return (&Runner{Scale: s, Seed: 7, Parallel: parallel,
			Series: true}).Run([]string{"fig10"})
	}
	r1, r8 := run(1), run(8)
	if err := r1.Results[0].Error; err != "" {
		t.Fatalf("fig10 failed: %s", err)
	}
	a, b := r1.Results[0], r8.Results[0]
	if len(a.Series) == 0 {
		t.Fatal("no series collected with Runner.Series set")
	}
	if !sameJSON(t, a.Series, b.Series) {
		t.Fatal("series differ between -parallel 1 and 8")
	}
	for _, sd := range a.Series {
		if sd.Name == "" || sd.IntervalNs <= 0 {
			t.Fatalf("malformed series dump: %+v", sd)
		}
		if len(sd.Points) == 0 {
			t.Fatalf("series %s/%s has no points", sd.Trace, sd.Name)
		}
		for _, p := range sd.Points {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("series %s/%s contains non-finite point", sd.Trace, sd.Name)
			}
		}
	}
}

// Series collection must not perturb the simulation: a plain run and a
// series-collecting run must produce identical tables and samples.
func TestSeriesDoesNotPerturbResults(t *testing.T) {
	s := QuickScale()
	s.Duration /= 4
	plain := (&Runner{Scale: s, Seed: 7, Parallel: 2}).Run([]string{"fig10"})
	sampled := (&Runner{Scale: s, Seed: 7, Parallel: 2,
		Series: true}).Run([]string{"fig10"})
	if !sameJSON(t, plain.Results[0].Samples, sampled.Results[0].Samples) {
		t.Fatal("enabling series collection changed experiment samples")
	}
}
