package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestRunnerParallelDeterminism is the determinism contract of the issue:
// a quick-scale experiment must produce identical Result values at
// -parallel 1 and -parallel 8 for the same seed, because every RNG stream
// derives from (seed, experiment, stream label), never from scheduling.
func TestRunnerParallelDeterminism(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 1500
	ids := []string{"table3", "fig5", "batching"}
	r1 := (&Runner{Scale: s, Seed: 7, Parallel: 1}).Run(ids)
	r8 := (&Runner{Scale: s, Seed: 7, Parallel: 8}).Run(ids)
	if len(r1.Results) != len(ids) || len(r8.Results) != len(ids) {
		t.Fatalf("result counts: %d vs %d, want %d", len(r1.Results), len(r8.Results), len(ids))
	}
	for i := range r1.Results {
		a, b := &r1.Results[i], &r8.Results[i]
		if a.Error != "" || b.Error != "" {
			t.Fatalf("%s failed: p1=%q p8=%q", a.Experiment, a.Error, b.Error)
		}
		if !reflect.DeepEqual(a.Tables, b.Tables) {
			t.Errorf("%s: tables differ between -parallel 1 and 8:\n%v\nvs\n%v",
				a.Experiment, renderTables(a.Tables), renderTables(b.Tables))
		}
		if !reflect.DeepEqual(a.Samples, b.Samples) {
			t.Errorf("%s: samples differ between -parallel 1 and 8", a.Experiment)
		}
		// The serialized metric payload must be byte-identical too.
		if !sameJSON(t, []any{a.Tables, a.Samples}, []any{b.Tables, b.Samples}) {
			t.Errorf("%s: JSON payloads differ", a.Experiment)
		}
	}
}

// sameJSON reports whether a and b marshal to the same bytes.
func sameJSON(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestRunnerSeedSensitivity guards against accidentally ignoring the base
// seed: different seeds must (for a stochastic experiment) change values.
func TestRunnerSeedSensitivity(t *testing.T) {
	s := QuickScale()
	s.TraceOps = 800
	ids := []string{"wear"}
	a := (&Runner{Scale: s, Seed: 1, Parallel: 2}).Run(ids)
	b := (&Runner{Scale: s, Seed: 99, Parallel: 2}).Run(ids)
	if reflect.DeepEqual(a.Results[0].Samples, b.Results[0].Samples) {
		t.Fatal("seed 1 and seed 99 produced identical wear samples")
	}
}

// TestRunnerRecoversPanics: a panicking point must fail only its own
// experiment, leave the rest of the sweep intact, and surface in
// Report.Failed so the CLI can exit non-zero.
func TestRunnerRecoversPanics(t *testing.T) {
	const id = "panic-test"
	Experiments[id] = &Experiment{ID: id, Points: []string{"ok", "boom"},
		RunPoint: func(s Scale, r *Run, pt string) []*Table {
			if pt == "boom" {
				panic("injected failure")
			}
			return []*Table{{ID: id, Header: []string{"k", "v"}, Rows: [][]string{{"x", "1"}}}}
		}}
	defer delete(Experiments, id)

	rep := (&Runner{Scale: QuickScale(), Seed: 1, Parallel: 2}).Run([]string{id, "table2"})
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	bad := rep.Results[0]
	if bad.Error == "" || bad.Tables != nil {
		t.Fatalf("panicking experiment: error=%q tables=%v", bad.Error, bad.Tables)
	}
	good := rep.Results[1]
	if good.Error != "" || len(good.Samples) == 0 {
		t.Fatalf("healthy experiment affected: %+v", good)
	}
	if failed := rep.Failed(); len(failed) != 1 || failed[0] != id {
		t.Fatalf("Failed() = %v", failed)
	}
}

// TestRunnerUnknownExperiment: unknown ids become recorded failures, not
// panics.
func TestRunnerUnknownExperiment(t *testing.T) {
	rep := (&Runner{Scale: QuickScale(), Seed: 1, Parallel: 1}).Run([]string{"no-such-exp"})
	if rep.Results[0].Error == "" || len(rep.Failed()) != 1 {
		t.Fatalf("unknown id not reported: %+v", rep.Results[0])
	}
}

func TestTableSamples(t *testing.T) {
	tab := &Table{ID: "fig10a", Header: []string{"platform", "seq4K", "rand4K"}}
	tab.Add("BIZA", "123.4", "56.7")
	tab.Add("RAIZN", "99.0", "-")
	got := tab.Samples()
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3 (dash skipped): %+v", len(got), got)
	}
	if got[0].Labels["platform"] != "BIZA" || got[0].Metric != "seq4K" || got[0].Value != 123.4 {
		t.Fatalf("sample[0] = %+v", got[0])
	}
	if got[2].Labels["platform"] != "RAIZN" || got[2].Metric != "seq4K" {
		t.Fatalf("sample[2] = %+v", got[2])
	}
	// Composite cells contribute their aggregate; multi-label tables keep
	// every identity column.
	wa := &Table{ID: "fig15", LabelCols: 3,
		Header: []string{"platform", "depth", "size_KB", "p9999_us"}}
	wa.Add("BIZA", "1", "64", "812.5")
	s := wa.Samples()
	if len(s) != 1 || s[0].Labels["depth"] != "1" || s[0].Unit != "us" {
		t.Fatalf("fig15 samples = %+v", s)
	}
	if key := s[0].SampleKey(); key != "fig15/p9999_us[depth=1][platform=BIZA][size_KB=64]" {
		t.Fatalf("SampleKey = %q", key)
	}
	comp := &Table{ID: "fig14", Header: []string{"workload", "BIZA"}}
	comp.Add("casa", "1.23(1.00+0.23)")
	cs := comp.Samples()
	if len(cs) != 1 || cs[0].Value != 1.23 {
		t.Fatalf("composite samples = %+v", cs)
	}
}
