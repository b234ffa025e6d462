package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"biza/internal/obs"
)

// runSharded runs one sharded experiment on shards engine shards, every
// span traced when trace is set.
func runSharded(t *testing.T, id string, s Scale, shards int, trace bool) *Report {
	t.Helper()
	rn := &Runner{Scale: s, Seed: DefaultSeed, Parallel: 1, Shards: shards, Quick: true}
	if trace {
		rn.Trace = &obs.Config{SampleN: 1}
	}
	rep := rn.Run([]string{id})
	if failed := rep.Failed(); len(failed) > 0 {
		t.Fatalf("shards=%d: %s failed: %s", shards, id, rep.Results[0].Error)
	}
	return rep
}

// checkShardInvariance pins the sharded event core's contract end to end:
// tables, samples, histograms, virtual time and exported traces of id are
// byte-identical at every shard count. Run with -race to also exercise the
// cross-shard barrier for data races.
func checkShardInvariance(t *testing.T, id string, s Scale, trace bool, shardCounts ...int) {
	ref := runSharded(t, id, s, 1, trace)
	refTrace := exportTraces(t, ref)
	for _, shards := range shardCounts {
		got := runSharded(t, id, s, shards, trace)
		a, b := &ref.Results[0], &got.Results[0]
		if !reflect.DeepEqual(a.Tables, b.Tables) {
			t.Errorf("shards=%d: tables differ from shards=1:\n%s\nvs\n%s",
				shards, renderTables(a.Tables), renderTables(b.Tables))
		}
		if !reflect.DeepEqual(a.Samples, b.Samples) {
			t.Errorf("shards=%d: samples differ from shards=1", shards)
		}
		if !reflect.DeepEqual(a.Histograms, b.Histograms) {
			t.Errorf("shards=%d: histograms differ from shards=1", shards)
		}
		if a.Stats.VirtualNanos != b.Stats.VirtualNanos {
			t.Errorf("shards=%d: virtual time %d, shards=1 got %d",
				shards, b.Stats.VirtualNanos, a.Stats.VirtualNanos)
		}
		if exportTraces(t, got) != refTrace {
			t.Errorf("shards=%d: exported traces differ from shards=1", shards)
		}
	}
}

// exportTraces hashes the report's traces through both deterministic
// exporters, so a single compare covers both formats without holding
// either export in memory.
func exportTraces(t *testing.T, rep *Report) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := obs.WritePerfetto(h, rep.Traces); err != nil {
		t.Fatalf("perfetto export: %v", err)
	}
	if err := obs.WriteJSONL(h, rep.Traces); err != nil {
		t.Fatalf("jsonl export: %v", err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func renderTables(ts []*Table) string {
	var buf bytes.Buffer
	for _, tb := range ts {
		buf.WriteString(tb.String())
		buf.WriteByte('\n')
	}
	return buf.String()
}

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
