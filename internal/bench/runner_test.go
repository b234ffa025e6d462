package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"biza/internal/obs"
	"biza/internal/sim"
)

// runExperiment runs one experiment at Parallel 1, every span traced
// when trace is set.
func runExperiment(t *testing.T, id string, s Scale, trace bool) *Report {
	t.Helper()
	rn := &Runner{Scale: s, Seed: DefaultSeed, Parallel: 1, Quick: true}
	if trace {
		rn.Trace = &obs.Config{SampleN: 1}
	}
	rep := rn.Run([]string{id})
	if failed := rep.Failed(); len(failed) > 0 {
		t.Fatalf("%s failed: %s", id, rep.Results[0].Error)
	}
	return rep
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

// TestRunArrays: every array's engine ends on the first drain step at which
// all arrays are quiet, credited once to the run; an array still busy at
// the limit reports false; a panic on one array's goroutine reaches the
// caller naming that array, after the other goroutines have returned.
func TestRunArrays(t *testing.T) {
	const w = 20 * sim.Microsecond
	newEngines := func() []*sim.Engine {
		return []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	}

	var vt atomic.Int64
	r := &Run{vt: &vt}
	engs := newEngines()
	engs[1].At(5*w+1, func() {}) // one array's tail outlives the horizon
	if !r.runArrays(engs, 4*w, w, 100*w) {
		t.Fatal("quiet arrays reported busy")
	}
	for i, eng := range engs {
		if eng.Now() != 6*w {
			t.Errorf("array %d ended at %d, want %d", i, eng.Now(), 6*w)
		}
	}
	if vt.Load() != 6*w {
		t.Errorf("virtual time credited %d, want %d", vt.Load(), 6*w)
	}

	engs = newEngines()
	engs[2].At(200*w, func() {})
	if r.runArrays(engs, 4*w, w, 100*w) {
		t.Error("an array busy past the limit reported quiet")
	}

	engs = newEngines()
	var fired [3]bool
	for i, eng := range engs {
		eng.At(w, func() {
			if i == 1 {
				panic("boom")
			}
			fired[i] = true
		})
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "array 1 panicked: boom") {
			t.Fatalf("panic = %q, want it to name array 1", msg)
		}
		for _, i := range []int{0, 2} {
			if !fired[i] || engs[i].Now() != 4*w {
				t.Errorf("array %d had not finished when the panic surfaced", i)
			}
		}
	}()
	r.runArrays(engs, 4*w, w, 100*w)
	t.Fatal("runArrays returned despite a panicking array")
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
