package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestManifestNamesWorkloads: BENCHMARK.json and the program agree on the
// workloads, and the manifest has the metric the contract requires.
func TestManifestNamesWorkloads(t *testing.T) {
	man := testManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for _, w := range man.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s")
	}
}

// TestSmoke runs every workload end to end at the tiny scale, twice: each
// run must pass its own output checks (which include BENCHMARK.json and
// emitted names being equal sets) and the two must agree on sim_digest.
func TestSmoke(t *testing.T) {
	man := testManifest(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			a := runWorkload(w, 3, scaleByName("tiny"), 0, false, man, io.Discard)
			b := runWorkload(w, 3, scaleByName("tiny"), 0, false, man, io.Discard)
			for _, p := range append(a.Problems, b.Problems...) {
				t.Error(p)
			}
			if a.SimDigest != b.SimDigest {
				t.Errorf("sim_digest %s then %s for the same seed", a.SimDigest, b.SimDigest)
			}
			if c := runWorkload(w, 4, scaleByName("tiny"), 0, false, man, io.Discard); c.SimDigest == a.SimDigest {
				t.Errorf("seeds 3 and 4 give the same sim_digest %s: the seed does not reach the workload", a.SimDigest)
			}
			if a.Failed != 0 || a.Attempted == 0 {
				t.Errorf("%d of %d user I/Os failed", a.Failed, a.Attempted)
			}
			if len(a.Metrics) != len(man.EndToEnd) {
				t.Errorf("%d end-to-end metrics emitted, BENCHMARK.json lists %d", len(a.Metrics), len(man.EndToEnd))
			}
			line := a.contractLine()
			var parsed struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  *string
				}
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&parsed); err != nil {
				t.Fatalf("result line %s: %v", line, err)
			}
			if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(man.EndToEnd) {
				t.Errorf("result line lacks a key: %s", line)
			}
		})
	}
}

// TestTraceFold runs the per-layer mode (ladder, boundary counters, traced
// and profiled repetitions) on the workload with the most layers under it.
// The run's own checks cover the rest: every per-layer name of
// BENCHMARK.json emitted and no other, stage means summing to the
// end-to-end mean, hostshare.* summing to 1, the traced repetitions
// simulating exactly what the untraced ones did.
func TestTraceFold(t *testing.T) {
	man := testManifest(t)
	outDir = t.TempDir()
	res := runWorkload(workloadByName("tenant-mix"), 3, scaleByName("tiny"), 0, true, man, io.Discard)
	for _, p := range res.Problems {
		t.Error(p)
	}
	if len(res.Metrics) != len(man.PerLayer) {
		t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(man.PerLayer))
	}
	for _, name := range []string{"obs.volume_read.e2e_us", "obs.biza_write.e2e_us", "volume.host_ns_per_op",
		"sim.host_ns_per_event", "zns.programmed_bytes"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive number", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "tenant-mix.trace.jsonl")); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := testManifest(t)
	dir := t.TempDir()
	write := func(name string, hostNS []float64) string {
		var set []*result
		for i, v := range hostNS {
			set = append(set, &result{Workload: "seq-write", Seed: uint64(i), SimDigest: "d",
				Metrics: map[string]stat{"host_ns_per_io": {Value: v}}})
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 0.0
	for _, d := range man.EndToEnd {
		if d.Name == "host_ns_per_io" {
			bound = d.Bound
		}
	}
	steady := write("a.json", []float64{100, 100.2, 99.9, 100.1, 100})
	for _, c := range []struct {
		name    string
		b       []float64
		verdict string
		ok      bool
	}{
		{"same", []float64{100.1, 100, 100, 100.2, 99.8}, "no worse", true},
		{"slower", []float64{100, 100.2, 99.9, 100.1, 100}, "worse", false},
		{"faster", []float64{90, 90.2, 89.9, 90.1, 90}, "better", true},
	} {
		b := c.b
		if c.name == "slower" {
			for i := range b {
				b[i] *= 1 + 2*bound
			}
		}
		var out strings.Builder
		ok := compareSets(&out, man, steady, write(c.name+".json", b))
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
	noisy := write("noisy.json", []float64{100, 100 * (1 + 3*bound), 100, 100 * (1 + 3*bound), 100 * (1 + 1.5*bound)})
	var out strings.Builder
	if !compareSets(&out, man, noisy, steady) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a parent spread wider than the bound must read unresolved:\n%s", out.String())
	}
}

func TestZipfAndRNGAreDeterministic(t *testing.T) {
	a, b := newRNG(9), newRNG(9)
	z := newZipf(100, 0.9)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		x, y := z.draw(a), z.draw(b)
		if x != y {
			t.Fatalf("draw %d: %d then %d from the same seed", i, x, y)
		}
		counts[x]++
	}
	// P(0)/P(9) = 10^0.9 ≈ 7.9
	if r := float64(counts[0]) / float64(counts[9]); math.Abs(r-7.9) > 1.5 {
		t.Errorf("rank 0 drawn %.1f times as often as rank 9, want about 7.9", r)
	}
}
