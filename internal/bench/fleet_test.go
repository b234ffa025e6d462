package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"biza/internal/obs"
	"biza/internal/sim"
)

// fleetScale is a test-sized fleet: big enough that clients genuinely
// hop across shards and collide on popular arrays, small enough to run
// under -race in CI.
func fleetScale() Scale {
	s := QuickScale()
	s.Duration = 2 * sim.Millisecond
	s.FleetArrays = 12
	s.FleetClients = 96
	return s
}

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

func TestFleetShardCountInvariance(t *testing.T) {
	checkShardInvariance(t, "fleet", fleetScale(), true, 2, 3, 8)
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

// TestFleetSanity checks the experiment does real work at test scale:
// every client makes progress and cross-array hops actually happen.
func TestFleetSanity(t *testing.T) {
	rep := runSharded(t, "fleet", fleetScale(), 4, true)
	res := &rep.Results[0]
	if len(res.Tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(res.Tables))
	}
	c := &cells{tables: res.Tables}
	fairness := c.table("fleet-clients")
	c.must(t)
	if row := fairness.Rows[0]; row[1] == "0" {
		t.Errorf("some client completed zero ops: %v", row)
	}
	if res.Stats.VirtualNanos == 0 {
		t.Error("no virtual time credited")
	}
	// The JSON round-trip must stay deterministic too (the CI determinism
	// gate compares serialized reports).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}
