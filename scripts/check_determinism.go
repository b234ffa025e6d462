//go:build ignore

// Command check_determinism gates CI on bit-identical bizabench output:
// given two or more JSON reports produced by runs that differ only in
// execution layout (the -parallel worker count) or only in code that must
// not move simulated results (a refactor against its parent), it fails
// (non-zero exit) unless every simulation-derived field matches the first
// report exactly.
//
// Compared per result: experiment id, error, tables (cell for cell),
// samples, histogram dumps, virtual-time series (point for point), and
// observability probe readings; plus report schema, seed, quick flag, and
// total virtual nanoseconds. Deliberately
// ignored: wall-clock accounting (stats.wall_ns, wall_ns) and the
// parallel provenance field, which are the only values allowed to differ
// between layouts.
//
// Usage: go run scripts/check_determinism.go ref.json other.json [more.json ...]
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"biza/internal/bench"
	"biza/internal/metrics"
)

func main() {
	if len(os.Args) < 3 {
		fail("usage: check_determinism <ref.json> <other.json> [more.json ...]")
	}
	ref := load(os.Args[1])
	for _, path := range os.Args[2:] {
		diff(os.Args[1], ref, path, load(path))
	}
	samples := 0
	for i := range ref.Results {
		samples += len(ref.Results[i].Samples)
	}
	fmt.Printf("determinism ok: %d report(s), %d experiment(s), %d samples identical\n",
		len(os.Args)-1, len(ref.Results), samples)
}

func load(path string) *bench.Report {
	buf, err := os.ReadFile(path)
	if err != nil {
		fail("reading %s: %v", path, err)
	}
	var rep bench.Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		fail("%s: malformed JSON: %v", path, err)
	}
	return &rep
}

// diff compares every simulation-derived field of b against a, reporting
// the first mismatch with enough context to localize it.
func diff(aPath string, a *bench.Report, bPath string, b *bench.Report) {
	if a.Schema != b.Schema {
		fail("%s: schema %q, %s has %q", bPath, b.Schema, aPath, a.Schema)
	}
	if a.Seed != b.Seed {
		fail("%s: seed %d, %s has %d (the runs must share -seed)", bPath, b.Seed, aPath, a.Seed)
	}
	if a.Quick != b.Quick {
		fail("%s: quick=%v, %s has quick=%v (the runs must share -quick)", bPath, b.Quick, aPath, a.Quick)
	}
	if len(a.Results) != len(b.Results) {
		fail("%s: %d results, %s has %d", bPath, len(b.Results), aPath, len(a.Results))
	}
	for i := range a.Results {
		ra, rb := &a.Results[i], &b.Results[i]
		if ra.Experiment != rb.Experiment {
			fail("%s: result %d is %q, %s has %q", bPath, i, rb.Experiment, aPath, ra.Experiment)
		}
		id := ra.Experiment
		if ra.Error != rb.Error {
			fail("%s: experiment %s error %q, %s has %q", bPath, id, rb.Error, aPath, ra.Error)
		}
		diffTables(aPath, bPath, id, ra.Tables, rb.Tables)
		if !reflect.DeepEqual(ra.Samples, rb.Samples) {
			fail("%s: experiment %s samples differ from %s (%d vs %d)",
				bPath, id, aPath, len(rb.Samples), len(ra.Samples))
		}
		if !reflect.DeepEqual(ra.Histograms, rb.Histograms) {
			fail("%s: experiment %s histograms differ from %s", bPath, id, aPath)
		}
		diffSeries(aPath, bPath, id, ra.Series, rb.Series)
		if ra.Stats.VirtualNanos != rb.Stats.VirtualNanos {
			fail("%s: experiment %s simulated %d virtual ns, %s simulated %d",
				bPath, id, rb.Stats.VirtualNanos, aPath, ra.Stats.VirtualNanos)
		}
		if !reflect.DeepEqual(ra.Stats.Probes, rb.Stats.Probes) {
			fail("%s: experiment %s probe readings differ from %s (%d vs %d probes)",
				bPath, id, aPath, len(rb.Stats.Probes), len(ra.Stats.Probes))
		}
	}
}

// diffSeries compares the virtual-time series section, localizing a
// mismatch to the first differing series and point.
func diffSeries(aPath, bPath, id string, sa, sb []metrics.SeriesDump) {
	if len(sa) != len(sb) {
		fail("%s: experiment %s has %d series, %s has %d", bPath, id, len(sb), aPath, len(sa))
	}
	for i := range sa {
		a, b := &sa[i], &sb[i]
		if a.Trace != b.Trace || a.Name != b.Name || a.Kind != b.Kind || a.IntervalNs != b.IntervalNs {
			fail("%s: experiment %s series %d is %s/%s(%s,%dns), %s has %s/%s(%s,%dns)",
				bPath, id, i, b.Trace, b.Name, b.Kind, b.IntervalNs,
				aPath, a.Trace, a.Name, a.Kind, a.IntervalNs)
		}
		if len(a.Points) != len(b.Points) {
			fail("%s: series %s/%s has %d points, %s has %d",
				bPath, a.Trace, a.Name, len(b.Points), aPath, len(a.Points))
		}
		for p := range a.Points {
			if a.Points[p] != b.Points[p] {
				fail("%s: series %s/%s point %d = %v, %s has %v",
					bPath, a.Trace, a.Name, p, b.Points[p], aPath, a.Points[p])
			}
		}
	}
}

func diffTables(aPath, bPath, id string, ta, tb []*bench.Table) {
	if len(ta) != len(tb) {
		fail("%s: experiment %s has %d tables, %s has %d", bPath, id, len(tb), aPath, len(ta))
	}
	for t := range ta {
		a, b := ta[t], tb[t]
		if a.ID != b.ID || a.Title != b.Title {
			fail("%s: experiment %s table %d is %s(%q), %s has %s(%q)",
				bPath, id, t, b.ID, b.Title, aPath, a.ID, a.Title)
		}
		if !reflect.DeepEqual(a.Header, b.Header) {
			fail("%s: table %s header %v, %s has %v", bPath, a.ID, b.Header, aPath, a.Header)
		}
		if len(a.Rows) != len(b.Rows) {
			fail("%s: table %s has %d rows, %s has %d", bPath, a.ID, len(b.Rows), aPath, len(a.Rows))
		}
		for r := range a.Rows {
			if !reflect.DeepEqual(a.Rows[r], b.Rows[r]) {
				fail("%s: table %s row %d = %v, %s has %v",
					bPath, a.ID, r, b.Rows[r], aPath, a.Rows[r])
			}
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check_determinism: "+format+"\n", args...)
	os.Exit(1)
}
