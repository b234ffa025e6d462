package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"biza/internal/metrics"
	"biza/internal/obs"
)

// ReportSchema identifies the JSON artifact layout emitted by the Runner
// (the BENCH_results.json perf-trajectory format). v2 added per-result
// histogram bucket vectors ("histograms") and probe snapshots
// ("stats.probes"); v3 adds virtual-time series ("series", present when
// the sweep runs with -series). Consumers of older schemas ignore the
// additions.
const ReportSchema = "biza-bench/v3"

// Sample is one machine-readable metric cell extracted from a table:
// the value of one metric column for one identity row.
type Sample struct {
	Table  string            `json:"table"`            // table id (fig10a, ...)
	Metric string            `json:"metric"`           // column header
	Unit   string            `json:"unit,omitempty"`   // inferred from the header
	Labels map[string]string `json:"labels,omitempty"` // identity columns
	Value  float64           `json:"value"`
}

// HistogramDump is one exported sample distribution: summary scalars plus
// the non-empty bucket vector, enough to re-derive arbitrary percentiles.
type HistogramDump struct {
	Name    string           `json:"name"`
	Unit    string           `json:"unit,omitempty"`
	Summary metrics.Summary  `json:"summary"`
	Buckets []metrics.Bucket `json:"buckets,omitempty"`
}

// Result is the machine-readable outcome of one experiment run.
type Result struct {
	Experiment string          `json:"experiment"`
	Seed       uint64          `json:"seed"`
	Tables     []*Table        `json:"tables,omitempty"`
	Samples    []Sample        `json:"samples,omitempty"`
	Histograms []HistogramDump `json:"histograms,omitempty"`
	// Series holds the virtual-time series sampled from every trace the
	// experiment attached (canonical construction order), when the sweep
	// ran with series collection on. Deterministic: byte-identical at any
	// -parallel value.
	Series []metrics.SeriesDump `json:"series,omitempty"`
	Stats  metrics.RunStats     `json:"stats"`
	Error  string               `json:"error,omitempty"`
}

// Report is the top-level JSON artifact of a runner sweep.
type Report struct {
	Schema    string   `json:"schema"`
	Seed      uint64   `json:"seed"`
	Parallel  int      `json:"parallel"`
	Quick     bool     `json:"quick"`
	WallNanos int64    `json:"wall_ns"` // elapsed wall time of the whole sweep
	Results   []Result `json:"results"`

	// Traces holds the finalized per-platform observability traces, in
	// canonical (experiment, point, construction) order. They are exported
	// via obs.WritePerfetto / obs.WriteJSONL rather than embedded in the
	// report JSON.
	Traces []*obs.Trace `json:"-"`
}

// Failed lists the experiments that did not complete, in report order.
func (rep *Report) Failed() []string {
	var out []string
	for i := range rep.Results {
		if rep.Results[i].Error != "" {
			out = append(out, rep.Results[i].Experiment)
		}
	}
	return out
}

// Stats totals per-experiment accounting across the report.
func (rep *Report) Stats() metrics.RunStats {
	var total metrics.RunStats
	for i := range rep.Results {
		total.Add(rep.Results[i].Stats)
	}
	return total
}

// unitFor infers a metric's unit from its column-header suffix (the
// convention every bench table follows).
func unitFor(header string) string {
	h := strings.TrimSuffix(header, "%")
	switch {
	case strings.HasSuffix(header, "_MBps") || header == "batched" || header == "single_block":
		return "MB/s"
	case strings.HasSuffix(header, "GBps"):
		return "GB/s"
	case strings.HasSuffix(header, "_us"):
		return "us"
	case strings.HasSuffix(header, "_KB"):
		return "KiB"
	case strings.HasSuffix(header, "_MB"):
		return "MiB"
	case strings.HasSuffix(header, "_GB") || strings.HasSuffix(header, "_GB_programmed"):
		return "GiB"
	case strings.HasSuffix(h, "%") || h != header:
		return "percent"
	case strings.HasSuffix(header, "_x") || header == "speedup" || header == "ratio" || header == "retained":
		return "ratio"
	default:
		return ""
	}
}

// labelCols reports the number of leading identity columns (default 1).
func (t *Table) labelCols() int {
	if t.LabelCols > 0 {
		return t.LabelCols
	}
	return 1
}

// Samples flattens the table into machine-readable metric cells. The
// first labelCols columns identify the row; every remaining cell that
// parses as a number becomes one sample. Composite "a(b+c)" cells
// contribute the leading aggregate a; "-" (not applicable) cells are
// skipped.
func (t *Table) Samples() []Sample {
	lc := t.labelCols()
	var out []Sample
	for _, row := range t.Rows {
		labels := make(map[string]string, lc)
		for i := 0; i < lc && i < len(row) && i < len(t.Header); i++ {
			labels[t.Header[i]] = row[i]
		}
		for i := lc; i < len(row) && i < len(t.Header); i++ {
			v, ok := parseCell(row[i])
			if !ok {
				continue
			}
			out = append(out, Sample{
				Table:  t.ID,
				Metric: t.Header[i],
				Unit:   unitFor(t.Header[i]),
				Labels: labels,
				Value:  v,
			})
		}
	}
	return out
}

// parseCell extracts the numeric value of a cell, tolerating the
// composite "a(b+c)" format; non-finite and non-numeric cells report ok
// false (non-finite values cannot survive JSON encoding anyway).
func parseCell(cell string) (float64, bool) {
	if i := strings.IndexByte(cell, '('); i > 0 {
		cell = cell[:i]
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// samplesOf flattens all of an experiment's tables.
func samplesOf(tables []*Table) []Sample {
	var out []Sample
	for _, t := range tables {
		out = append(out, t.Samples()...)
	}
	return out
}

// SampleKey renders a stable human-readable identity for a sample
// (diagnostics and diffing).
func (s Sample) SampleKey() string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", s.Table, s.Metric)
	for _, k := range keys {
		fmt.Fprintf(&b, "[%s=%s]", k, s.Labels[k])
	}
	return b.String()
}
