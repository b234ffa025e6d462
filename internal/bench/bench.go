// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns a Table whose rows mirror what
// the paper plots; absolute values come from the simulated substrate, so
// the comparisons (who wins, by what factor) are the reproduction target,
// not the raw numbers.
//
// Experiments register as a set of independently runnable config points
// (one platform, one workload, one sweep value, ...). The Runner executes
// points from any mix of experiments across a worker pool; every
// stochastic stream derives its seed from (base seed, experiment id,
// stream label) via sim.DeriveSeed, so output is bit-identical regardless
// of scheduling order or worker count.
package bench

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"biza/internal/metrics"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/stack"
)

// Scale controls experiment cost. Default matches the committed results;
// Quick is for smoke tests.
type Scale struct {
	Duration sim.Time // virtual measurement window per run
	TraceOps int      // synthesized ops per trace workload
	Warmup   uint64   // warmup bytes before measuring

	// Tenant sizing (the multi-tenant QoS-isolation experiment).
	TenantArrays int // independent arrays, one engine each
	Tenants      int // tenant volumes per array (1 aggressor + mixed classes)

	// Rolling sizing (the rolling-replacement availability experiment).
	RollingArrays int // independent arrays, one engine each
}

// DefaultScale is used by the committed EXPERIMENTS.md results.
func DefaultScale() Scale {
	return Scale{Duration: 50 * sim.Millisecond, TraceOps: 60000, Warmup: 64 << 20,
		TenantArrays: 12, Tenants: 32,
		RollingArrays: 8}
}

// QuickScale runs every experiment in seconds (CI smoke).
func QuickScale() Scale {
	return Scale{Duration: 4 * sim.Millisecond, TraceOps: 4000, Warmup: 1 << 20,
		TenantArrays: 2, Tenants: 24,
		RollingArrays: 2}
}

// DefaultSeed is the base seed of the committed EXPERIMENTS.md run.
const DefaultSeed uint64 = 1

// Run is the per-execution context handed to every experiment point. It
// carries the base seed and experiment id from which all RNG streams
// derive, and (when driven by the Runner) the virtual-time accumulator
// that credits simulated nanoseconds to the experiment's accounting.
type Run struct {
	base  uint64
	exp   string
	point string        // current config point (trace naming)
	vt    *atomic.Int64 // optional virtual-time sink (Runner accounting)

	// Observability side-channel: when traceCfg is set, Platform attaches
	// a fresh obs.Trace to every stack it assembles; PublishHistogram
	// collects latency distributions. Both are drained by the Runner after
	// RunPoint returns, in canonical point order, so the report is
	// bit-identical for any Parallel value. series additionally arms a
	// virtual-time sampler on every attached trace (the report's "series"
	// section).
	traceCfg *obs.Config
	series   bool
	traces   []*obs.Trace
	hists    []HistogramDump
}

// NewRun returns a run context for one experiment. Tests and direct
// callers get the same values the Runner produces for (seed, exp).
func NewRun(seed uint64, exp string) *Run { return &Run{base: seed, exp: exp} }

// Seed derives the deterministic seed for a named stochastic stream.
// Streams are identified by label only — never by execution order — so a
// point sharded off to another worker draws exactly the same numbers.
func (r *Run) Seed(stream string) uint64 { return sim.DeriveSeed(r.base, r.exp, stream) }

// NewEngine returns a simulation engine whose virtual-time advancement is
// credited to this run's accounting.
func (r *Run) NewEngine() *sim.Engine {
	eng := sim.NewEngine()
	if r.vt != nil {
		eng.SetTimeSink(r.vt)
	}
	return eng
}

// Platform assembles a stack platform on a tracked engine. When tracing
// is enabled the platform gets a fresh obs.Trace named after the run's
// (experiment, point, ordinal, kind) tuple; names depend only on the
// deterministic construction order inside RunPoint, never on scheduling.
func (r *Run) Platform(kind stack.Kind, opts stack.Options) (*stack.Platform, error) {
	return r.PlatformOn(r.NewEngine(), kind, opts)
}

// PlatformOn assembles a platform on the given engine.
func (r *Run) PlatformOn(eng *sim.Engine, kind stack.Kind, opts stack.Options) (*stack.Platform, error) {
	if r.traceCfg != nil && opts.Trace == nil {
		tr := obs.New(*r.traceCfg)
		name := r.exp
		if r.point != "" {
			name += "/" + r.point
		}
		tr.SetName(fmt.Sprintf("%s/%d/%s", name, len(r.traces), kind))
		if r.series {
			tr.EnableSampler()
			// Extend the series through any probe-quiet tail: by finalize
			// time the engine clock holds the run's end.
			tr.OnFinalize(func() { tr.AdvanceSampler(eng.Now()) })
		}
		r.traces = append(r.traces, tr)
		opts.Trace = tr
	}
	return stack.NewOn(eng, kind, opts)
}

// runArrays advances engs — one engine per array, arrays that never
// interact — each on its own goroutine: to endAt, then in steps of window
// until it has no pending event or reaches limit. Every engine then ends
// on the first step boundary at which all arrays are quiet, so the arrays
// share one end-of-run clock, credited once to the run's accounting. It
// reports whether all arrays went quiet by limit. A panic on an array's
// goroutine re-panics here, naming the lowest such array, once every
// goroutine has returned.
func (r *Run) runArrays(engs []*sim.Engine, endAt, window, limit sim.Time) bool {
	ends := make([]sim.Time, len(engs))
	fails := make([]string, len(engs))
	var wg sync.WaitGroup
	for i, eng := range engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					fails[i] = fmt.Sprintf("array %d panicked: %v\n%s", i, p, debug.Stack())
				}
			}()
			t := endAt
			eng.RunUntil(t)
			for eng.Pending() > 0 && t < limit {
				t += window
				eng.RunUntil(t)
			}
			ends[i] = t
		}()
	}
	wg.Wait()
	for _, msg := range fails {
		if msg != "" {
			panic(msg)
		}
	}
	end := slices.Max(ends)
	quiet := true
	for _, eng := range engs {
		eng.RunUntil(end)
		quiet = quiet && eng.Pending() == 0
	}
	if r.vt != nil {
		r.vt.Add(end)
	}
	return quiet
}

// EnableSeries arms a virtual-time series sampler on every trace this run
// attaches (the Runner does this when Runner.Series is set). Requires
// tracing: enabling series on an untraced run also enables tracing with
// the default config.
func (r *Run) EnableSeries() {
	r.series = true
	if r.traceCfg == nil {
		r.traceCfg = &obs.Config{}
	}
}

// Traces returns the traces attached so far, in construction order. Each
// is finalized so counter probes snapshot their final values.
func (r *Run) Traces() []*obs.Trace {
	for _, tr := range r.traces {
		tr.Finalize()
	}
	return r.traces
}

// PublishHistogram exports a latency (or other sample) distribution into
// the machine-readable Result: summary scalars plus the non-empty bucket
// vector, so downstream tooling can re-derive arbitrary percentiles.
func (r *Run) PublishHistogram(name, unit string, h *metrics.Histogram) {
	if h == nil {
		return
	}
	r.hists = append(r.hists, HistogramDump{
		Name: name, Unit: unit, Summary: h.Summarize(), Buckets: h.Buckets()})
}

// Histograms returns the distributions published so far.
func (r *Run) Histograms() []HistogramDump { return r.hists }

// Table is one regenerated artifact.
type Table struct {
	ID    string `json:"id"` // experiment id (fig10a, table3, ...)
	Title string `json:"title"`
	// LabelCols is the number of leading identity columns (defaults to 1);
	// the rest are metric columns for Samples extraction.
	LabelCols int        `json:"label_cols,omitempty"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func us(t sim.Time) string { return fmt.Sprintf("%.1f", float64(t)/1000) }

// Experiment is one registered paper artifact, decomposed into the config
// points that can run independently (and therefore in parallel).
type Experiment struct {
	ID string
	// Points lists the independently runnable shards in canonical row
	// order. Experiments with internal cross-point dependencies (e.g.
	// fig15's normalization baseline) expose a single point.
	Points []string
	// RunPoint executes one point and returns its partial tables. Every
	// point must return the same table set (ids, titles, headers) so
	// Assemble can merge them.
	RunPoint func(s Scale, r *Run, point string) []*Table
	// Assemble merges per-point partial tables, given in Points order.
	// Nil selects the default merge: concatenate rows table-wise.
	Assemble func(parts [][]*Table) []*Table
}

func (e *Experiment) assemble(parts [][]*Table) []*Table {
	if e.Assemble != nil {
		return e.Assemble(parts)
	}
	return mergeParts(parts)
}

// Tables runs every point sequentially on r and assembles the result —
// the single-threaded reference path the parallel Runner must match
// bit-for-bit.
func (e *Experiment) Tables(s Scale, r *Run) []*Table {
	parts := make([][]*Table, len(e.Points))
	for i, pt := range e.Points {
		r.point = pt
		parts[i] = e.RunPoint(s, r, pt)
	}
	r.point = ""
	return e.assemble(parts)
}

// mergeParts concatenates partial tables index-wise: the first part
// supplies each table's identity (id, title, header); subsequent parts
// contribute rows in point order.
func mergeParts(parts [][]*Table) []*Table {
	var out []*Table
	for _, part := range parts {
		for ti, pt := range part {
			if ti == len(out) {
				out = append(out, &Table{ID: pt.ID, Title: pt.Title,
					LabelCols: pt.LabelCols, Header: pt.Header})
			}
			out[ti].Rows = append(out[ti].Rows, pt.Rows...)
		}
	}
	return out
}

// Experiments maps experiment ids to their registrations (shared by the
// CLI, the Runner, and the root benchmarks).
var Experiments = map[string]*Experiment{}

// register adds a single-point, single-table experiment.
func register(id string, fn func(Scale, *Run) *Table) {
	Experiments[id] = &Experiment{ID: id, Points: []string{""},
		RunPoint: func(s Scale, r *Run, _ string) []*Table { return []*Table{fn(s, r)} }}
}

// registerPoints adds an experiment whose config points run independently.
func registerPoints(id string, points []string, fn func(Scale, *Run, string) []*Table) {
	Experiments[id] = &Experiment{ID: id, Points: points, RunPoint: fn}
}

// IDs returns the registered experiment ids in canonical order
// (TestExperimentRegistry holds the two sets equal, and every id to at
// least one ledger row).
func IDs() []string {
	return []string{"table2", "table3", "table6", "fig4", "fig5", "fig10",
		"fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16", "fig17",
		"detect", "batching", "wear", "append", "avail", "tenants", "rolling",
		"future"}
}

// newLatHist is shorthand for a latency histogram.
func newLatHist() *metrics.Histogram { return metrics.NewHistogram() }
