package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"biza/internal/metrics"
	"biza/internal/obs"
)

// Runner executes experiments — and the independent config points inside
// each experiment — across a worker pool. Determinism contract: every
// stochastic stream seeds from (Seed, experiment id, stream label) only,
// and results assemble in canonical registry order, so the output is
// bit-identical for any Parallel value. A panicking point fails only its
// own experiment (recorded in Result.Error); the rest of the sweep
// completes.
type Runner struct {
	Scale    Scale
	Seed     uint64 // base seed for every derived RNG stream
	Parallel int    // worker count; <=1 runs serially
	Shards   int    // engine shards per point (sharded experiments); <=1 = 1
	Quick    bool   // recorded in the report for provenance

	// Trace enables per-platform observability collection: every stack a
	// point assembles gets an obs.Trace with this config, gathered into
	// Report.Traces in canonical order (byte-identical across Parallel).
	Trace *obs.Config

	// Series arms a virtual-time sampler on every attached trace; the
	// sampled series land in Result.Series in canonical order. Implies
	// tracing (a default Trace config is used when Trace is nil).
	Series bool

	// Observer, when set, is called after each config point completes
	// (successfully or not), from the worker goroutine that ran it. The
	// run's traces and histograms are final by then. The live ops endpoint
	// publishes progress snapshots from this hook; it must be safe for
	// concurrent calls.
	Observer func(experiment, point string, run *Run)
}

// unit is one schedulable shard: a single config point of one experiment.
type unit struct {
	exp, point int
}

// Run executes the given experiment ids and returns the assembled report.
// Unknown ids yield a Result with Error set rather than a panic, so a CI
// sweep reports them like any other failure.
func (rn *Runner) Run(ids []string) *Report {
	workers := rn.Parallel
	if workers < 1 {
		workers = 1
	}
	start := time.Now() // ci:allow-wallclock — sweep wall-time accounting, never simulation input

	exps := make([]*Experiment, len(ids))
	parts := make([][][]*Table, len(ids))   // parts[e][p]: tables of point p
	wall := make([][]int64, len(ids))       // wall[e][p]: wall ns of point p
	perr := make([][]string, len(ids))      // perr[e][p]: panic message, if any
	runs := make([][]*Run, len(ids))        // runs[e][p]: run context (traces, hists)
	sinks := make([]atomic.Int64, len(ids)) // virtual time per experiment
	var units []unit
	for e, id := range ids {
		exps[e] = Experiments[id]
		if exps[e] == nil {
			continue // reported below
		}
		n := len(exps[e].Points)
		parts[e] = make([][]*Table, n)
		wall[e] = make([]int64, n)
		perr[e] = make([]string, n)
		runs[e] = make([]*Run, n)
		for p := 0; p < n; p++ {
			units = append(units, unit{exp: e, point: p})
		}
	}

	// Workers drain the unit queue. Each slot of parts/wall/perr is
	// written by exactly one unit, so no locking is needed beyond the
	// queue itself.
	queue := make(chan unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range queue {
				rn.runUnit(ids[u.exp], exps[u.exp], u, parts[u.exp], wall[u.exp], perr[u.exp], runs[u.exp], &sinks[u.exp])
			}
		}()
	}
	for _, u := range units {
		queue <- u
	}
	close(queue)
	wg.Wait()

	shards := rn.Shards
	if shards < 1 {
		shards = 1
	}
	rep := &Report{Schema: ReportSchema, Seed: rn.Seed, Parallel: workers, Shards: shards, Quick: rn.Quick}
	for e, id := range ids {
		res := Result{Experiment: id, Seed: rn.Seed}
		switch {
		case exps[e] == nil:
			res.Error = fmt.Sprintf("unknown experiment %q", id)
		default:
			for p, msg := range perr[e] {
				if msg != "" {
					if res.Error != "" {
						res.Error += "; "
					}
					res.Error += fmt.Sprintf("point %q: %s", pointName(exps[e], p), msg)
				}
				res.Stats.Add(metrics.RunStats{WallNanos: wall[e][p]})
			}
			res.Stats.VirtualNanos = sinks[e].Load()
			// Drain the observability side-channel in canonical point
			// order, independent of which worker ran each unit.
			for _, run := range runs[e] {
				if run == nil {
					continue
				}
				res.Histograms = append(res.Histograms, run.Histograms()...)
				for _, tr := range run.Traces() {
					res.Stats.Probes = metrics.MergeProbes(res.Stats.Probes, tr.ProbeStats())
					res.Series = append(res.Series, tr.SeriesDumps()...)
					rep.Traces = append(rep.Traces, tr)
				}
			}
			if res.Error == "" {
				res.Tables = exps[e].assemble(parts[e])
				res.Samples = samplesOf(res.Tables)
			}
		}
		rep.Results = append(rep.Results, res)
	}
	rep.WallNanos = time.Since(start).Nanoseconds() // ci:allow-wallclock
	return rep
}

func pointName(e *Experiment, p int) string {
	if p < len(e.Points) {
		return e.Points[p]
	}
	return fmt.Sprintf("#%d", p)
}

// runUnit executes one config point, converting a panic into a recorded
// failure so one broken experiment cannot take down the sweep.
func (rn *Runner) runUnit(id string, e *Experiment, u unit,
	parts [][]*Table, wall []int64, perr []string, runs []*Run, sink *atomic.Int64) {
	t0 := time.Now() // ci:allow-wallclock — per-point wall-time accounting
	defer func() {
		wall[u.point] = time.Since(t0).Nanoseconds() // ci:allow-wallclock
		if p := recover(); p != nil {
			perr[u.point] = fmt.Sprint(p)
		}
	}()
	run := &Run{base: rn.Seed, exp: id, point: e.Points[u.point], shards: rn.Shards, vt: sink, traceCfg: rn.Trace}
	if rn.Series {
		run.EnableSeries()
	}
	runs[u.point] = run
	if rn.Observer != nil {
		// Deferred so panicking points publish their partial state too
		// (the panic itself is recorded by the outer recover afterwards).
		defer func() { rn.Observer(id, e.Points[u.point], run) }()
	}
	parts[u.point] = e.RunPoint(rn.Scale, run, e.Points[u.point])
}
