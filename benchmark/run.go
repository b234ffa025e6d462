package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"biza/internal/obs"
)

// procStart is as close to process start as Go code gets.
var procStart = time.Now()

// manifest is BENCHMARK.json: the one table of workload and metric names,
// units, directions and bounds. The program emits values by name and takes
// everything else from here, so the two cannot drift apart unnoticed.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the working directory (the root
// of a checkout) or its parent (tests run inside benchmark/).
func loadManifest() (*manifest, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w (run from the repository root)", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// stat is one end-to-end metric of a run: the median repetition, with the
// range and count it was taken from.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// result is everything one run of one workload produced. The contract's
// result line is a subset of it.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Scale      string            `json:"scale"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Problems   []string          `json:"problems,omitempty"`
	Attempted  uint64            `json:"attempted"` // user I/Os of one repetition
	Failed     uint64            `json:"failed"`    // ... that returned an error or never completed
	Errors     map[string]uint64 `json:"errors,omitempty"`
	Unverified uint64            `json:"unverified,omitempty"`
	Samples    int               `json:"latency_samples"`
	SimDigest  string            `json:"sim_digest"`
	Reps       int               `json:"timed_repetitions"`
	HostScale  float64           `json:"host_scale,omitempty"`         // setup_s and host_ns_per_io are raw times multiplied by this
	RawHostNS  float64           `json:"raw_host_ns_per_io,omitempty"` // median before scaling
	StartupS   float64           `json:"startup_s"`                    // process start to first timed repetition
	Metrics    map[string]stat   `json:"metrics"`
}

// repOutcome is what the harness keeps of a finished repetition.
type repOutcome struct {
	view         simView
	windowNS     int64
	overheadNS   int64     // repetition time outside the window
	ref          []float64 // reference-loop timings taken beside the repetition, ns
	mallocs      uint64
	prof         *bytes.Buffer // the window's CPU profile, if it was taken
	liveHeap     uint64
	buildNS      []int64
	counters     []metric
	hostCounters []metric
	errs         map[string]uint64
	unverified   uint64
	checkErr     error
}

// runRep performs one repetition and drops its platform. The reference
// loop is timed just before and just after it (see calibrate.go), outside
// the repetition's own time.
func runRep(w *workload, seed uint64, sc *scale, tr *obs.Trace, prof *bytes.Buffer) repOutcome {
	ref := calibrate(sc.calLoops)
	r := &rep{seed: seed, sc: sc, tr: tr, prof: prof, start: time.Now()}
	w.run(r)
	if tr != nil {
		tr.Finalize()
	}
	ran := time.Since(r.start)
	ref = append(ref, calibrate(sc.calLoops)...)
	resumed := time.Now()
	if n := r.incomplete(); n > 0 {
		r.noteErr("never completed", n)
	}
	out := repOutcome{
		ref:          ref,
		view:         r.view(),
		windowNS:     r.windowNS(),
		mallocs:      r.mallocs,
		prof:         prof,
		buildNS:      r.buildNS,
		counters:     r.counters,
		hostCounters: r.hostCounters,
		errs:         r.errs,
		unverified:   r.unverified,
		checkErr:     r.checkErr,
	}
	// Retained simulator state: the heap after a forced collection with
	// the platform still referenced.
	r.lat = nil
	out.liveHeap = liveHeap() - calHeapBytes
	runtime.KeepAlive(r)
	r.keep = nil
	runtime.GC()
	out.overheadNS = (ran + time.Since(resumed)).Nanoseconds() - out.windowNS
	return out
}

// runner carries one run's state through its repetitions.
type runner struct {
	w        *workload
	seed     uint64
	sc       *scale
	man      *manifest
	log      io.Writer
	problems []string
	first    *repOutcome // the reference every other repetition must match
	// hostScale is what the run's setup_s and host_ns_per_io were
	// multiplied by and rawHostNS the median host_ns_per_io before that;
	// both are printed so the scaling stays visible.
	hostScale, rawHostNS float64
}

func (rn *runner) problem(format string, args ...any) {
	rn.problems = append(rn.problems, fmt.Sprintf(format, args...))
}

// rep runs one repetition and holds it to the run's reference.
func (rn *runner) rep(label string, tr *obs.Trace, prof *bytes.Buffer) repOutcome {
	o := runRep(rn.w, rn.seed, rn.sc, tr, prof)
	fmt.Fprintf(rn.log, "  %-10s window %7.3f s  outside %6.3f s  digest %016x\n",
		label, float64(o.windowNS)/1e9, float64(o.overheadNS)/1e9, o.view.digest)
	if o.checkErr != nil {
		rn.problem("%s: %v", label, o.checkErr)
	}
	if rn.first == nil {
		rn.first = &o
	} else if o.view.digest != rn.first.view.digest {
		rn.problem("%s: sim digest %016x differs from the first repetition's %016x (the simulation is not deterministic)",
			label, o.view.digest, rn.first.view.digest)
	}
	return o
}

// timed runs repetitions until their windows add up to seconds, within
// the scale's repetition limits; profiled puts each window under the CPU
// profiler.
func (rn *runner) timed(label string, seconds float64, profiled bool) []repOutcome {
	var outs []repOutcome
	var spent int64
	for n := 0; n < rn.sc.maxReps && (n < rn.sc.minReps || float64(spent) < seconds*1e9); n++ {
		var prof *bytes.Buffer
		if profiled {
			prof = new(bytes.Buffer)
		}
		o := rn.rep(fmt.Sprintf("%s %d", label, n+1), nil, prof)
		spent += o.windowNS
		outs = append(outs, o)
	}
	return outs
}

func statOf(xs []float64, unit string) stat {
	return stat{Value: median(xs), Unit: unit, Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs)}
}

// endToEnd runs the timed repetitions and returns the end-to-end metrics.
func (rn *runner) endToEnd(seconds float64) map[string][]float64 {
	outs := rn.timed("timed", seconds, false)
	v := rn.first.view
	ios := float64(v.attempted - v.failed)
	series := map[string][]float64{
		"sim_mbps":    {float64(v.bytes) / 1e6 / (float64(v.virtualNS) / 1e9)},
		"sim_p50_us":  {float64(v.p50) / 1e3},
		"sim_p999_us": {float64(v.p999) / 1e3},
		"write_amp":   {v.wa.Factor()},
	}
	// The two bounded host times are scaled to nominal host speed by the
	// reference loop's timings over the whole run.
	var ref, rawNS []float64
	for _, o := range outs {
		ref = append(ref, o.ref...)
		rawNS = append(rawNS, float64(o.windowNS)/ios)
	}
	rn.hostScale, rn.rawHostNS = hostScale(ref), median(rawNS)
	for _, o := range outs {
		series["setup_s"] = append(series["setup_s"], rn.hostScale*float64(o.overheadNS)/1e9)
		series["host_ns_per_io"] = append(series["host_ns_per_io"], rn.hostScale*float64(o.windowNS)/ios)
		series["host_allocs_per_io"] = append(series["host_allocs_per_io"], float64(o.mallocs)/ios)
		series["host_live_heap_mb"] = append(series["host_live_heap_mb"], float64(o.liveHeap)/(1<<20))
	}
	return series
}

// runWorkload is one run: warm-up, timed repetitions, and in trace mode
// the traced repetitions, the profile fold and the ladder.
func runWorkload(w *workload, seed uint64, sc *scale, seconds float64, trace bool, man *manifest, log io.Writer) *result {
	if trace {
		// Per-layer host times are reported as measured, so a traced run
		// takes no reference timings.
		unscaled := *sc
		unscaled.calLoops = 0
		sc = &unscaled
	}
	rn := &runner{w: w, seed: seed, sc: sc, man: man, log: log}
	fmt.Fprintf(log, "%s: seed %d, scale %s, GOMAXPROCS %d\n", w.name, seed, sc.name, runtime.GOMAXPROCS(0))
	for i := 0; i < sc.warmups; i++ {
		rn.rep(fmt.Sprintf("warm-up %d", i+1), nil, nil)
	}
	res := &result{Workload: w.name, Seed: seed, Scale: sc.name, Trace: trace,
		StartupS: time.Since(procStart).Seconds(), Metrics: map[string]stat{}}

	// Both modes yield name -> values (one per repetition for host-time
	// metrics, a single one for sim-time metrics); units come from the
	// manifest, and the two name sets must be equal.
	var series map[string][]float64
	defs := man.EndToEnd
	if trace {
		series, defs = rn.traced(seconds), man.PerLayer
	} else {
		series = rn.endToEnd(seconds)
		res.Reps = len(series["host_ns_per_io"])
		res.HostScale, res.RawHostNS = rn.hostScale, rn.rawHostNS
	}
	for _, d := range defs {
		xs, ok := series[d.Name]
		if !ok {
			rn.problem("metric %s is listed in BENCHMARK.json but not emitted", d.Name)
			continue
		}
		res.Metrics[d.Name] = statOf(xs, d.Unit)
		delete(series, d.Name)
	}
	for name := range series {
		rn.problem("metric %s is emitted but not listed in BENCHMARK.json", name)
	}

	v := rn.first.view
	res.Attempted, res.Failed, res.Samples = v.attempted, v.failed, v.samples
	res.Errors, res.Unverified = rn.first.errs, rn.first.unverified
	res.SimDigest = fmt.Sprintf("%016x", v.digest)
	res.Problems = rn.problems
	res.Correct = len(rn.problems) == 0
	return res
}

// print writes the human-readable table of a result, in the manifest's
// metric order.
func (res *result) print(w io.Writer, man *manifest) {
	defs := man.EndToEnd
	if res.Trace {
		defs = man.PerLayer
	}
	fmt.Fprintf(w, "%s seed %d: %d user I/Os attempted, %d failed (ratio %.6f), %d latency samples, sim_digest %s\n",
		res.Workload, res.Seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)),
		res.Samples, res.SimDigest)
	for e, n := range res.Errors {
		fmt.Fprintf(w, "  errors returned: %d x %q\n", n, e)
	}
	if res.HostScale > 0 {
		fmt.Fprintf(w, "  host times scaled by %.3f to nominal host speed; host_ns_per_io was %.1f ns as measured\n",
			res.HostScale, res.RawHostNS)
	}
	if res.Unverified > 0 {
		fmt.Fprintf(w, "  read-back skipped %d blocks whose last write failed\n", res.Unverified)
	}
	for _, d := range defs {
		s, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		if s.N > 1 {
			fmt.Fprintf(w, "  %-36s %16.4f %-8s (min %.4f max %.4f n=%d)\n", d.Name, s.Value, s.Unit, s.Min, s.Max, s.N)
		} else {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, s.Value, s.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// contractLine renders the one-line JSON object the driver reads.
func (res *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, s := range res.Metrics {
		out.Metrics[name] = mv{s.Value, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	return string(b)
}
