package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"biza/internal/obs"
)

// obsGroups are the span populations the traced run reports, as
// obs.Attribute names them, with the stages in obs.AttrStageNames order.
var obsGroups = []string{"biza write", "biza read", "volume write", "volume read"}

// outDir receives what a traced run keeps: the trace export and the CPU
// profiles. It is written once, when the run ends.
var outDir = "benchmark/out"

// traced produces the per-layer metrics: repetitions under the CPU
// profiler (untraced; their boundary counters and host times are the ones
// reported), two repetitions with obs.Trace attached, the folds of both,
// and the ladder. No end-to-end number comes from here.
func (rn *runner) traced(seconds float64) map[string][]float64 {
	series := map[string][]float64{}
	set := func(name string, v float64) { series[name] = []float64{v} }

	outs := rn.timed("profiled", seconds/2, true)
	var profiles []*bytes.Buffer
	var windows, builds []float64
	hostCounters := map[string][]float64{}
	for _, o := range outs {
		profiles = append(profiles, o.prof)
		windows = append(windows, float64(o.windowNS))
		for _, b := range o.buildNS {
			builds = append(builds, float64(b))
		}
		for _, c := range o.hostCounters {
			hostCounters[c.Name] = append(hostCounters[c.Name], c.Value)
		}
	}
	untraced := median(windows)

	// Boundary counters: sim-time ones repeat exactly, host-time ones are
	// the median repetition.
	for _, c := range rn.first.counters {
		set(c.Name, c.Value)
	}
	for name, xs := range hostCounters {
		set(name, median(xs))
	}
	set("sim.virtual_ns_per_host_s", ratio(median(series["sim.virtual_ns"]), untraced/1e9))
	set("stack.build_host_ms", median(builds)/1e6)

	// Traced repetitions. They must simulate exactly what the untraced
	// ones did (rn.rep checks the digest); the repetitions are identical,
	// so the last one's trace is the one folded and kept.
	var tracedNS []float64
	var tr *obs.Trace
	for i := 0; i < 2; i++ {
		tr = obs.New(obs.Config{Capacity: rn.sc.traceCap, SampleN: rn.sc.traceSampleN})
		tr.SetName(rn.w.name)
		o := rn.rep(fmt.Sprintf("traced %d", i+1), tr, nil)
		tracedNS = append(tracedNS, float64(o.windowNS))
	}
	var jsonl bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, []*obs.Trace{tr}); err != nil {
		fatalf("exporting the trace: %v", err)
	}
	rn.foldTrace(jsonl.Bytes(), set)
	set("obs.dropped_records", float64(tr.Dropped()))
	set("obs.trace_overhead_ratio", median(tracedNS)/untraced)

	layers, rt, samples, err := foldProfiles(profiles)
	if err != nil {
		fatalf("%v", err)
	}
	var sum float64
	for name, share := range layers {
		set("hostshare."+name, share)
		sum += share
	}
	if math.Abs(sum-1) > 0.01 {
		rn.problem("hostshare.* sums to %.4f, not 1", sum)
	}
	for name, share := range rt {
		set("hostrt."+name, share)
	}
	fmt.Fprintf(rn.log, "  cpu profile: %d samples over %d repetitions\n", samples, len(profiles))

	fmt.Fprintln(rn.log, "  ladder:")
	rungs := runLadder(rn.sc, rn.seed)
	printLadder(rn.log, rungs, rn.man)
	for _, r := range rungs {
		set(r.name, r.value)
	}

	rn.keep(rn.w.name+".trace.jsonl", jsonl.Bytes())
	for i, p := range profiles {
		rn.keep(fmt.Sprintf("%s.cpu%d.pprof", rn.w.name, i+1), p.Bytes())
	}
	return series
}

// foldTrace attributes the exported trace with obs.Attribute and sets the
// obs.<group>.<stage>_us metrics: mean exclusive virtual microseconds per
// stage, which sum to the group's mean end-to-end latency.
func (rn *runner) foldTrace(jsonl []byte, set func(string, float64)) {
	attr, err := obs.Attribute(bytes.NewReader(jsonl))
	if err != nil {
		fatalf("attributing the trace: %v", err)
	}
	groups := map[string]*obs.AttrGroup{}
	for _, p := range attr.Procs {
		for _, g := range p.Groups {
			groups[g.Name] = g
		}
	}
	fmt.Fprintf(rn.log, "  trace: %d spans attributed, %d left open\n", attr.Spans, attr.Open)
	for _, name := range obsGroups {
		prefix := "obs." + strings.ReplaceAll(name, " ", "_") + "."
		g := groups[name]
		var e2e, sum float64
		for st, stage := range obs.AttrStageNames {
			var mean float64
			if g != nil {
				mean = g.Stage[st].Mean() / 1e3
			}
			set(prefix+strings.ReplaceAll(stage, "-", "_")+"_us", mean)
			sum += mean
		}
		if g != nil {
			e2e = g.E2E.Mean() / 1e3
		}
		set(prefix+"e2e_us", e2e)
		if math.Abs(sum-e2e) > 1e-6*math.Max(1, e2e) {
			rn.problem("%s: stage means sum to %.6f us, end-to-end mean is %.6f us", name, sum, e2e)
		}
	}
	// Groups beyond the named ones (driver and device spans) are printed
	// for whoever reads the run, not emitted as metrics.
	var report bytes.Buffer
	attr.WriteReport(&report)
	for _, line := range strings.Split(strings.TrimRight(report.String(), "\n"), "\n") {
		fmt.Fprintln(rn.log, "   ", line)
	}
}

// keep writes one artefact of the traced run under outDir.
func (rn *runner) keep(name string, data []byte) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
		fatalf("%v", err)
	}
}
