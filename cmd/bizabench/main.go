// Command bizabench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bizabench -exp fig10                     # one experiment
//	bizabench -exp fig10,fig11               # a subset
//	bizabench -exp all                       # everything (the EXPERIMENTS.md run)
//	bizabench -exp fig14 -quick              # reduced scale for a fast look
//	bizabench -exp all -quick -parallel 8    # points spread over 8 workers
//	bizabench -exp all -json out.json        # machine-readable results
//	bizabench -exp fig10 -trace fig10.json   # Perfetto trace of every platform
//	bizabench -exp fig10 -series -json out.json   # virtual-time series in the report
//
// Results are bit-identical for a given -seed regardless of -parallel:
// every experiment point derives its RNG streams from (seed, experiment,
// stream label), never from scheduling order. A panicking experiment is
// reported and skipped; the process then exits non-zero after the rest of
// the sweep completes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"biza/internal/bench"
	"biza/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment id(s), comma-separated (see -list), or 'all'")
	quick := flag.Bool("quick", false, "reduced scale (seconds instead of minutes)")
	list := flag.Bool("list", false, "list experiment ids")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count for independent experiment points")
	seed := flag.Uint64("seed", bench.DefaultSeed, "base seed for all derived RNG streams")
	jsonPath := flag.String("json", "", "write machine-readable results ("+bench.ReportSchema+" schema) to this file")
	series := flag.Bool("series", false, "sample virtual-time series into the report's \"series\" section (deterministic at any -parallel)")
	stats := flag.Bool("stats", true, "print per-experiment wall/virtual-time accounting to stderr")
	tracePath := flag.String("trace", "", "write a Perfetto trace_event JSON trace to this file")
	traceJSONL := flag.String("trace-jsonl", "", "write a compact JSONL trace to this file")
	traceSample := flag.Int("trace-sample", 1, "trace every Nth I/O span (1 = all; events always kept)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-sweep) to this file")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.IDs(), "\n"))
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bizabench: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bizabench: writing heap profile: %v\n", err)
			}
			f.Close()
		}()
	}

	scale := bench.DefaultScale()
	if *quick {
		scale = bench.QuickScale()
	}
	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for _, id := range ids {
			if _, ok := bench.Experiments[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(bench.IDs(), " "))
				return 1
			}
		}
	}

	runner := &bench.Runner{Scale: scale, Seed: *seed, Parallel: *parallel, Quick: *quick,
		Series: *series}
	if *tracePath != "" || *traceJSONL != "" {
		runner.Trace = &obs.Config{SampleN: *traceSample}
	}
	rep := runner.Run(ids)

	writeTrace := func(path string, write func(w *os.File, trs []*obs.Trace) error) bool {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: %v\n", err)
			return false
		}
		if err := write(f, rep.Traces); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: writing %s: %v\n", path, err)
			return false
		}
		return true
	}
	if *tracePath != "" {
		if !writeTrace(*tracePath, func(w *os.File, trs []*obs.Trace) error {
			return obs.WritePerfetto(w, trs)
		}) {
			return 1
		}
	}
	if *traceJSONL != "" {
		if !writeTrace(*traceJSONL, func(w *os.File, trs []*obs.Trace) error {
			return obs.WriteJSONL(w, trs)
		}) {
			return 1
		}
	}

	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Error != "" {
			fmt.Fprintf(os.Stderr, "bizabench: experiment %s FAILED: %s\n", res.Experiment, res.Error)
			continue
		}
		for _, t := range res.Tables {
			fmt.Println(t.String())
		}
	}

	if *stats {
		for i := range rep.Results {
			res := &rep.Results[i]
			fmt.Fprintf(os.Stderr, "# %-8s %s\n", res.Experiment, res.Stats)
		}
		total := rep.Stats()
		fmt.Fprintf(os.Stderr, "# total    %s (elapsed %.1fms at -parallel %d)\n",
			total, float64(rep.WallNanos)/1e6, rep.Parallel)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: encoding results: %v\n", err)
			return 1
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bizabench: writing %s: %v\n", *jsonPath, err)
			return 1
		}
	}

	if failed := rep.Failed(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "bizabench: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, " "))
		return 1
	}
	return 0
}
