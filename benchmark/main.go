// Command benchmark is the repository's benchmark: five named workloads
// over the simulated storage stacks, end-to-end metrics in simulated and
// host time, and per-layer metrics from an isolated ladder, boundary
// counters and a traced run. BENCHMARK.json at the repository root names
// every workload and metric; README.md beside this file defines them.
//
//	go run ./benchmark                                   every workload, end to end
//	go run ./benchmark -workload hot-rmw -seed 7          one workload
//	go run ./benchmark -workload hot-rmw -trace 1         its per-layer metrics
//	go run ./benchmark -ladder                            the per-layer ladder alone
//	go run ./benchmark -runs 5 -out A.json                a set of runs for -compare
//	go run ./benchmark -compare A.json B.json             verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	defer func() {
		if p := recover(); p != nil {
			if f, ok := p.(fatal); ok {
				fmt.Fprintln(os.Stderr, "benchmark:", string(f))
				os.Exit(2)
			}
			panic(p)
		}
	}()
	var (
		wname   = flag.String("workload", "", "workload to run (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed of the load generators and the platforms")
		seconds = flag.Float64("seconds", 10, "timed repetitions run until their windows add up to this")
		trace   = flag.Int("trace", 0, "1: report the per-layer metrics (ladder, counters, traced and profiled repetitions) instead of the end-to-end ones")
		scaleN  = flag.String("scale", "full", "full or tiny (smoke test)")
		ladder  = flag.Bool("ladder", false, "time each layer alone through its exported functions and exit")
		runs    = flag.Int("runs", 1, "with no -workload: runs per workload, seeds seed..seed+runs-1")
		out     = flag.String("out", "", "with no -workload: write the set of runs to this file for -compare")
		compare = flag.Bool("compare", false, "compare two sets of runs: -compare A.json B.json")
	)
	flag.Parse()
	sc := scaleByName(*scaleN)
	if sc == nil {
		fatalf("unknown scale %q", *scaleN)
	}
	man, err := loadManifest()
	if err != nil {
		fatalf("%v", err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two files")
		}
		if !compareSets(os.Stdout, man, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case *ladder:
		printLadder(os.Stdout, runLadder(sc, *seed), man)
	case *wname != "":
		w := workloadByName(*wname)
		if w == nil {
			fatalf("unknown workload %q", *wname)
		}
		res := runWorkload(w, *seed, sc, *seconds, *trace != 0, man, os.Stdout)
		res.print(os.Stdout, man)
		detail, err := json.Marshal(res)
		if err != nil {
			fatalf("encoding the result: %v", err)
		}
		fmt.Printf("%s%s\n", detailPrefix, detail)
		fmt.Println(res.contractLine())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if !runAll(man, *seed, *runs, *scaleN, *seconds, *trace, *out) {
			os.Exit(1)
		}
	}
}

// detailPrefix marks the line carrying the full result, which the parent
// of a child run reads; the contract's line is the one after it.
const detailPrefix = "detail "

// runAll runs every workload of the manifest runs times, each run in a
// fresh child process so no run inherits another's heap, and optionally
// saves the set.
func runAll(man *manifest, seed uint64, runs int, scaleName string, seconds float64, trace int, out string) bool {
	self, err := os.Executable()
	if err != nil {
		fatalf("locating the benchmark binary: %v", err)
	}
	var set []*result
	ok := true
	for _, w := range man.Workloads {
		for i := 0; i < runs; i++ {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(i)),
				"-scale", scaleName, "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var res *result
			for _, line := range strings.Split(string(stdout), "\n") {
				if rest, found := strings.CutPrefix(line, detailPrefix); found {
					res = &result{}
					if err := json.Unmarshal([]byte(rest), res); err != nil {
						fatalf("%s: unreadable result: %v", w.Name, err)
					}
				}
			}
			if res == nil {
				os.Stdout.Write(stdout)
				fatalf("%s: child run produced no result: %v", w.Name, err)
			}
			res.print(os.Stdout, man)
			ok = ok && err == nil && res.Correct
			set = append(set, res)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			fatalf("encoding %s: %v", out, err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	return ok
}
