// Command bizatrace synthesizes the paper's trace workloads, prints their
// Table 6 characteristics and reuse-distance CDF (Fig. 4's metric), and
// optionally replays them against a platform:
//
//	bizatrace -workload casa -ops 50000
//	bizatrace -workload tencent -replay BIZA
//	bizatrace -list
//
// The explain subcommand summarizes an observability trace captured with
// bizabench -trace (Perfetto JSON or JSONL), ranking the simulated
// contention sources by busy time:
//
//	bizatrace explain fig10.json
//	bizatrace explain -top 20 fig10.jsonl
//
// The attr subcommand decomposes every completed span in such a trace
// into per-stage latency attribution (qos-stall, queue, xfer, bus, die,
// buffer, unattributed) whose stage means sum exactly to the end-to-end
// mean:
//
//	bizatrace attr fig10.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"biza/internal/obs"
	"biza/internal/stack"
	"biza/internal/trace"
	"biza/internal/workload"
)

// explainMain implements "bizatrace explain [-top N] <trace file>".
func explainMain(args []string) {
	fs := flag.NewFlagSet("bizatrace explain", flag.ExitOnError)
	top := fs.Int("top", 10, "contention sources to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bizatrace explain [-top N] <trace.json|trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := obs.Explain(f, os.Stdout, *top); err != nil {
		fmt.Fprintf(os.Stderr, "bizatrace explain: %v\n", err)
		os.Exit(1)
	}
}

// attrMain implements "bizatrace attr <trace file>".
func attrMain(args []string) {
	fs := flag.NewFlagSet("bizatrace attr", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bizatrace attr <trace.json|trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := obs.Attr(f, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bizatrace attr: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		explainMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "attr" {
		attrMain(os.Args[2:])
		return
	}
	name := flag.String("workload", "casa", "workload profile (see -list)")
	ops := flag.Int("ops", 50000, "operations to synthesize")
	seed := flag.Uint64("seed", 11, "random seed")
	replay := flag.String("replay", "", "platform to replay against (empty = analyze only)")
	depth := flag.Int("depth", 32, "replay I/O depth")
	list := flag.Bool("list", false, "list workload profiles")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles {
			fmt.Printf("%-8s write%%=%.1f footprint=%dMB hot=%dMB hotWrites=%.0f%%\n",
				p.Name, p.WriteRatio*100, p.FootprintMB, p.HotMB, p.HotWriteFrac*100)
		}
		return
	}
	prof := workload.ProfileByName(*name)
	if prof == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *name)
		os.Exit(1)
	}
	tr := prof.Synthesize(*seed, *ops)
	st := tr.Characterize()
	fmt.Printf("workload %s: %d ops, write ratio %.1f%%, avg read %.1f KB, avg write %.1f KB\n",
		tr.Name, st.Ops, st.WriteRatio*100, st.AvgReadBytes/1024, st.AvgWriteBytes/1024)
	thresholds := []int64{1 << 20, 14 << 20, 56 << 20, 256 << 20, 1 << 30}
	labels := []string{"1MB", "14MB", "56MB", "256MB", "1GB"}
	cdf := tr.ReuseCDF(thresholds)
	fmt.Println("reuse-distance CDF:")
	for i, v := range cdf {
		fmt.Printf("  <= %-6s %.3f\n", labels[i], v)
	}
	if *replay == "" {
		return
	}
	p, err := stack.New(stack.Kind(*replay), stack.Options{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := trace.Replay(p.Eng, p.Dev, tr, *depth)
	fmt.Printf("replay on %s: %s, %d errors\n", *replay, res.Throughput(), res.Errors)
	fmt.Printf("  write p50=%.1fus p99.99=%.1fus | read p50=%.1fus p99.99=%.1fus\n",
		float64(res.WriteLat.Percentile(50))/1000, float64(res.WriteLat.Percentile(99.99))/1000,
		float64(res.ReadLat.Percentile(50))/1000, float64(res.ReadLat.Percentile(99.99))/1000)
	wa := p.FlashWriteAmp()
	fmt.Printf("  write amp: %.3f (data %.3f + parity %.3f)\n", wa.Factor(), wa.DataFactor(), wa.ParityFactor())
}
