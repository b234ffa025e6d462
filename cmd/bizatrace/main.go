// Command bizatrace reads an observability trace captured with bizabench
// -trace (Perfetto JSON or JSONL). It has two subcommands and no
// top-level flags.
//
// The explain subcommand summarizes the trace, ranking the simulated
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
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explain":
			explainMain(os.Args[2:])
			return
		case "attr":
			attrMain(os.Args[2:])
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: bizatrace explain [-top N] <trace> | bizatrace attr <trace>")
	os.Exit(2)
}
