//go:build ignore

// Command check_trace gates CI on a bizabench -trace or -trace-jsonl
// artifact, read once through obs.ReadFold. It fails (non-zero exit) if the
// trace is missing or unreadable, if the fold counts any malformed record
// (a timestamp going backwards or below 0, a negative duration, a span
// begun twice, an end with no begin), if a span is left open or none was
// traced, if the nvme and zns layers plus at least one array engine
// (biza/raizn/zapraid) contribute no spans or slices, or if it records no
// zone events.
//
// Usage: go run scripts/check_trace.go /tmp/fig10_trace.json
package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"biza/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fail("usage: check_trace <trace.json>")
	}
	path := os.Args[1]
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()

	fold, err := obs.ReadFold(f)
	if err != nil {
		fail("%s: %v", path, err)
	}
	layers := map[string]int{} // span begins and slices per layer
	var zoneEvents int
	for _, p := range fold.Procs {
		if b := p.Bad; b != (obs.Anomalies{}) {
			fail("%s: pid %d: %d timestamp(s) going backwards or below 0, %d negative duration(s), %d span(s) begun twice, %d span end(s) without a begin",
				path, p.Pid, b.Backwards, b.NegDur, b.Rebegun, b.Orphans)
		}
		for l, c := range p.Layers {
			layers[l] += c
		}
		for _, c := range p.Events {
			zoneEvents += c
		}
	}

	if fold.Spans == 0 {
		fail("%s: no I/O spans", path)
	}
	if fold.Open > 0 {
		fail("%s: %d unterminated span(s)", path, fold.Open)
	}
	for _, want := range []string{"nvme", "zns"} {
		if layers[want] == 0 {
			fail("%s: no spans or slices from the %s layer", path, want)
		}
	}
	if layers["biza"]+layers["raizn"]+layers["zapraid"] == 0 {
		fail("%s: no spans from any array engine (biza/raizn/zapraid)", path)
	}
	if zoneEvents == 0 {
		fail("%s: no zone events", path)
	}
	var ls []string
	for l, c := range layers {
		ls = append(ls, fmt.Sprintf("%s=%d", l, c))
	}
	sort.Strings(ls)
	fmt.Printf("trace check ok: %d records, %d spans (%s), %d zone events, %d processes\n",
		fold.Records, fold.Spans, strings.Join(ls, " "), zoneEvents, len(fold.Procs))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check_trace: "+format+"\n", args...)
	os.Exit(1)
}
