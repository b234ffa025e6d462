//go:build ignore

// Command check_trace gates CI on a bizabench -trace or -trace-jsonl
// artifact, read through obs.ReadExport. It fails (non-zero exit) if the
// trace is missing, malformed, has non-monotonic virtual timestamps within
// any process, carries unmatched or zero I/O spans, lacks spans from the
// nvme and zns layers plus at least one array engine (biza/raizn/zapraid),
// or records zero zone events.
//
// Usage: go run scripts/check_trace.go /tmp/fig10_trace.json
package main

import (
	"fmt"
	"os"
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

	var (
		n          int
		lastTS     = map[int]int64{} // pid -> last seen ts (monotonicity)
		openSpans  = map[int]map[uint64]bool{}
		spanBegins int
		zoneEvents int
		layers     = map[string]int{} // span or slice layer -> count
	)
	err = obs.ReadExport(f, func(r obs.ExportRec) error {
		n++
		if r.Kind == obs.ExpMeta {
			return nil // metadata carries no timestamp
		}
		if r.TS < 0 {
			return fmt.Errorf("negative timestamp %d ns", r.TS)
		}
		if last, ok := lastTS[r.Proc]; ok && r.TS < last {
			return fmt.Errorf("pid %d timestamp went backwards (%d < %d ns)", r.Proc, r.TS, last)
		}
		lastTS[r.Proc] = r.TS
		switch r.Kind {
		case obs.ExpSpanBegin:
			spanBegins++
			layers[r.Layer]++
			if openSpans[r.Proc] == nil {
				openSpans[r.Proc] = map[uint64]bool{}
			}
			if openSpans[r.Proc][r.Span] {
				return fmt.Errorf("pid %d: span %d begun twice", r.Proc, r.Span)
			}
			openSpans[r.Proc][r.Span] = true
		case obs.ExpSpanEnd:
			if !openSpans[r.Proc][r.Span] {
				return fmt.Errorf("pid %d: span %d ended without begin", r.Proc, r.Span)
			}
			delete(openSpans[r.Proc], r.Span)
		case obs.ExpSlice:
			if r.Dur < 0 {
				return fmt.Errorf("%q: negative duration %d ns", r.Name, r.Dur)
			}
			// The async I/O span is owned by the driver queue; device
			// layers contribute phase/segment slices to it.
			if r.Layer != "" {
				layers[r.Layer]++
			}
		case obs.ExpEvent:
			zoneEvents++
		}
		return nil
	})
	if err != nil {
		fail("%s: %v", path, err)
	}

	if spanBegins == 0 {
		fail("%s: no I/O spans", path)
	}
	var unterminated int
	for _, open := range openSpans {
		unterminated += len(open)
	}
	if unterminated > 0 {
		fail("%s: %d unterminated span(s)", path, unterminated)
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
	fmt.Printf("trace check ok: %d records, %d spans (%s), %d zone events, %d processes\n",
		n, spanBegins, strings.Join(sorted(ls), " "), zoneEvents, len(lastTS))
}

func sorted(s []string) []string {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "check_trace: "+format+"\n", args...)
	os.Exit(1)
}
