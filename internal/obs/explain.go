package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Explain reads a trace previously exported with WritePerfetto or
// WriteJSONL and prints, per traced engine, the top contention sources:
// service tracks ranked by busy time, span latency by layer/operation, zone
// event counts, and final probe values.
func Explain(r io.Reader, w io.Writer, top int) error {
	f, err := ReadFold(r)
	if err != nil {
		return err
	}
	if top <= 0 {
		top = 5
	}
	for _, p := range f.Procs {
		p.explain(w, top)
	}
	return nil
}

func (p *FoldProc) explain(w io.Writer, top int) {
	span := p.MaxTS - p.MinTS
	fmt.Fprintf(w, "=== %s (virtual span %.3f ms) ===\n", p.Name, float64(span)/1e6)

	if tracks := rank(p.Busy, func(b Busy) int64 { return b.NS }); len(tracks) > 0 {
		fmt.Fprintf(w, "  top contention sources (busy time):\n")
		for _, t := range tracks[:min(top, len(tracks))] {
			b := p.Busy[t]
			util := 0.0
			if span > 0 {
				util = 100 * float64(b.NS) / float64(span)
			}
			fmt.Fprintf(w, "    %-24s %10.3f ms busy  (%5.1f%% of span, %d slices)\n",
				t, float64(b.NS)/1e6, util, b.Slices)
		}
	}

	heading := "  I/O spans:\n"
	for _, g := range p.Groups {
		if n := g.E2E.Count(); n > 0 {
			fmt.Fprint(w, heading)
			heading = ""
			fmt.Fprintf(w, "    %-24s n=%-8d mean latency %10.3f us\n", g.Name, n, g.E2E.Mean()/1e3)
		}
	}
	if p.Failed > 0 {
		fmt.Fprintf(w, "    failed spans: %d\n", p.Failed)
	}
	if p.Open > 0 {
		fmt.Fprintf(w, "    unterminated spans: %d\n", p.Open)
	}

	evs := make([]string, 0, len(p.Events))
	for k := range p.Events {
		evs = append(evs, k)
	}
	slices.Sort(evs)
	if len(evs) > 0 {
		fmt.Fprintf(w, "  zone/GC events:\n")
		for _, e := range evs {
			fmt.Fprintf(w, "    %-24s %d\n", e, p.Events[e])
		}
	}

	// Probes: zero-valued entries carry no signal; rank the rest by value
	// so the busiest channels surface first, and cap at top entries.
	ctrs := slices.DeleteFunc(rank(p.Counters, func(v int64) int64 { return v }),
		func(k string) bool { return p.Counters[k] == 0 })
	if len(ctrs) > 0 {
		fmt.Fprintf(w, "  probes (final, nonzero):\n")
		for i, c := range ctrs {
			if i >= top {
				fmt.Fprintf(w, "    ... %d more\n", len(ctrs)-i)
				break
			}
			fmt.Fprintf(w, "    %-32s %d\n", c, p.Counters[c])
		}
	}
}

// rank lists m's keys by value, largest first, ties in key order.
func rank[V any](m map[string]V, val func(V) int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(val(m[b]), val(m[a])), strings.Compare(a, b))
	})
	return keys
}
