package obs

import (
	"fmt"
	"io"
	"sort"
)

// Explain reads a trace previously exported with WritePerfetto or
// WriteJSONL and prints, per traced engine, the top contention sources:
// service tracks ranked by busy time, span latency by layer/operation, zone
// event counts, and final probe values.
func Explain(r io.Reader, w io.Writer, top int) error {
	byProc := map[int]*explainProc{}
	var procs []*explainProc
	err := ReadExport(r, func(rec ExportRec) error {
		p, ok := byProc[rec.Proc]
		if !ok {
			p = newExplainProc(rec.Proc)
			byProc[rec.Proc] = p
			procs = append(procs, p)
		}
		switch rec.Kind {
		case ExpMeta:
			p.name = rec.Name
		case ExpSpanBegin:
			p.beginSpan(rec.Span, rec.Name, rec.TS)
		case ExpSlice:
			p.addSlice(rec.Track, rec.TS, rec.Dur)
		case ExpSpanEnd:
			p.endSpan(rec.Span, rec.TS, rec.Failed)
		case ExpEvent:
			p.see(rec.TS)
			name := rec.Name
			if rec.Reason != "" {
				name += "/" + rec.Reason
			}
			p.events[name]++
		case ExpCounter:
			p.see(rec.TS)
			p.counters[rec.Name] = rec.Value
		}
		return nil
	})
	if err != nil {
		return err
	}
	if top <= 0 {
		top = 5
	}
	for _, p := range procs {
		p.write(w, top)
	}
	return nil
}

// explainProc accumulates one traced engine's aggregates.
type explainProc struct {
	pid  int
	name string

	minTS, maxTS int64
	haveTS       bool

	busy      map[string]int64 // track -> busy ns
	busyCount map[string]int   // track -> slice count

	spanStart map[uint64]int64  // open spans
	spanName  map[uint64]string // open span -> "layer op"
	spanSum   map[string]int64  // "layer op" -> total latency ns
	spanCount map[string]int
	spanErr   int

	events   map[string]int // event name (with reason suffix) -> count
	counters map[string]int64
}

func newExplainProc(pid int) *explainProc {
	return &explainProc{
		pid:       pid,
		busy:      map[string]int64{},
		busyCount: map[string]int{},
		spanStart: map[uint64]int64{},
		spanName:  map[uint64]string{},
		spanSum:   map[string]int64{},
		spanCount: map[string]int{},
		events:    map[string]int{},
		counters:  map[string]int64{},
	}
}

func (p *explainProc) see(ts int64) {
	if !p.haveTS || ts < p.minTS {
		p.minTS = ts
	}
	if !p.haveTS || ts > p.maxTS {
		p.maxTS = ts
	}
	p.haveTS = true
}

func (p *explainProc) addSlice(track string, start, dur int64) {
	p.see(start)
	p.see(start + dur)
	p.busy[track] += dur
	p.busyCount[track]++
}

func (p *explainProc) beginSpan(id uint64, name string, ts int64) {
	p.see(ts)
	p.spanStart[id] = ts
	p.spanName[id] = name
}

func (p *explainProc) endSpan(id uint64, ts int64, failed bool) {
	p.see(ts)
	start, ok := p.spanStart[id]
	if !ok {
		return
	}
	name := p.spanName[id]
	delete(p.spanStart, id)
	delete(p.spanName, id)
	p.spanSum[name] += ts - start
	p.spanCount[name]++
	if failed {
		p.spanErr++
	}
}

func (p *explainProc) write(w io.Writer, top int) {
	name := p.name
	if name == "" {
		name = fmt.Sprintf("trace%d", p.pid)
	}
	span := p.maxTS - p.minTS
	fmt.Fprintf(w, "=== %s (virtual span %.3f ms) ===\n", name, float64(span)/1e6)

	type kv struct {
		k string
		v int64
	}
	tracks := make([]kv, 0, len(p.busy))
	for k, v := range p.busy {
		tracks = append(tracks, kv{k, v})
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].v != tracks[j].v {
			return tracks[i].v > tracks[j].v
		}
		return tracks[i].k < tracks[j].k
	})
	if len(tracks) > 0 {
		fmt.Fprintf(w, "  top contention sources (busy time):\n")
		for i, t := range tracks {
			if i >= top {
				break
			}
			util := 0.0
			if span > 0 {
				util = 100 * float64(t.v) / float64(span)
			}
			fmt.Fprintf(w, "    %-24s %10.3f ms busy  (%5.1f%% of span, %d slices)\n",
				t.k, float64(t.v)/1e6, util, p.busyCount[t.k])
		}
	}

	names := make([]string, 0, len(p.spanCount))
	for k := range p.spanCount {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(w, "  I/O spans:\n")
		for _, n := range names {
			c := p.spanCount[n]
			fmt.Fprintf(w, "    %-24s n=%-8d mean latency %10.3f us\n",
				n, c, float64(p.spanSum[n])/float64(c)/1e3)
		}
	}
	if p.spanErr > 0 {
		fmt.Fprintf(w, "    failed spans: %d\n", p.spanErr)
	}
	if len(p.spanStart) > 0 {
		fmt.Fprintf(w, "    unterminated spans: %d\n", len(p.spanStart))
	}

	evs := make([]string, 0, len(p.events))
	for k := range p.events {
		evs = append(evs, k)
	}
	sort.Strings(evs)
	if len(evs) > 0 {
		fmt.Fprintf(w, "  zone/GC events:\n")
		for _, e := range evs {
			fmt.Fprintf(w, "    %-24s %d\n", e, p.events[e])
		}
	}

	// Probes: zero-valued entries carry no signal; rank the rest by value
	// so the busiest channels surface first, and cap at top entries.
	ctrs := make([]kv, 0, len(p.counters))
	for k, v := range p.counters {
		if v != 0 {
			ctrs = append(ctrs, kv{k, v})
		}
	}
	sort.Slice(ctrs, func(i, j int) bool {
		if ctrs[i].v != ctrs[j].v {
			return ctrs[i].v > ctrs[j].v
		}
		return ctrs[i].k < ctrs[j].k
	})
	if len(ctrs) > 0 {
		fmt.Fprintf(w, "  probes (final, nonzero):\n")
		for i, c := range ctrs {
			if i >= top {
				fmt.Fprintf(w, "    ... %d more\n", len(ctrs)-i)
				break
			}
			fmt.Fprintf(w, "    %-32s %d\n", c.k, c.v)
		}
	}
}
