package obs

import (
	"fmt"
	"io"
	"sort"
)

// Fold is one pass over a trace export: per traced engine, everything that
// Explain, Attr and scripts/check_trace.go report. It counts malformed
// records and never fails on them, because a ring-wrapped export ends spans
// whose begins the ring dropped.
type Fold struct {
	Procs   []*FoldProc // in first-seen order
	Records int         // records read, metadata included
	Spans   int         // spans attributed: begin and end both read
	Open    int         // spans with a begin but no end (ring drop / in flight)
}

// Attribution is the fold under the name attribution callers know it by.
type Attribution = Fold

// FoldProc is one traced engine's share of a fold.
type FoldProc struct {
	Pid          int
	Name         string // "trace<Pid>" when the export names none
	MinTS, MaxTS int64  // virtual ns over every record, slice ends included

	Groups   []*AttrGroup     // (layer, op) populations, sorted by name
	Failed   int              // spans ended with an error
	Open     int              // spans begun and not ended
	Busy     map[string]Busy  // service track -> occupancy
	Layers   map[string]int   // layer -> span begins plus slices
	Events   map[string]int   // "kind" or "kind/reason" -> count
	Counters map[string]int64 // probe -> final value
	Bad      Anomalies

	groups map[string]*AttrGroup
	open   map[uint64]*attrSpan
	last   int64 // timestamp of the previous record
	seen   bool  // MinTS and MaxTS hold a timestamp
}

// Busy is one service track's occupancy: summed slice time and slice count.
type Busy struct {
	NS     int64
	Slices int
}

// Anomalies counts one engine's malformed records.
type Anomalies struct {
	Backwards int // timestamp below the engine's previous one, or below 0
	NegDur    int // slice with a negative duration
	Rebegun   int // span begun while already open
	Orphans   int // span end with no open begin
}

// ReadFold reads a trace exported with WritePerfetto or WriteJSONL once and
// folds it. Only an unreadable export is an error.
func ReadFold(r io.Reader) (*Fold, error) {
	f := &Fold{}
	byPid := map[int]*FoldProc{}
	err := ReadExport(r, func(rec ExportRec) error {
		f.Records++
		p := byPid[rec.Proc]
		if p == nil {
			p = &FoldProc{Pid: rec.Proc, Busy: map[string]Busy{}, Layers: map[string]int{},
				Events: map[string]int{}, Counters: map[string]int64{},
				groups: map[string]*AttrGroup{}, open: map[uint64]*attrSpan{}}
			byPid[rec.Proc] = p
			f.Procs = append(f.Procs, p)
		}
		p.add(f, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range f.Procs {
		if p.Name == "" {
			p.Name = fmt.Sprintf("trace%d", p.Pid)
		}
		for _, g := range p.groups {
			p.Groups = append(p.Groups, g)
		}
		sort.Slice(p.Groups, func(i, j int) bool { return p.Groups[i].Name < p.Groups[j].Name })
		p.Open = len(p.open)
		f.Open += p.Open
	}
	return f, nil
}

// Attribute reads a trace export and computes per-stage latency
// attribution: ReadFold, read for its Groups.
func Attribute(r io.Reader) (*Attribution, error) { return ReadFold(r) }

func (p *FoldProc) add(f *Fold, rec ExportRec) {
	if rec.Kind == ExpMeta {
		p.Name = rec.Name
		return // metadata carries no timestamp
	}
	if rec.TS < p.last {
		p.Bad.Backwards++
	}
	p.last = rec.TS
	p.see(rec.TS)
	switch rec.Kind {
	case ExpSpanBegin:
		p.Layers[rec.Layer]++
		if p.open[rec.Span] != nil {
			p.Bad.Rebegun++
		}
		g := p.groups[rec.Name]
		if g == nil {
			g = newAttrGroup(rec.Name)
			p.groups[rec.Name] = g
		}
		p.open[rec.Span] = &attrSpan{begin: rec.TS, group: g}
	case ExpSlice:
		p.see(rec.TS + rec.Dur)
		if rec.Dur < 0 {
			p.Bad.NegDur++
		}
		b := p.Busy[rec.Track]
		b.NS += rec.Dur
		b.Slices++
		p.Busy[rec.Track] = b
		// The I/O span belongs to the driver queue; device layers add
		// marks and segments to it.
		if rec.Layer != "" {
			p.Layers[rec.Layer]++
		}
		// Segments belong to no span; a mark whose begin was sampled out
		// or dropped by the ring attributes nothing.
		if s := p.open[rec.Span]; s != nil && rec.Mark && rec.Dur >= 0 {
			if stage := attrStageOf(rec.Name); stage >= 0 {
				s.ivs = append(s.ivs, attrIv{start: rec.TS, end: rec.TS + rec.Dur, stage: stage})
			}
		}
	case ExpSpanEnd:
		s := p.open[rec.Span]
		if s == nil {
			p.Bad.Orphans++
			return
		}
		delete(p.open, rec.Span)
		f.Spans++
		if rec.Failed {
			p.Failed++
		}
		attributeSpan(s, rec.TS)
	case ExpEvent:
		name := rec.Name
		if rec.Reason != "" {
			name += "/" + rec.Reason
		}
		p.Events[name]++
	case ExpCounter:
		p.Counters[rec.Name] = rec.Value
	}
}

func (p *FoldProc) see(ts int64) {
	if !p.seen || ts < p.MinTS {
		p.MinTS = ts
	}
	if !p.seen || ts > p.MaxTS {
		p.MaxTS = ts
	}
	p.seen = true
}
