package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ExportKind discriminates the records of a trace export.
type ExportKind uint8

// Export record kinds: WriteJSONL's line shapes, with marks and segments as
// one kind. WritePerfetto's thread_name metadata is folded into
// ExportRec.Track and not delivered.
const (
	ExpMeta      ExportKind = iota // Name = engine name
	ExpSpanBegin                   // Span, Layer, Name = "layer op"
	ExpSlice                       // service interval [TS, TS+Dur) on Track: a phase mark of Span (Mark) or a standalone segment
	ExpSpanEnd                     // Span, Failed
	ExpEvent                       // Name = event kind, Reason when the kind has one
	ExpCounter                     // Name = probe, Value
)

// ExportRec is one decoded record of a trace export: the single shape both
// formats reduce to. Fields a kind does not use are zero.
type ExportRec struct {
	Kind   ExportKind
	Proc   int   // traced engine: Perfetto pid, JSONL trace index
	TS     int64 // virtual ns
	Dur    int64
	Span   uint64
	Value  int64
	Layer  string
	Name   string
	Track  string // "dev0 ch3", "dev1 zns", "biza service"
	Reason string
	Mark   bool
	Failed bool
}

// ReadExport decodes a trace written by WritePerfetto or WriteJSONL (told
// apart by the first byte) and hands fn every record in file order; both
// formats of one trace yield the same sequence. An error from fn stops the
// read and comes back prefixed with the record's position.
func ReadExport(r io.Reader, fn func(ExportRec) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(1)
	if err != nil {
		return fmt.Errorf("empty trace: %w", err)
	}
	if head[0] == '[' {
		return readPerfetto(br, fn)
	}
	return readJSONL(br, fn)
}

// perfettoEvent is the subset of trace_event fields WritePerfetto fills.
type perfettoEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Cat  string      `json:"cat"`
	ID   uint64      `json:"id"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	TS   json.Number `json:"ts"`
	Dur  json.Number `json:"dur"`
	Args struct {
		Name   string `json:"name"`
		Span   uint64 `json:"span"`
		Layer  string `json:"layer"`
		Status string `json:"status"`
		Reason string `json:"reason"`
		Value  int64  `json:"value"`
	} `json:"args"`
}

func readPerfetto(r io.Reader, fn func(ExportRec) error) error {
	dec := json.NewDecoder(r)
	if _, err := dec.Token(); err != nil { // opening '['
		return fmt.Errorf("trace is not a JSON array: %w", err)
	}
	threadName := map[[2]int]string{}
	for n := 1; dec.More(); n++ {
		var ev perfettoEvent
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
		ts, err := usToNs(ev.TS)    // absent on metadata
		dur, derr := usToNs(ev.Dur) // present on slices only
		if err == nil {
			err = derr
		}
		if err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
		rec := ExportRec{Proc: ev.Pid, TS: ts, Dur: dur}
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			threadName[[2]int{ev.Pid, ev.Tid}] = ev.Args.Name
			continue
		case ev.Ph == "M" && ev.Name == "process_name":
			rec.Kind, rec.Name = ExpMeta, ev.Args.Name
		case ev.Ph == "b":
			rec.Kind, rec.Span, rec.Layer, rec.Name = ExpSpanBegin, ev.ID, ev.Cat, ev.Name
		case ev.Ph == "e":
			rec.Kind, rec.Span, rec.Failed = ExpSpanEnd, ev.ID, ev.Args.Status == "error"
		case ev.Ph == "X":
			rec.Kind, rec.Layer, rec.Span, rec.Name = ExpSlice, ev.Args.Layer, ev.Args.Span, ev.Name
			rec.Mark = ev.Cat == "phase"
			if rec.Track = threadName[[2]int{ev.Pid, ev.Tid}]; rec.Track == "" {
				rec.Track = fmt.Sprintf("tid%d", ev.Tid)
			}
		case ev.Ph == "i":
			rec.Kind, rec.Name, rec.Reason = ExpEvent, ev.Name, ev.Args.Reason
		case ev.Ph == "C":
			rec.Kind, rec.Name, rec.Value = ExpCounter, ev.Name, ev.Args.Value
		default:
			continue
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return fmt.Errorf("trace array not closed: %w", err)
	}
	return nil
}

// jsonlLine is the union of WriteJSONL line shapes.
type jsonlLine struct {
	Trace  int    `json:"trace"`
	Rec    string `json:"rec"`
	Name   string `json:"name"`
	TS     int64  `json:"ts"`
	Span   uint64 `json:"span"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Phase  string `json:"phase"`
	Seg    string `json:"seg"`
	Event  string `json:"event"`
	Status string `json:"status"`
	Reason string `json:"reason"`
	Dev    int    `json:"dev"`
	Ch     int    `json:"ch"`
	Dur    int64  `json:"dur"`
	Probe  string `json:"probe"`
	Value  int64  `json:"value"`
}

func readJSONL(r io.Reader, fn func(ExportRec) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		rec := ExportRec{Proc: l.Trace, TS: l.TS}
		switch l.Rec {
		case "meta":
			rec.Kind, rec.Name = ExpMeta, l.Name
		case "span-begin":
			rec.Kind, rec.Span, rec.Layer, rec.Name = ExpSpanBegin, l.Span, l.Layer, l.Layer+" "+l.Op
		case "span-end":
			rec.Kind, rec.Span, rec.Failed = ExpSpanEnd, l.Span, l.Status == "error"
		case "mark", "segment":
			rec.Kind, rec.Dur, rec.Layer, rec.Span = ExpSlice, l.Dur, l.Layer, l.Span
			rec.Track = trackName(l.Dev, l.Ch, l.Layer)
			if rec.Mark = l.Rec == "mark"; rec.Mark {
				rec.Name = l.Phase
			} else {
				rec.Name = l.Seg
			}
		case "event":
			rec.Kind, rec.Name, rec.Reason = ExpEvent, l.Event, l.Reason
		case "counter":
			rec.Kind, rec.Name, rec.Value = ExpCounter, l.Probe, l.Value
		default:
			continue
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// usToNs converts a fixed-point microsecond literal ("12.345") to integer
// nanoseconds without float round-trip.
func usToNs(n json.Number) (int64, error) {
	s := n.String()
	if s == "" {
		return 0, nil
	}
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	whole, frac := s, ""
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac = s[:i], s[i+1:]
	}
	us, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q: %w", n, err)
	}
	for len(frac) < 3 {
		frac += "0"
	}
	ns, err := strconv.ParseInt(frac[:3], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q: %w", n, err)
	}
	v := us*1000 + ns
	if neg {
		v = -v
	}
	return v, nil
}
