package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildEdgeTrace is an unnamed engine with a failed span, a span left open
// and more nonzero probes than Explain's top 5 lists.
func buildEdgeTrace() *Trace {
	tr := New(Config{})
	id := tr.SpanBegin(10, LayerRAIZN, OpRead, 1, 3, 64, 8)
	tr.Mark(id, 10, 40, LayerVolume, PhaseQoS, -1, -1, -1)
	tr.SpanBegin(20, LayerRAIZN, OpWrite, 1, 3, 72, 8) // never ended
	tr.Event(45, LayerZNS, EvZoneReset, 1, 3, 7, 0, 0)
	for dev := 0; dev < 7; dev++ {
		tr.Counter(45, ProbeKey(ProbeOpenZones, dev, 0), int64(dev))
	}
	tr.SpanEnd(id, 50, true)
	return tr
}

// goldenSets are the synthetic exports whose Explain and Attr bytes are
// pinned under testdata/.
var goldenSets = []struct {
	name   string
	traces func() []*Trace
}{
	{"sample", func() []*Trace { return []*Trace{buildSample()} }},
	{"attr", func() []*Trace { return []*Trace{buildAttrTrace()} }},
	{"mixed", func() []*Trace { return []*Trace{buildSample(), nil, buildEdgeTrace()} }},
}

// Both formats of each synthetic trace produce exactly the pinned report
// bytes from Explain (top 5) and Attr, and fold with no anomaly.
func TestFoldGolden(t *testing.T) {
	for _, set := range goldenSets {
		for _, format := range []struct {
			name  string
			write func(*bytes.Buffer, []*Trace) error
		}{
			{"perfetto", func(b *bytes.Buffer, tr []*Trace) error { return WritePerfetto(b, tr) }},
			{"jsonl", func(b *bytes.Buffer, tr []*Trace) error { return WriteJSONL(b, tr) }},
		} {
			var export bytes.Buffer
			if err := format.write(&export, set.traces()); err != nil {
				t.Fatal(err)
			}
			f, err := ReadFold(bytes.NewReader(export.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range f.Procs {
				if p.Bad != (Anomalies{}) {
					t.Errorf("%s %s: %s: anomalies %+v", set.name, format.name, p.Name, p.Bad)
				}
			}
			for _, tool := range []struct {
				name string
				run  func(*bytes.Reader, *bytes.Buffer) error
			}{
				{"explain", func(r *bytes.Reader, w *bytes.Buffer) error { return Explain(r, w, 5) }},
				{"attr", func(r *bytes.Reader, w *bytes.Buffer) error { return Attr(r, w) }},
			} {
				var out bytes.Buffer
				if err := tool.run(bytes.NewReader(export.Bytes()), &out); err != nil {
					t.Fatalf("%s %s %s: %v", set.name, format.name, tool.name, err)
				}
				path := filepath.Join("testdata", set.name+"."+tool.name+".golden")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("%s from %s differs from %s:\n%s\nwant\n%s", tool.name, format.name, path, out.Bytes(), want)
				}
			}
		}
	}
}

// A ring-wrapped export ends spans whose begins the ring dropped. Attribute
// folds it without an error and counts each such end as an orphan.
func TestFoldRingWrapped(t *testing.T) {
	tr := New(Config{Capacity: 8})
	for i := int64(0); i < 6; i++ { // 18 records: the ring keeps the last 8
		id := tr.SpanBegin(10*i, LayerBIZA, OpWrite, -1, -1, i, 1)
		tr.Mark(id, 10*i, 10*i+5, LayerZNS, PhaseDie, 0, 0, 0)
		tr.SpanEnd(id, 10*i+8, false)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	a, err := Attribute(&buf)
	if err != nil {
		t.Fatalf("Attribute: %v", err)
	}
	if a.Spans != 2 || a.Open != 0 {
		t.Fatalf("spans=%d open=%d, want 2/0", a.Spans, a.Open)
	}
	if got, want := a.Procs[0].Bad, (Anomalies{Orphans: 1}); got != want {
		t.Fatalf("anomalies %+v, want %+v", got, want)
	}
	if die := a.Procs[0].Groups[0].Stage[StageDie].Mean(); die != 5 {
		t.Fatalf("die mean %v, want 5", die)
	}
}

// The fold counts every anomaly check_trace rejects, per engine, and keeps
// folding past each one.
func TestFoldCountsAnomalies(t *testing.T) {
	export := `{"trace":1,"rec":"meta","name":"bad"}
{"trace":1,"ts":-5,"rec":"event","event":"zone-reset"}
{"trace":1,"ts":10,"rec":"span-begin","span":1,"layer":"biza","op":"write"}
{"trace":1,"ts":12,"rec":"span-begin","span":1,"layer":"biza","op":"write"}
{"trace":1,"ts":15,"rec":"segment","seg":"program-die","layer":"zns","dev":0,"ch":1,"dur":-3}
{"trace":1,"ts":14,"rec":"span-end","span":1}
{"trace":1,"ts":20,"rec":"span-end","span":2}
{"trace":2,"ts":0,"rec":"span-begin","span":1,"layer":"nvme","op":"read"}
{"trace":2,"ts":9,"rec":"span-end","span":1}
`
	f, err := ReadFold(strings.NewReader(export))
	if err != nil {
		t.Fatalf("ReadFold: %v", err)
	}
	if len(f.Procs) != 2 || f.Records != 9 || f.Spans != 2 || f.Open != 0 {
		t.Fatalf("procs=%d records=%d spans=%d open=%d, want 2/9/2/0", len(f.Procs), f.Records, f.Spans, f.Open)
	}
	bad, good := f.Procs[0], f.Procs[1]
	if want := (Anomalies{Backwards: 2, NegDur: 1, Rebegun: 1, Orphans: 1}); bad.Bad != want {
		t.Fatalf("anomalies %+v, want %+v", bad.Bad, want)
	}
	if good.Bad != (Anomalies{}) || good.Name != "trace2" {
		t.Fatalf("second engine %q: anomalies %+v", good.Name, good.Bad)
	}
	if bad.MinTS != -5 || bad.MaxTS != 20 || bad.Layers["biza"] != 2 || bad.Layers["zns"] != 1 ||
		bad.Busy["dev0 ch1"] != (Busy{NS: -3, Slices: 1}) || bad.Events["zone-reset"] != 1 {
		t.Fatalf("fold of the first engine: %+v", bad)
	}
}
