package obs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func record(t *testing.T, write func(io.Writer, []*Trace) error, traces []*Trace) []ExportRec {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var got []ExportRec
	if err := ReadExport(&buf, func(r ExportRec) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("ReadExport: %v", err)
	}
	return got
}

// Both exports of one recording must reach a consumer as the same calls.
func TestReadExportFormatsAgree(t *testing.T) {
	failed := New(Config{})
	id := failed.SpanBegin(10, LayerRAIZN, OpRead, 1, 3, 64, 8)
	failed.Mark(id, 10, 40, LayerVolume, PhaseQoS, -1, -1, -1)
	failed.Event(45, LayerZNS, EvZoneReset, 1, 3, 7, 0, 0)
	failed.SpanEnd(id, 50, true)

	for _, tc := range []struct {
		name   string
		traces []*Trace
		want   int // records a consumer sees
	}{
		{"every kind", []*Trace{buildSample()}, 7},
		{"spans and marks", []*Trace{buildAttrTrace()}, 12},
		{"unnamed, failed span, nil slot", []*Trace{buildSample(), nil, failed}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := record(t, WritePerfetto, tc.traces)
			j := record(t, WriteJSONL, tc.traces)
			if len(p) != tc.want {
				t.Fatalf("perfetto yields %d records, want %d", len(p), tc.want)
			}
			if !reflect.DeepEqual(p, j) {
				t.Fatalf("formats disagree:\nperfetto %+v\njsonl    %+v", p, j)
			}
		})
	}

	got := record(t, WriteJSONL, []*Trace{buildSample()})
	want := []ExportRec{
		{Kind: ExpMeta, Proc: 1, Name: "test/0/BIZA"},
		{Kind: ExpSpanBegin, Proc: 1, TS: 1000, Span: got[1].Span, Layer: "nvme", Name: "nvme write"},
		{Kind: ExpSlice, Proc: 1, TS: 1000, Dur: 500, Span: got[1].Span, Layer: "zns", Name: "xfer", Track: "dev0 zns", Mark: true},
		{Kind: ExpSlice, Proc: 1, TS: 1500, Dur: 1000, Layer: "zns", Name: "program-die", Track: "dev0 ch1"},
		{Kind: ExpEvent, Proc: 1, TS: 2500, Name: "zrwa-commit", Reason: "implicit"},
		{Kind: ExpCounter, Proc: 1, TS: 2500, Name: "open_zones/dev0", Value: 3},
		{Kind: ExpSpanEnd, Proc: 1, TS: 3000, Span: got[1].Span},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
}

// Malformed input is an error from ReadExport, never a panic and never a
// silently shorter trace.
func TestReadExportRejectsMalformed(t *testing.T) {
	var perfetto bytes.Buffer
	if err := WritePerfetto(&perfetto, []*Trace{buildSample()}); err != nil {
		t.Fatal(err)
	}
	whole := perfetto.String()
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "empty trace"},
		{"array cut after an event", whole[:strings.LastIndex(whole, ",\n")], "not closed"},
		{"array cut inside an event", whole[:len(whole)/2], "event "},
		{"exponent ts", `[{"name":"x","ph":"i","pid":1,"ts":1e3}]`, "bad timestamp"},
		{"non-numeric ts", `[{"name":"x","ph":"i","pid":1,"ts":"soon"}]`, "event 1"},
		{"bad dur", `[{"name":"x","ph":"X","pid":1,"ts":1.000,"dur":0x10}]`, "event 1"},
		{"jsonl fractional ts", `{"trace":1,"ts":1.5,"rec":"event","event":"x"}`, "line 1"},
		{"jsonl cut line", `{"trace":1,"rec":"meta","name":"a"}` + "\n" + `{"trace":1,"ts":5,"rec":"sp`, "line 2"},
		{"jsonl line over the scanner limit", `{"trace":1,"rec":"meta","name":"` + strings.Repeat("a", 1<<22) + `"}`, "token too long"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := ReadExport(strings.NewReader(tc.in), func(ExportRec) error { return nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if _, aerr := Attribute(strings.NewReader(tc.in)); aerr == nil {
				t.Fatal("Attribute accepted it")
			}
			if eerr := Explain(strings.NewReader(tc.in), io.Discard, 5); eerr == nil {
				t.Fatal("Explain accepted it")
			}
		})
	}
}
