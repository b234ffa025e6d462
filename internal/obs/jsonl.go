package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteJSONL serializes traces as one compact JSON object per line — a
// stream form suited to grep/jq pipelines and to `bizatrace explain`.
// Line order and field order are deterministic.
//
// Line schema (fields omitted when inapplicable):
//
//	{"trace":N,"ts":ns,"rec":"span-begin","span":id,"layer":L,"op":O,"dev":D,"zone":Z,"lba":A,"blocks":B}
//	{"trace":N,"ts":ns,"rec":"span-end","span":id,"status":"ok"|"error"}
//	{"trace":N,"ts":ns,"rec":"mark","span":id,"layer":L,"phase":P,"dev":D,"zone":Z,"ch":C,"dur":ns}
//	{"trace":N,"ts":ns,"rec":"segment","layer":L,"seg":S,"dev":D,"zone":Z,"ch":C,"dur":ns,"blocks":B}
//	{"trace":N,"ts":ns,"rec":"event","event":E,"layer":L,"dev":D,"zone":Z,...per-kind...}
//	{"trace":N,"ts":ns,"rec":"counter","probe":"name","value":V}
func WriteJSONL(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for ti, t := range traces {
		if t == nil {
			continue
		}
		name := t.Name()
		if name == "" {
			name = fmt.Sprintf("trace%d", ti+1)
		}
		fmt.Fprintf(bw, `{"trace":%d,"rec":"meta","name":%s,"dropped":%d}`+"\n",
			ti+1, quote(name), t.Dropped())
		recs := t.Records()
		sortRecords(recs)
		for _, r := range recs {
			writeJSONLRecord(bw, ti+1, r)
		}
	}
	return bw.Flush()
}

func writeJSONLRecord(bw *bufio.Writer, trace int, r Record) {
	switch r.Kind {
	case RecSpanBegin:
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"span-begin","span":%d,"layer":%s,"op":%s,"dev":%d,"zone":%d,"lba":%d,"blocks":%d}`+"\n",
			trace, r.TS, r.Span, quote(r.Layer.String()), quote(Op(r.Sub).String()), r.Dev, r.Zone, r.Arg0, r.Arg1)
	case RecSpanEnd:
		status := "ok"
		if r.Flag != 0 {
			status = "error"
		}
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"span-end","span":%d,"status":%s}`+"\n",
			trace, r.TS, r.Span, quote(status))
	case RecMark:
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"mark","span":%d,"layer":%s,"phase":%s,"dev":%d,"zone":%d,"ch":%d,"dur":%d}`+"\n",
			trace, r.TS, r.Span, quote(r.Layer.String()), quote(Phase(r.Sub).String()), r.Dev, r.Zone, r.Arg1, r.Arg0-r.TS)
	case RecSegment:
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"segment","layer":%s,"seg":%s,"dev":%d,"zone":%d,"ch":%d,"dur":%d,"blocks":%d}`+"\n",
			trace, r.TS, quote(r.Layer.String()), quote(Seg(r.Sub).String()), r.Dev, r.Zone, r.Arg1, r.Arg0-r.TS, r.Flag)
	case RecEvent:
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"event","event":%s,"layer":%s,"dev":%d,%s}`+"\n",
			trace, r.TS, quote(EventKind(r.Sub).String()), quote(r.Layer.String()), r.Dev, eventArgs(r))
	case RecCounter:
		fmt.Fprintf(bw, `{"trace":%d,"ts":%d,"rec":"counter","probe":%s,"value":%d}`+"\n",
			trace, r.TS, quote(ProbeName(r.Span)), r.Arg0)
	}
}
