package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePerfetto serializes traces as Chrome/Perfetto trace_event JSON
// (JSON Array Format). Each Trace becomes one "process" (pid = index+1,
// named after the trace); inside it, spans render as async nestable
// begin/end pairs on per-layer tracks, phase marks and standalone segments
// as complete ("X") slices on per-(device, channel) tracks, typed events
// as instants on per-device zone tracks, and probes as counter series.
//
// Output is fully deterministic: records are stable-sorted by timestamp,
// every JSON object is emitted with a fixed field order, and timestamps
// are fixed-point microseconds with nanosecond precision.
func WritePerfetto(w io.Writer, traces []*Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	item := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	for ti, t := range traces {
		if t == nil {
			continue
		}
		pid := ti + 1
		name := t.Name()
		if name == "" {
			name = fmt.Sprintf("trace%d", pid)
		}
		item(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			pid, quote(name)))

		recs := t.Records()
		sortRecords(recs)

		// Thread ids are assigned per logical track in first-use order,
		// which is deterministic because the record stream is.
		tids := map[string]int{}
		tid := func(track string) int {
			id, ok := tids[track]
			if !ok {
				id = len(tids) + 1
				tids[track] = id
				item(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
					pid, id, quote(track)))
			}
			return id
		}

		for _, r := range recs {
			switch r.Kind {
			case RecSpanBegin:
				track := fmt.Sprintf("%s spans", r.Layer)
				item(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"b","id":%d,"pid":%d,"tid":%d,"ts":%s,"args":{"blocks":%d,"dev":%d,"lba":%d,"zone":%d}}`,
					quote(fmt.Sprintf("%s %s", r.Layer, Op(r.Sub))), quote(r.Layer.String()),
					r.Span, pid, tid(track), ts(r.TS), r.Arg1, r.Dev, r.Arg0, r.Zone))
			case RecSpanEnd:
				// The end event must land on the same track as its begin;
				// Perfetto matches async events by (cat, id) so cat must
				// cover every layer. tid is reused via the span's id from
				// the begin — but we do not track it; async events match
				// on id regardless of tid, so any tid on this pid works.
				status := "ok"
				if r.Flag != 0 {
					status = "error"
				}
				item(fmt.Sprintf(`{"name":"end","cat":"span","ph":"e","id":%d,"pid":%d,"tid":0,"ts":%s,"args":{"status":%s}}`,
					r.Span, pid, ts(r.TS), quote(status)))
			case RecMark:
				track := trackName(int(r.Dev), int(r.Arg1), r.Layer.String())
				item(fmt.Sprintf(`{"name":%s,"cat":"phase","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"layer":%s,"span":%d,"zone":%d}}`,
					quote(Phase(r.Sub).String()), pid, tid(track), ts(r.TS), ts(r.Arg0-r.TS),
					quote(r.Layer.String()), r.Span, r.Zone))
			case RecSegment:
				track := trackName(int(r.Dev), int(r.Arg1), r.Layer.String())
				item(fmt.Sprintf(`{"name":%s,"cat":"segment","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"blocks":%d,"layer":%s,"zone":%d}}`,
					quote(Seg(r.Sub).String()), pid, tid(track), ts(r.TS), ts(r.Arg0-r.TS),
					r.Flag, quote(r.Layer.String()), r.Zone))
			case RecEvent:
				track := fmt.Sprintf("dev%d zone events", r.Dev)
				item(fmt.Sprintf(`{"name":%s,"cat":"event","ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"args":{%s}}`,
					quote(EventKind(r.Sub).String()), pid, tid(track), ts(r.TS), eventArgs(r)))
			case RecCounter:
				item(fmt.Sprintf(`{"name":%s,"ph":"C","pid":%d,"tid":0,"ts":%s,"args":{"value":%d}}`,
					quote(ProbeName(r.Span)), pid, ts(r.TS), r.Arg0))
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// trackName names the service track of a mark or segment: the channel when
// there is one, else the device, else the layer.
func trackName(dev, ch int, layer string) string {
	if ch >= 0 {
		return fmt.Sprintf("dev%d ch%d", dev, ch)
	}
	if dev >= 0 {
		return fmt.Sprintf("dev%d %s", dev, layer)
	}
	return layer + " service"
}

// eventArgFmts renders each event kind's attributes with keys in fixed
// (alphabetical) order.
var eventArgFmts = [numEventKinds]func(Record) string{
	EvZoneState: func(r Record) string {
		return fmt.Sprintf(`"from":%s,"to":%s,"zone":%d`,
			quote(ZoneStateName(r.Arg0)), quote(ZoneStateName(r.Arg1)), r.Zone)
	},
	EvZoneReset: func(r Record) string { return fmt.Sprintf(`"erases":%d,"zone":%d`, r.Arg0, r.Zone) },
	EvZRWACommit: func(r Record) string {
		return fmt.Sprintf(`"blocks":%d,"reason":%s,"upto":%d,"zone":%d`,
			r.Arg1, quote(CommitReason(r.Flag)), r.Arg0, r.Zone)
	},
	EvGCVictim: func(r Record) string {
		return fmt.Sprintf(`"free_zones":%d,"valid":%d,"zone":%d`, r.Arg1, r.Arg0, r.Zone)
	},
	EvFault: func(r Record) string {
		return fmt.Sprintf(`"fault":%s,"lba":%d,"op":%s,"zone":%d`,
			quote(FaultKindName(r.Flag)), r.Arg1, quote(Op(r.Arg0).String()), r.Zone)
	},
	EvReconstruct: func(r Record) string { return fmt.Sprintf(`"failed":%d,"lbn":%d`, r.Arg1, r.Arg0) },
	EvMemberState: func(r Record) string {
		return fmt.Sprintf(`"from":%s,"to":%s`, quote(MemberStateName(r.Arg1)), quote(MemberStateName(r.Arg0)))
	},
	EvPowerLoss: func(r Record) string { return fmt.Sprintf(`"dropped":%d,"hardened":%d`, r.Arg0, r.Arg1) },
}

// eventArgs renders the per-kind attributes of an event record.
func eventArgs(r Record) string {
	if int(r.Sub) < len(eventArgFmts) {
		return eventArgFmts[r.Sub](r)
	}
	return fmt.Sprintf(`"arg0":%d,"arg1":%d,"zone":%d`, r.Arg0, r.Arg1, r.Zone)
}

// sortRecords stable-sorts by timestamp so per-process output is
// monotonic even though service intervals are recorded at completion time.
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
}

// ts renders virtual nanoseconds as trace_event microseconds with exact
// nanosecond precision (fixed-point, no float formatting drift).
func ts(ns int64) string {
	neg := ns < 0
	if neg {
		ns = -ns
	}
	s := fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
	if neg {
		return "-" + s
	}
	return s
}

func quote(s string) string { return strconv.Quote(s) }
