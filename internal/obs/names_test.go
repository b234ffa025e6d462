package obs

import (
	"strings"
	"testing"

	"biza/internal/metrics"
)

// Every ProbeKind must render a stable, non-fallback name: the JSONL
// exporter and the probe snapshot key on it, so a probe added without a
// registry row would silently export under the "probe%d" placeholder or an
// empty family.
func TestProbeNameExhaustive(t *testing.T) {
	families := map[string]ProbeKind{}
	for kind := ProbeKind(0); kind < numProbeKinds; kind++ {
		d := probeDefs[kind]
		if d.family == "" || strings.ContainsAny(d.family, "/%") {
			t.Fatalf("ProbeKind %d has no probeDefs row, or a '/' or '%%' in its family %q", kind, d.family)
		}
		if name := ProbeName(ProbeKey(kind, 3, 1)); strings.ContainsAny(name, " \"\\\n") {
			t.Fatalf("ProbeKind %d name %q contains characters unsafe for JSONL export", kind, name)
		}
		if d.nature != metrics.ProbeGauge && d.nature != metrics.ProbeCounter {
			t.Fatalf("ProbeKind %d has nature %q", kind, d.nature)
		}
		// metrics.MergeProbes folds readings by name, so two families that
		// shared a prefix would be silently summed (or maxed) together. A
		// family holds no '/', so it is the whole prefix of every name.
		if prev, dup := families[d.family]; dup {
			t.Fatalf("ProbeKinds %d and %d share the family %q", prev, kind, d.family)
		}
		families[d.family] = kind
	}
}

// The enum String methods feed every exporter; a value added without a
// table entry would serialize as "" or "unknown" and silently corrupt trace
// artifacts.
func TestEnumStringsExhaustive(t *testing.T) {
	var names []string
	for l := Layer(0); l < numLayers; l++ {
		names = append(names, l.String())
	}
	for o := Op(0); o < numOps; o++ {
		names = append(names, o.String())
	}
	for p := Phase(0); p < numPhases; p++ {
		names = append(names, p.String())
	}
	for s := Seg(0); s < numSegs; s++ {
		names = append(names, s.String())
	}
	for e := EventKind(0); e < numEventKinds; e++ {
		names = append(names, e.String())
		if eventArgFmts[e] == nil {
			t.Fatalf("EventKind %d (%s) has no eventArgFmts entry", e, e)
		}
	}
	for i, n := range names {
		if n == "" || n == "unknown" {
			t.Fatalf("enum name %d of %q is missing", i, names)
		}
	}
}

// TestNamesGolden pins every exported name to the bytes earlier traces
// carry, including the ones no traced CI run emits (faults, trim_dropped,
// gc-victim, zone-reset, fault, power-loss). Values outside a table read
// "unknown"; probe kinds outside the registry keep their placeholder.
func TestNamesGolden(t *testing.T) {
	got := func(n int, name func(int) string) []string {
		out := make([]string, n+1) // one past the end: the out-of-range name
		for i := range out {
			out[i] = name(i)
		}
		return out
	}
	cases := []struct {
		what string
		got  []string
		want []string
	}{
		{"Layer", got(int(numLayers), func(i int) string { return Layer(i).String() }),
			[]string{"nvme", "zns", "ftl", "biza", "raizn", "zapraid", "volume", "unknown"}},
		{"Op", got(int(numOps), func(i int) string { return Op(i).String() }),
			[]string{"write", "read", "append", "reset", "unknown"}},
		{"Phase", got(int(numPhases), func(i int) string { return Phase(i).String() }),
			[]string{"queue", "xfer", "bus", "die", "buffer", "qos-stall", "unknown"}},
		{"Seg", got(int(numSegs), func(i int) string { return Seg(i).String() }),
			[]string{"program-bus", "program-die", "erase", "unknown"}},
		{"EventKind", got(int(numEventKinds), func(i int) string { return EventKind(i).String() }),
			[]string{"zone-state", "zone-reset", "zrwa-commit", "gc-victim", "fault",
				"reconstruct", "member-state", "power-loss", "unknown"}},
		{"CommitReason", got(4, func(i int) string { return CommitReason(uint8(i)) }),
			[]string{"implicit", "explicit", "close", "finish", "unknown"}},
		{"ProbeName(dev 3, aux 1)", got(int(numProbeKinds), func(i int) string { return ProbeName(ProbeKey(ProbeKind(i), 3, 1)) }),
			[]string{"qd/dev3", "open_zones/dev3", "chan_write_busy_ns/dev3/ch1", "chan_read_busy_ns/dev3/ch1",
				"faults/dev3", "reconstructs/dev3", "tenant_qd/t3", "tenant_stalls/t3", "tenant_bytes/t3",
				"trim_dropped", "pool_miss", "pool_live", "payload_copy", "probe13/dev3/1"}},
		{"probe nature", got(int(numProbeKinds), func(i int) string { return string(probeNature(ProbeKey(ProbeKind(i), 3, 1))) }),
			[]string{"gauge", "gauge", "counter", "counter", "counter", "counter", "gauge", "counter", "counter",
				"counter", "counter", "gauge", "counter", "counter"}},
		{"FaultKindName", got(5, func(i int) string { return FaultKindName(uint8(i)) }),
			[]string{"transient", "latency", "unreadable", "device-death", "power-loss", "unknown"}},
		{"MemberStateName", got(3, func(i int) string { return MemberStateName(int64(i)) }),
			[]string{"healthy", "degraded", "rebuilding", "unknown"}},
		{"ZoneStateName", got(7, func(i int) string { return ZoneStateName(int64(i)) }),
			[]string{"empty", "implicit-open", "explicit-open", "closed", "full", "read-only", "offline", "unknown"}},
		{"negative state", []string{ZoneStateName(-1), MemberStateName(-1), FaultKindName(255)},
			[]string{"unknown", "unknown", "unknown"}},
	}
	for _, c := range cases {
		if strings.Join(c.got, ",") != strings.Join(c.want, ",") {
			t.Errorf("%s names:\n got  %q\n want %q", c.what, c.got, c.want)
		}
	}
}
