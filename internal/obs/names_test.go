package obs

import (
	"strings"
	"testing"
)

// Every ProbeKind must render a stable, non-fallback name: the JSONL
// exporter, the probe snapshot, and the ops /v1/metrics endpoint all key on
// it, so a probe added without a ProbeName case would silently export
// under the "probe%d" placeholder.
func TestProbeNameExhaustive(t *testing.T) {
	for kind := ProbeKind(0); kind < numProbeKinds; kind++ {
		name := ProbeName(ProbeKey(kind, 3, 1))
		if name == "" {
			t.Fatalf("ProbeKind %d renders empty name", kind)
		}
		if strings.HasPrefix(name, "probe") {
			t.Fatalf("ProbeKind %d falls through to placeholder name %q — add a ProbeName case", kind, name)
		}
		if strings.ContainsAny(name, " \"\\\n") {
			t.Fatalf("ProbeKind %d name %q contains characters unsafe for JSONL/Prometheus export", kind, name)
		}
	}
}

// The enum String methods feed every exporter; a value added without a
// case would serialize as "unknown" and silently corrupt trace artifacts.
func TestEnumStringsExhaustive(t *testing.T) {
	for l := Layer(0); l < numLayers; l++ {
		if l.String() == "unknown" {
			t.Fatalf("Layer %d has no String case", l)
		}
	}
	for o := Op(0); o < numOps; o++ {
		if o.String() == "unknown" {
			t.Fatalf("Op %d has no String case", o)
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "unknown" {
			t.Fatalf("Phase %d has no String case", p)
		}
	}
	for s := Seg(0); s < numSegs; s++ {
		if s.String() == "unknown" {
			t.Fatalf("Seg %d has no String case", s)
		}
	}
	for e := EventKind(0); e < numEventKinds; e++ {
		if e.String() == "unknown" {
			t.Fatalf("EventKind %d has no String case", e)
		}
	}
}
