//go:build census

package sim

import (
	"reflect"
	"testing"
)

type censusProbe struct{ fired int }

func (p *censusProbe) Fire(_, _ Time) { p.fired++ }

// TestCensusCountsFiresByType: every fire counts once under its handler's
// type, whichever way it was scheduled and whichever call ran it; events
// still pending count nothing.
func TestCensusCountsFiresByType(t *testing.T) {
	e := NewEngine()
	p := &censusProbe{}
	r := NewResource(e, 1)
	for i := 0; i < 3; i++ {
		e.AfterEvent(Time(i), p, 0, 0)
		e.After(Time(i), func() {})
	}
	r.SubmitEvent(5, p)
	e.After(100, func() {})
	e.RunUntil(50)
	want := map[string]uint64{"sim.censusProbe": 4, "sim.fnHandler": 3}
	if got := e.Census(); !reflect.DeepEqual(got, want) {
		t.Fatalf("census at 50 %v, want %v", got, want)
	}
	e.Step()
	want["sim.fnHandler"]++
	if got := e.Census(); !reflect.DeepEqual(got, want) {
		t.Fatalf("census after a step %v, want %v", got, want)
	}
	if p.fired != 4 {
		t.Fatalf("the probe fired %d times, want 4", p.fired)
	}
}
