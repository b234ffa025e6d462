package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	a := DeriveSeed(1, "fig10", "BIZA/seq/64")
	if b := DeriveSeed(1, "fig10", "BIZA/seq/64"); a != b {
		t.Fatalf("same inputs gave %d and %d", a, b)
	}
	seen := map[uint64]string{}
	cases := [][]string{
		{"fig10", "BIZA/seq/64"},
		{"fig10", "BIZA/seq/4"},
		{"fig11", "BIZA/seq/64"},
		{"fig10", "BIZA", "seq/64"}, // path split must matter
		{"fig10BIZA/seq/64"},
		{},
	}
	for _, labels := range cases {
		v := DeriveSeed(1, labels...)
		key := fmt.Sprint(labels)
		if prev, dup := seen[v]; dup {
			t.Fatalf("collision between %q and %q", prev, key)
		}
		seen[v] = key
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("base seed ignored")
	}
}

func TestEngineTimeSink(t *testing.T) {
	var vt atomic.Int64
	e := NewEngine()
	e.SetTimeSink(&vt)
	e.After(5*Microsecond, func() {})
	e.After(9*Microsecond, func() {})
	e.Run()
	if got := vt.Load(); got != 9*Microsecond {
		t.Fatalf("after Run: sink = %d, want %d", got, 9*Microsecond)
	}
	// RunUntil credits the idle jump to the horizon too.
	e.RunUntil(20 * Microsecond)
	if got := vt.Load(); got != 20*Microsecond {
		t.Fatalf("after RunUntil: sink = %d, want %d", got, 20*Microsecond)
	}
	// Two engines sharing one sink accumulate jointly.
	e2 := NewEngine()
	e2.SetTimeSink(&vt)
	e2.After(Microsecond, func() {})
	e2.Run()
	if got := vt.Load(); got != 21*Microsecond {
		t.Fatalf("shared sink = %d, want %d", got, 21*Microsecond)
	}
}

// TestEngineTimeSinkCreditedOnExit: the engine tells the sink about the
// clock once per Run, RunUntil or Step, as the call returns — so on every
// exit, however it came about, the sink reads what it would have read had
// every event credited its own step: the distance the clock has moved
// since the sink was attached.
func TestEngineTimeSinkCreditedOnExit(t *testing.T) {
	var vt atomic.Int64
	e := NewEngine()
	e.After(3, func() {})
	e.Run() // before the sink is attached: not its time
	e.SetTimeSink(&vt)
	t0 := e.Now()
	check := func(when string) {
		t.Helper()
		if got, want := vt.Load(), e.Now()-t0; got != want {
			t.Fatalf("%s: sink = %d, want the %d ns the clock moved", when, got, want)
		}
	}
	check("attached")

	// A handler that runs the engine itself: the nested call credits what it
	// covered, the outer one only the rest.
	e.After(10, func() {
		e.After(5, func() {})
		e.After(50, func() {})
		e.RunUntil(e.Now() + 20)
		check("after the nested RunUntil, inside the handler")
		e.Step()
		check("after the nested Step, inside the handler")
	})
	e.After(100, func() {})
	e.Run()
	check("after Run with nested calls")

	// A top-level Step leaves later events pending.
	e.After(10, func() {})
	e.After(20, func() {})
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after Step, want 1", e.Pending())
	}
	check("after a top-level Step")
	e.RunUntil(e.Now() + 5) // short of the pending event: the idle jump counts
	check("after RunUntil short of the next event")

	// A handler panic the caller recovers: the clock had moved to the event.
	e.After(30, func() { panic("boom") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the handler's panic did not reach the caller")
			}
		}()
		e.Run()
	}()
	check("after a recovered panic")
	e.Run()
	check("after the run that picks up behind the panic")
	if e.Pending() != 0 {
		t.Fatalf("pending = %d at the end", e.Pending())
	}
}
