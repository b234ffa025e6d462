package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-timestamp events reordered at %d: got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.At(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling produced %v", hits)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 || e.Now() != 30 {
		t.Fatalf("fired=%d now=%d after Run", fired, e.Now())
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("idle clock = %d, want 1000", e.Now())
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++ })
	if !e.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if fired != 1 {
		t.Fatal("Step did not fire the event")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty heap")
	}
}

// TestLocal: an engine hands out one value per type, the same pointer at
// every lookup; another engine, or another type of the same shape, gets its
// own.
func TestLocal(t *testing.T) {
	type lists struct{ free []int }
	type other struct{ free []int }
	e1, e2 := NewEngine(), NewEngine()
	p := Local[lists](e1)
	p.free = append(p.free, 7)
	if q := Local[lists](e1); q != p || len(q.free) != 1 {
		t.Fatalf("second lookup on one engine gave %p holding %v, want %p holding [7]", q, q.free, p)
	}
	if q := Local[lists](e2); q == p || q.free != nil {
		t.Fatal("two engines share one value")
	}
	if o := Local[other](e1); o.free != nil {
		t.Fatal("a second type on one engine found the first type's value")
	}
	if Local[lists](e1) != p || Local[other](e1) != Local[other](e1) {
		t.Fatal("a lookup moved after another type was added")
	}
}

func TestResourceSingleServerSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		end := r.SubmitEvent(10, nil)
		e.At(end, func() { ends = append(ends, end) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 4)
	var ends []Time
	for i := 0; i < 4; i++ {
		end := r.SubmitEvent(10, nil)
		e.At(end, func() { ends = append(ends, end) })
	}
	e.Run()
	for _, end := range ends {
		if end != 10 {
			t.Fatalf("parallel servers serialized: ends = %v", ends)
		}
	}
}

func TestResourceQueueSpillsToAllServers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var last Time
	for i := 0; i < 6; i++ {
		end := r.SubmitEvent(10, nil)
		e.At(end, func() {
			if end > last {
				last = end
			}
		})
	}
	e.Run()
	if last != 30 { // 6 jobs, 2 servers, 10 each => makespan 30
		t.Fatalf("makespan = %d, want 30", last)
	}
	if r.BusyTime() != 60 {
		t.Fatalf("busy = %d, want 60", r.BusyTime())
	}
}

// TestResourceSubmitEventThen: the handler fires once, after the delay,
// with the service window; the delay does not hold the server, so the job
// behind starts when the service ends.
func TestResourceSubmitEventThen(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	r := NewResource(e, 1)
	h := &countHandler{}
	if at := r.SubmitEventThen(10, 5, h); at != 115 {
		t.Fatalf("SubmitEventThen returned %d, want 115", at)
	}
	if end := r.SubmitEvent(10, nil); end != 120 {
		t.Fatalf("the next job ended at %d, want 120: the delay held the server", end)
	}
	e.RunUntil(114)
	if h.n != 0 {
		t.Fatalf("handler fired at %d, before its delay ran out", e.Now())
	}
	e.RunUntil(115)
	if h.n != 1 {
		t.Fatalf("handler had not fired by 115, when its delay ran out")
	}
	e.Run()
	if h.n != 1 || h.a != 100 || h.b != 110 {
		t.Fatalf("handler fired %d times with (%d, %d), want once with (100, 110) at 115", h.n, h.a, h.b)
	}
	if r.BusyTime() != 20 {
		t.Fatalf("busy = %d, want 20: the delay is not service", r.BusyTime())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(x uint16) bool {
		n := int(x%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestResourceMakespanProperty(t *testing.T) {
	// Property: for any job set, makespan >= total work / servers, and
	// makespan <= total work (no parallelism slower than serial).
	if err := quick.Check(func(durs []uint16, serversRaw uint8) bool {
		if len(durs) == 0 {
			return true
		}
		servers := int(serversRaw%8) + 1
		e := NewEngine()
		r := NewResource(e, servers)
		var total Time
		var makespan Time
		for _, d := range durs {
			dur := Time(d%1000) + 1
			total += dur
			end := r.SubmitEvent(dur, nil)
			e.At(end, func() {
				if end > makespan {
					makespan = end
				}
			})
		}
		e.Run()
		lower := total / Time(servers)
		return makespan >= lower && makespan <= total
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
