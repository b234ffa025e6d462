package sim

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// refEvent / refHeap reimplement the engine's ordering contract on top of
// container/heap, as the oracle for the hand-rolled 4-ary heap: pop order
// is (time, insertion seq), FIFO among equal timestamps.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h *refHeap) popID() int        { return heap.Pop(h).(refEvent).id }
func (h *refHeap) pushEv(e refEvent) { heap.Push(h, e) }

// TestHeapOrderMatchesContainerHeap drives the engine and a container/heap
// reference with identical random (time, seq) streams — including bursts of
// duplicate timestamps and interleaved push/pop — and requires identical
// firing order.
func TestHeapOrderMatchesContainerHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := NewEngine()
		ref := &refHeap{}
		var got, want []int
		var seq uint64
		nextID := 0
		push := func() {
			// Small time range forces many equal timestamps (FIFO stress).
			at := e.Now() + Time(rng.Intn(8))
			id := nextID
			nextID++
			seq++
			ref.pushEv(refEvent{at: at, seq: seq, id: id})
			e.At(at, func() { got = append(got, id) })
		}
		for i := 0; i < 40; i++ {
			push()
		}
		for ref.Len() > 0 {
			// Reference pops one; engine runs until that event's time has
			// fired everything due, so drain the reference first.
			want = append(want, ref.popID())
			if !e.Step() {
				t.Fatalf("trial %d: engine exhausted before reference", trial)
			}
			// Occasionally push more while draining (interleaved schedule).
			if rng.Intn(4) == 0 && nextID < 200 {
				push()
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: engine has %d events left after reference drained", trial, e.Pending())
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %d want %d\ngot  %v\nwant %v",
					trial, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestHeapOrderMatchesSort: whatever the interleaving of pushes and pops,
// events fire in the order a stable sort by timestamp puts them in — (at,
// seq) is a total order, so how the heap sifts cannot show. The heap here
// is deep enough (thousands of events, five levels) and tied enough (a few
// dozen distinct timestamps) that a sift comparing or storing the wrong
// element would.
func TestHeapOrderMatchesSort(t *testing.T) {
	type sched struct {
		at Time
		id int
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		e := NewEngine()
		var all []sched
		var got []int
		push := func() {
			id := len(all)
			at := e.Now() + Time(rng.Intn(24))
			all = append(all, sched{at, id})
			e.At(at, func() { got = append(got, id) })
		}
		for i := 0; i < 3000; i++ {
			push()
		}
		for e.Step() {
			for n := rng.Intn(3); n > 0 && len(all) < 6000; n-- {
				push()
			}
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
		if len(got) != len(all) {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(got), len(all))
		}
		for i := range all {
			if got[i] != all[i].id {
				t.Fatalf("trial %d: event %d fired was %d, the sort has %d", trial, i, got[i], all[i].id)
			}
		}
	}
}

// countHandler is a pooled event record: scheduling it must not allocate.
type countHandler struct {
	n int
	a Time
	b Time
}

func (h *countHandler) Fire(a, b Time) { h.n++; h.a, h.b = a, b }

// TestAtEventZeroAlloc is the gate for the allocation-free event core:
// scheduling a pooled Handler record and firing it costs zero allocations
// per event once the heap's backing array has grown.
func TestAtEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	// Warm up so e.events has capacity.
	for i := 0; i < 64; i++ {
		e.AfterEvent(Time(i), h, 1, 2)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AfterEvent(10, h, 3, 4)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("AtEvent+Run allocates %.1f per event, want 0", allocs)
	}
	if h.a != 3 || h.b != 4 {
		t.Fatalf("handler args = (%d,%d), want (3,4)", h.a, h.b)
	}
}

// TestResourceSubmitZeroAlloc gates the Resource fast path for a plain
// callback: reserving a server and scheduling the callback at the job's end
// must not allocate in steady state.
func TestResourceSubmitZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(r.SubmitEvent(10, nil), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(r.SubmitEvent(10, nil), fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Resource.SubmitEvent+At+Run allocates %.1f per op, want 0", allocs)
	}
}

// TestResourceSubmitEventThenZeroAlloc: a pooled record carried through a
// station and a fixed delay costs no allocation either.
func TestResourceSubmitEventThenZeroAlloc(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	h := &countHandler{}
	for i := 0; i < 64; i++ {
		r.SubmitEventThen(10, 5, h)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		r.SubmitEventThen(10, 5, h)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("Resource.SubmitEventThen+Run allocates %.1f per op, want 0", allocs)
	}
}
