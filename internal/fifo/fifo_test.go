package fifo

import "testing"

// TestOrderAgainstSlice drives a Queue and a plain slice with the same
// push/pop sequence (bursts, partial drains, full drains) and compares
// every popped value, Len and Peek.
func TestOrderAgainstSlice(t *testing.T) {
	var q Queue[int]
	var ref []int
	next := 0
	x := uint32(1)
	for step := 0; step < 20000; step++ {
		x = x*1664525 + 1013904223
		if x>>28 < 9 || len(ref) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			if got, want := q.Peek(), ref[0]; got != want {
				t.Fatalf("step %d: Peek = %d, want %d", step, got, want)
			}
			if got, want := q.Pop(), ref[0]; got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
	}
}

// TestPopDropsReference: a popped pointer must not stay reachable from
// the backing array (the retention bug q = q[1:] has).
func TestPopDropsReference(t *testing.T) {
	var q Queue[*int]
	a, b := new(int), new(int)
	q.Push(a)
	q.Push(b)
	q.Pop()
	if q.items[0] != nil {
		t.Fatal("popped slot still holds its pointer")
	}
	q.Pop()
	if len(q.items) != 0 || q.head != 0 || cap(q.items) < 2 {
		t.Fatalf("empty queue not rewound: len %d head %d cap %d", len(q.items), q.head, cap(q.items))
	}
}

// TestBacklogDoesNotGrow: a queue that never empties slides its contents
// down instead of growing without bound.
func TestBacklogDoesNotGrow(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	for i := 4; i < 100000; i++ {
		q.Push(i)
		if got := q.Pop(); got != i-4 {
			t.Fatalf("Pop = %d, want %d", got, i-4)
		}
	}
	if cap(q.items) > 16 {
		t.Fatalf("backing array grew to %d for a backlog of 4", cap(q.items))
	}
}

func TestPushPopAllocFree(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(v)
		}
		for q.Len() > 3 {
			q.Pop()
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // reach the steady backing size
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("push/pop cycle allocates %.1f per run, want 0", allocs)
	}
}
