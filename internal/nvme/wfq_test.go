package nvme

import (
	"math"
	"testing"
)

func TestWFQSingleFlowFIFO(t *testing.T) {
	w := NewWFQ()
	f := w.AddFlow(1)
	for i := 0; i < 10; i++ {
		w.Push(f, 100)
	}
	if w.Len() != 10 {
		t.Fatalf("len=%d", w.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := w.Pop()
		if !ok || got != f {
			t.Fatalf("pop %d: flow=%d ok=%v", i, got, ok)
		}
	}
	if _, ok := w.Pop(); ok {
		t.Fatal("pop from empty arbiter succeeded")
	}
}

// TestWFQWeightedShares pushes a long backlog on two flows and checks the
// dispatch mix converges to the weight ratio.
func TestWFQWeightedShares(t *testing.T) {
	w := NewWFQ()
	heavy := w.AddFlow(3)
	light := w.AddFlow(1)
	const n = 400
	for i := 0; i < n; i++ {
		w.Push(heavy, 1000)
		w.Push(light, 1000)
	}
	counts := [2]int{}
	for i := 0; i < n; i++ { // dispatch half the backlog
		f, ok := w.Pop()
		if !ok {
			t.Fatal("arbiter drained early")
		}
		counts[f]++
	}
	ratio := float64(counts[heavy]) / float64(counts[light])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("dispatch ratio %.2f (heavy=%d light=%d), want ~3", ratio, counts[heavy], counts[light])
	}
}

// TestWFQCostWeighting checks byte-cost fairness: a flow sending requests
// twice as large gets half as many dispatches at equal weight.
func TestWFQCostWeighting(t *testing.T) {
	w := NewWFQ()
	big := w.AddFlow(1)
	small := w.AddFlow(1)
	for i := 0; i < 200; i++ {
		w.Push(big, 2000)
	}
	for i := 0; i < 400; i++ {
		w.Push(small, 1000)
	}
	counts := [2]int{}
	for i := 0; i < 300; i++ {
		f, _ := w.Pop()
		counts[f]++
	}
	ratio := float64(counts[small]) / float64(counts[big])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("small/big dispatch ratio %.2f (big=%d small=%d), want ~2", ratio, counts[big], counts[small])
	}
}

// TestWFQIdleFlowNotPunished: a flow that sat idle while another
// monopolized the arbiter must dispatch promptly on arrival — its tag
// starts at the current virtual time, not at zero.
func TestWFQIdleFlowNotPunished(t *testing.T) {
	w := NewWFQ()
	hog := w.AddFlow(1)
	idle := w.AddFlow(1)
	for i := 0; i < 100; i++ {
		w.Push(hog, 1000)
	}
	for i := 0; i < 50; i++ {
		w.Pop()
	}
	// The idle tenant wakes up with one request; it must dispatch within
	// two pops (one may already carry an equal tag).
	w.Push(idle, 1000)
	first, _ := w.Pop()
	second, _ := w.Pop()
	if first != idle && second != idle {
		t.Fatalf("idle flow starved: pops were %d, %d", first, second)
	}
}

// TestWFQBacklogNoStarvation: with any weights, every backlogged flow
// makes progress over a bounded dispatch horizon.
func TestWFQBacklogNoStarvation(t *testing.T) {
	w := NewWFQ()
	weights := []int{1, 2, 4, 8, 16}
	for _, wt := range weights {
		w.AddFlow(wt)
	}
	for f := range weights {
		for i := 0; i < 100; i++ {
			w.Push(f, 500)
		}
	}
	seen := make([]int, len(weights))
	for i := 0; i < 200; i++ {
		f, _ := w.Pop()
		seen[f]++
	}
	for f, c := range seen {
		if c == 0 {
			t.Fatalf("flow %d (weight %d) starved over 200 dispatches", f, weights[f])
		}
	}
}

// TestWFQDeterministicReplay: identical push/pop sequences produce
// identical dispatch orders.
func TestWFQDeterministicReplay(t *testing.T) {
	run := func() []int {
		w := NewWFQ()
		for i := 0; i < 7; i++ {
			w.AddFlow(1 + i%3)
		}
		var order []int
		push, pop := 0, 0
		for step := 0; step < 500; step++ {
			if step%3 != 2 {
				w.Push(push%7, int64(100+37*(push%11)))
				push++
				continue
			}
			if f, ok := w.Pop(); ok {
				order = append(order, f)
				pop++
			}
		}
		for {
			f, ok := w.Pop()
			if !ok {
				break
			}
			order = append(order, f)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at dispatch %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWFQPushPopAllocationFree(t *testing.T) {
	w := NewWFQ()
	a := w.AddFlow(2)
	b := w.AddFlow(1)
	// Warm the slices past their steady-state capacity.
	for i := 0; i < 64; i++ {
		w.Push(a, 100)
		w.Push(b, 100)
	}
	for {
		if _, ok := w.Pop(); !ok {
			break
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		w.Push(a, 100)
		w.Push(b, 300)
		w.Pop()
		w.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per run", allocs)
	}
}
