package main

import (
	"math"
	"runtime"
	"time"
)

// The sandbox's speed drifts: for minutes at a time the same repetition of
// the same binary takes a quarter to a half longer, with nothing else
// running in the box (a neighbour on the host loading the memory system).
// A bound on raw wall time would have to be wider than any change worth
// catching. So beside every repetition the harness times a fixed reference
// loop of its own — shaped like the simulator's inner loop (a timer heap, a
// map keyed by block number, small allocations) but sharing no code with
// it, so nothing in the repository can change it — and the run's two
// bounded host-time metrics are scaled by how fast the reference ran during
// that run. README.md has the measurements behind the constants below.

const (
	// calNominalNS is what one reference loop takes on the box the sizes
	// were tuned on in its fast state, so that scaled and raw nanoseconds
	// agree there.
	calNominalNS = 15e6
	// calExponent: the workloads slow down less than the reference loop
	// does when the host is slow (the loop is all cache misses). Over 60
	// runs of two workloads across fast and slow phases, raw host time
	// went as the loop's time to the power 0.6 to 0.8.
	calExponent = 0.7
)

type calEvent struct {
	at  uint64
	key uint64
}

type calRecord struct {
	hits uint64
	last uint64
	pad  [4]uint64
}

// calState is the reference loop's working set, built once per process:
// 4 Ki pending timers and a map of 256 Ki pointers to records (about 20 MB,
// well past the share of the last-level cache a neighbour leaves).
type calState struct {
	g     *rng
	heap  []calEvent
	table map[uint64]*calRecord
	now   uint64
}

const calKeys = 1 << 18

func newCalState() *calState {
	c := &calState{g: newRNG(0xca11b8), table: make(map[uint64]*calRecord, calKeys)}
	for i := 0; i < 1<<12; i++ {
		c.push(calEvent{at: uint64(c.g.intn(1 << 20)), key: uint64(c.g.intn(calKeys))})
	}
	for i := 0; i < 16; i++ {
		c.loop() // fill the table before the first timed loop
	}
	return c
}

func (c *calState) push(e calEvent) {
	c.heap = append(c.heap, e)
	for i := len(c.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if c.heap[p].at <= c.heap[i].at {
			break
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *calState) pop() calEvent {
	top := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && c.heap[l].at < c.heap[m].at {
			m = l
		}
		if r < n && c.heap[r].at < c.heap[m].at {
			m = r
		}
		if m == i {
			break
		}
		c.heap[i], c.heap[m] = c.heap[m], c.heap[i]
		i = m
	}
	return top
}

// loop fires a fixed number of timers: each looks its record up (replacing
// it with a fresh allocation one time in four) and schedules a successor.
func (c *calState) loop() {
	for i := 0; i < 50000; i++ {
		e := c.pop()
		c.now = e.at
		rec := c.table[e.key]
		if rec == nil || i%4 == 0 {
			rec = &calRecord{}
			c.table[e.key] = rec
		}
		rec.hits++
		rec.last = c.now
		c.push(calEvent{at: c.now + 1 + uint64(c.g.intn(1<<16)), key: uint64(c.g.intn(calKeys))})
	}
}

var (
	cal *calState
	// calHeapBytes is the reference loop's own working set, which
	// host_live_heap_mb leaves out.
	calHeapBytes uint64
)

// calibrate times n reference loops and returns the host nanoseconds each
// took.
func calibrate(n int) []float64 {
	if n == 0 {
		return nil
	}
	if cal == nil {
		before := liveHeap()
		cal = newCalState()
		calHeapBytes = liveHeap() - before
	}
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		cal.loop()
		out[i] = float64(time.Since(t0).Nanoseconds())
	}
	return out
}

// hostScale is the factor a run's host times are multiplied by, from every
// reference timing taken beside its timed repetitions: the median (so a
// hiccup in one loop does not count) against nominal.
func hostScale(ref []float64) float64 {
	if len(ref) == 0 {
		return 1 // a scale that takes no reference timings (the smoke test's)
	}
	return math.Pow(calNominalNS/median(ref), calExponent)
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
