package volume

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fairVols returns bare volumes with dense ids and the given weights:
// all the fair queue reads of a volume.
func fairVols(weights ...int) []*Volume {
	vs := make([]*Volume, len(weights))
	for i, w := range weights {
		vs[i] = &Volume{id: i, weight: uint64(w)}
	}
	return vs
}

func pushCost(q *fairQueue, v *Volume, cost int64) *vop {
	op := &vop{v: v, cost: cost}
	q.push(v, op)
	return op
}

// popID pops one op and returns its volume's id, or -1 when the queue
// is empty.
func popID(q *fairQueue) int {
	op := q.pop()
	if op == nil {
		return -1
	}
	return op.v.id
}

func TestWFQSingleFlowFIFO(t *testing.T) {
	var q fairQueue
	v := fairVols(1)[0]
	var ops []*vop
	for i := 0; i < 10; i++ {
		ops = append(ops, pushCost(&q, v, 100))
	}
	if v.ready.Len() != 10 {
		t.Fatalf("len=%d", v.ready.Len())
	}
	for i := 0; i < 10; i++ {
		if got := q.pop(); got != ops[i] {
			t.Fatalf("pop %d: got op %p, want %p", i, got, ops[i])
		}
	}
	if q.pop() != nil {
		t.Fatal("pop from empty queue succeeded")
	}
}

// TestWFQWeightedShares pushes a long backlog on two volumes and checks
// the dispatch mix converges to the weight ratio.
func TestWFQWeightedShares(t *testing.T) {
	var q fairQueue
	vs := fairVols(3, 1)
	heavy, light := vs[0], vs[1]
	const n = 400
	for i := 0; i < n; i++ {
		pushCost(&q, heavy, 1000)
		pushCost(&q, light, 1000)
	}
	counts := [2]int{}
	for i := 0; i < n; i++ { // dispatch half the backlog
		id := popID(&q)
		if id < 0 {
			t.Fatal("queue drained early")
		}
		counts[id]++
	}
	ratio := float64(counts[heavy.id]) / float64(counts[light.id])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("dispatch ratio %.2f (heavy=%d light=%d), want ~3", ratio, counts[heavy.id], counts[light.id])
	}
}

// TestWFQCostWeighting checks byte-cost fairness: a volume sending
// requests twice as large gets half as many dispatches at equal weight.
func TestWFQCostWeighting(t *testing.T) {
	var q fairQueue
	vs := fairVols(1, 1)
	big, small := vs[0], vs[1]
	for i := 0; i < 200; i++ {
		pushCost(&q, big, 2000)
	}
	for i := 0; i < 400; i++ {
		pushCost(&q, small, 1000)
	}
	counts := [2]int{}
	for i := 0; i < 300; i++ {
		counts[popID(&q)]++
	}
	ratio := float64(counts[small.id]) / float64(counts[big.id])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("small/big dispatch ratio %.2f (big=%d small=%d), want ~2", ratio, counts[big.id], counts[small.id])
	}
}

// TestWFQIdleFlowNotPunished: a volume that sat idle while another
// monopolized the queue must dispatch promptly on arrival — its tag
// starts at the current virtual time, not at zero.
func TestWFQIdleFlowNotPunished(t *testing.T) {
	var q fairQueue
	vs := fairVols(1, 1)
	hog, idle := vs[0], vs[1]
	for i := 0; i < 100; i++ {
		pushCost(&q, hog, 1000)
	}
	for i := 0; i < 50; i++ {
		q.pop()
	}
	// The idle tenant wakes up with one request; it must dispatch within
	// two pops (one may already carry an equal tag).
	pushCost(&q, idle, 1000)
	first, second := popID(&q), popID(&q)
	if first != idle.id && second != idle.id {
		t.Fatalf("idle volume starved: pops were %d, %d", first, second)
	}
}

// TestWFQBacklogNoStarvation: with any weights, every backlogged volume
// makes progress over a bounded dispatch horizon.
func TestWFQBacklogNoStarvation(t *testing.T) {
	var q fairQueue
	weights := []int{1, 2, 4, 8, 16}
	vs := fairVols(weights...)
	for _, v := range vs {
		for i := 0; i < 100; i++ {
			pushCost(&q, v, 500)
		}
	}
	seen := make([]int, len(weights))
	for i := 0; i < 200; i++ {
		seen[popID(&q)]++
	}
	for id, c := range seen {
		if c == 0 {
			t.Fatalf("volume %d (weight %d) starved over 200 dispatches", id, weights[id])
		}
	}
}

// TestWFQDeterministicReplay: identical push/pop sequences produce
// identical dispatch orders.
func TestWFQDeterministicReplay(t *testing.T) {
	run := func() []int {
		var q fairQueue
		vs := fairVols(1, 2, 3, 1, 2, 3, 1)
		var order []int
		push := 0
		for step := 0; step < 500; step++ {
			if step%3 != 2 {
				pushCost(&q, vs[push%7], int64(100+37*(push%11)))
				push++
				continue
			}
			if id := popID(&q); id >= 0 {
				order = append(order, id)
			}
		}
		for id := popID(&q); id >= 0; id = popID(&q) {
			order = append(order, id)
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
	var q fairQueue
	vs := fairVols(2, 1)
	a, b := vs[0], vs[1]
	// Warm the slices past their steady-state capacity.
	for i := 0; i < 64; i++ {
		pushCost(&q, a, 100)
		pushCost(&q, b, 100)
	}
	for q.pop() != nil {
	}
	opA, opB := &vop{v: a, cost: 100}, &vop{v: b, cost: 300}
	allocs := testing.AllocsPerRun(100, func() {
		q.push(a, opA)
		q.push(b, opB)
		q.pop()
		q.pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per run", allocs)
	}
}

// refSCFQ is the fair queue written the slow, obvious way: per-volume
// slices of (op, tag) and a linear scan for the smallest (head tag, id).
type refSCFQ struct {
	vtime   uint64
	lastTag []uint64
	weight  []uint64
	queued  [][]*vop
	tags    [][]uint64
}

func (r *refSCFQ) push(id int, op *vop) {
	cost := op.cost
	if cost < 1 {
		cost = 1
	}
	start := r.lastTag[id]
	if r.vtime > start {
		start = r.vtime
	}
	tag := start + (uint64(cost)<<16)/r.weight[id]
	r.lastTag[id] = tag
	r.queued[id] = append(r.queued[id], op)
	r.tags[id] = append(r.tags[id], tag)
}

func (r *refSCFQ) pop() *vop {
	best := -1
	for id := range r.queued {
		if len(r.queued[id]) == 0 {
			continue
		}
		if best < 0 || r.tags[id][0] < r.tags[best][0] {
			best = id
		}
	}
	if best < 0 {
		return nil
	}
	op, tag := r.queued[best][0], r.tags[best][0]
	r.queued[best], r.tags[best] = r.queued[best][1:], r.tags[best][1:]
	if tag > r.vtime {
		r.vtime = tag
	}
	return op
}

func opDesc(op *vop) string {
	if op == nil {
		return "nothing"
	}
	return fmt.Sprintf("an op of volume %d (cost %d)", op.v.id, op.cost)
}

// TestFairQueueMatchesReference runs random scripts of pushes and pops
// (random weights and costs, volumes that drain and sit idle, costs from
// a small set so tags tie often) through the fair queue and through
// refSCFQ, and requires the same op from every pop.
func TestFairQueueMatchesReference(t *testing.T) {
	costs := []int64{0, 512, 4096, 4096, 65536, 131072}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		weights := make([]int, n)
		for i := range weights {
			weights[i] = []int{1, 1, 2, 3, 4, 16}[rng.Intn(6)]
		}
		vs := fairVols(weights...)
		ref := &refSCFQ{
			lastTag: make([]uint64, n),
			weight:  make([]uint64, n),
			queued:  make([][]*vop, n),
			tags:    make([][]uint64, n),
		}
		for i, w := range weights {
			ref.weight[i] = uint64(w)
		}
		var q fairQueue
		// Each phase backlogs a random subset of the volumes, so the
		// others sit idle while virtual time moves on.
		for phase := 0; phase < 20; phase++ {
			awake := rng.Intn(1 << n)
			pushBias := rng.Intn(10)
			for step := 0; step < 100; step++ {
				if rng.Intn(10) < pushBias {
					id := rng.Intn(n)
					if awake&(1<<id) == 0 {
						continue
					}
					op := &vop{v: vs[id], cost: costs[rng.Intn(len(costs))]}
					q.push(vs[id], op)
					ref.push(id, op)
					continue
				}
				if got, want := q.pop(), ref.pop(); got != want {
					t.Fatalf("seed %d phase %d step %d: popped %s, reference %s", seed, phase, step, opDesc(got), opDesc(want))
				}
			}
		}
		for {
			got, want := q.pop(), ref.pop()
			if got != want {
				t.Fatalf("seed %d drain: popped %s, reference %s", seed, opDesc(got), opDesc(want))
			}
			if got == nil {
				break
			}
		}
	}
}
