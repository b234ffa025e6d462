package volume

// fairQueue is self-clocked fair queueing (SCFQ, Golestani 1994) over the
// manager's volumes, the arbiter at its submission shim into the array.
// Every admitted op is stamped with a virtual finish tag
//
//	start  = max(vtime, volume.lastTag)
//	finish = start + cost/weight
//
// and queued on its own volume's ready FIFO; pop always serves the
// backlogged volume with the smallest head tag (ties broken by volume id,
// so arbitration is deterministic) and advances vtime to the served tag.
// A volume that goes idle re-enters at the current virtual time rather
// than at its stale tag, so an idle tenant is never punished for sleeping,
// and a saturating tenant accumulates tags far in the virtual future —
// the property that keeps a noisy neighbor from starving everyone else.
//
// The queue holds no ops of its own: each lives once, on its volume's
// ready FIFO, and the heap orders the volumes. Both reuse their backing
// slices, so steady-state push/pop allocate nothing.
type fairQueue struct {
	vtime uint64
	// active is a binary min-heap of the backlogged volumes ordered by
	// (head tag, volume id).
	active []*Volume
}

// costShift scales costs into tag units so integer division by the
// weight keeps precision. With byte costs, tags advance by at most
// cost<<16 per request: a simulation must push ~2^47 bytes through one
// manager before the uint64 tag space wraps.
const costShift = 16

// push tags op (cost in any positive unit — the manager uses bytes) and
// queues it behind v's earlier ops.
func (q *fairQueue) push(v *Volume, op *vop) {
	cost := op.cost
	if cost < 1 {
		cost = 1
	}
	start := max(q.vtime, v.lastTag)
	op.tag = start + (uint64(cost)<<costShift)/v.weight
	v.lastTag = op.tag
	v.ready.Push(op)
	if v.ready.Len() == 1 {
		q.up(v)
	}
	// An already-backlogged volume's head tag is unchanged by appending,
	// so the heap needs no fixup.
}

// pop dequeues the next op to dispatch, or nil when no volume is
// backlogged.
func (q *fairQueue) pop() *vop {
	if len(q.active) == 0 {
		return nil
	}
	v := q.active[0]
	op := v.ready.Pop()
	q.vtime = max(q.vtime, op.tag)
	if v.ready.Len() == 0 {
		n := len(q.active) - 1
		q.active[0] = q.active[n]
		q.active[n] = nil
		q.active = q.active[:n]
	}
	q.down() // the root's head tag grew, or the root was replaced
	return op
}

// less orders backlogged volumes by (head tag, volume id).
func less(a, b *Volume) bool {
	ta, tb := a.ready.Peek().tag, b.ready.Peek().tag
	if ta != tb {
		return ta < tb
	}
	return a.id < b.id
}

// up adds a newly backlogged volume to the heap.
func (q *fairQueue) up(v *Volume) {
	q.active = append(q.active, v)
	h := q.active
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down sifts the root to its place.
func (q *fairQueue) down() {
	h := q.active
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
