// Weighted-fair queueing for the submission shim.
//
// WFQ implements self-clocked fair queueing (SCFQ) over an arbitrary
// number of weighted flows. It is the arbiter the multi-tenant volume manager
// (internal/volume) installs at its submission shim into the array: every
// admitted request is stamped with a virtual finish tag
//
//	start  = max(vtime, flow.lastTag)
//	finish = start + cost/weight
//
// and dispatch always picks the backlogged flow with the smallest head
// tag (ties broken by flow id, so arbitration is deterministic). A flow
// that goes idle re-enters at the current virtual time rather than at its
// stale tag, so an idle tenant is never punished for sleeping, and a
// saturating tenant accumulates tags far in the virtual future — exactly
// the property that keeps a noisy neighbor from starving everyone else.
//
// The arbiter lives in this package rather than in internal/volume
// because it is a submission-path discipline, not a volume concept: it
// arbitrates which command enters the NVMe-facing stack next. Tenant
// identity does not exist below the array front end (the member driver
// queues see anonymized stripe traffic), so the shim above the array is
// the lowest layer where fair queueing is meaningful.
//
// WFQ arbitrates flows only; callers keep their own per-flow FIFO of
// request records and dequeue the head of whichever flow Pop returns.
// All state lives in slices reused across operations, so steady-state
// Push/Pop allocate nothing.
package nvme

import "fmt"

// wfqCostShift scales costs into tag units so integer division by the
// weight keeps precision. With byte costs, tags advance by at most
// cost<<16 per request: a simulation must push ~2^47 bytes through one
// arbiter before the uint64 tag space wraps.
const wfqCostShift = 16

// WFQ is a deterministic weighted start-time fair queueing arbiter.
// The zero value is not usable; call NewWFQ.
type WFQ struct {
	vtime uint64
	flows []wfqFlow
	// active is a binary min-heap of backlogged flow ids ordered by
	// (head tag, flow id).
	active []int
	queued int
}

// wfqFlow is the per-flow arbitration state. Queued request tags form a
// FIFO in tags[head:]; the slice compacts when fully drained.
type wfqFlow struct {
	weight  uint64
	lastTag uint64
	tags    []uint64
	head    int
	pos     int // index in the active heap, -1 when idle
}

// NewWFQ returns an empty arbiter.
func NewWFQ() *WFQ { return &WFQ{} }

// AddFlow registers a flow with the given weight (minimum 1) and returns
// its id. Ids are dense and assigned in registration order.
func (w *WFQ) AddFlow(weight int) int {
	if weight < 1 {
		weight = 1
	}
	id := len(w.flows)
	w.flows = append(w.flows, wfqFlow{weight: uint64(weight), pos: -1})
	return id
}

// Len reports the total number of queued requests across all flows.
func (w *WFQ) Len() int { return w.queued }

// Push enqueues a request of the given cost (any positive unit — the
// volume manager uses bytes) on a flow. Requests within one flow dispatch
// in FIFO order; across flows, in virtual-finish-tag order.
func (w *WFQ) Push(flow int, cost int64) {
	if cost < 1 {
		cost = 1
	}
	f := &w.flows[flow]
	start := f.lastTag
	if w.vtime > start {
		start = w.vtime
	}
	tag := start + (uint64(cost)<<wfqCostShift)/f.weight
	f.lastTag = tag
	if f.head == len(f.tags) {
		f.tags = f.tags[:0]
		f.head = 0
	}
	f.tags = append(f.tags, tag)
	w.queued++
	if f.pos < 0 {
		w.heapPush(flow)
	}
	// An already-active flow's head tag is unchanged by appending, so the
	// heap needs no fixup.
}

// Pop selects the next flow to dispatch from and consumes its head
// request, advancing virtual time to the request's tag. It reports false
// when no flow is backlogged. The caller dequeues the head of its own
// FIFO for the returned flow.
func (w *WFQ) Pop() (flow int, ok bool) {
	if len(w.active) == 0 {
		return 0, false
	}
	flow = w.active[0]
	f := &w.flows[flow]
	tag := f.tags[f.head]
	f.head++
	w.queued--
	if w.vtime < tag {
		w.vtime = tag
	}
	if f.head == len(f.tags) {
		w.heapRemoveRoot()
		f.tags = f.tags[:0]
		f.head = 0
	} else {
		w.heapFix(0) // head tag grew; sift the root down
	}
	return flow, true
}

// headTag returns the ordering key of an active flow.
func (w *WFQ) headTag(flow int) uint64 {
	f := &w.flows[flow]
	return f.tags[f.head]
}

// less orders active heap entries by (head tag, flow id).
func (w *WFQ) less(a, b int) bool {
	ta, tb := w.headTag(a), w.headTag(b)
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (w *WFQ) heapSwap(i, j int) {
	h := w.active
	h[i], h[j] = h[j], h[i]
	w.flows[h[i]].pos = i
	w.flows[h[j]].pos = j
}

func (w *WFQ) heapPush(flow int) {
	w.active = append(w.active, flow)
	i := len(w.active) - 1
	w.flows[flow].pos = i
	for i > 0 {
		p := (i - 1) / 2
		if !w.less(w.active[i], w.active[p]) {
			break
		}
		w.heapSwap(i, p)
		i = p
	}
}

func (w *WFQ) heapRemoveRoot() {
	h := w.active
	w.flows[h[0]].pos = -1
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
		w.flows[h[0]].pos = 0
	}
	w.active = h[:n]
	if n > 1 {
		w.heapFix(0)
	}
}

// heapFix sifts the entry at index i down to its place.
func (w *WFQ) heapFix(i int) {
	h := w.active
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && w.less(h[c+1], h[c]) {
			c++
		}
		if !w.less(h[c], h[i]) {
			return
		}
		w.heapSwap(i, c)
		i = c
	}
}

// String summarizes arbiter state (diagnostics).
func (w *WFQ) String() string {
	return fmt.Sprintf("wfq{flows=%d queued=%d vtime=%d}", len(w.flows), w.queued, w.vtime)
}
