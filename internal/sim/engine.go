// Package sim provides a deterministic discrete-event simulation engine.
//
// All storage devices and AFA engines in this repository run in virtual
// time: an Engine owns a monotonically increasing clock (int64 nanoseconds)
// and an event heap. Callers schedule callbacks at absolute or relative
// virtual times; Run drains the heap in (time, insertion-order) order, so
// every simulation is fully reproducible.
//
// The event core is built for throughput: events are value types in a
// hand-rolled 4-ary min-heap (no container/heap interface boxing, no
// per-event allocation inside the engine), and hot schedulers can avoid
// caller-side closure allocation entirely by scheduling a pooled record
// through the Handler interface (AtEvent/AfterEvent). Plain callbacks
// travel as Handlers too (fnHandler). See DESIGN.md, "Event core".
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Handler is implemented by schedulable event records. Hot paths keep a
// pool of records implementing Handler and schedule them with AtEvent:
// the engine stores the interface value without allocating, so a recycled
// record costs zero allocations per scheduled event.
type Handler interface {
	// Fire runs the event. a and b carry two caller-chosen Time arguments
	// (Resource passes service start/end; plain events pass zeros).
	Fire(a, b Time)
}

// fnHandler carries a plain callback as a Handler. Func values are
// pointer-shaped, so the conversion to the interface stores the value
// itself and does not allocate.
type fnHandler func()

func (f fnHandler) Fire(_, _ Time) { f() }

// event is one scheduled callback, stored by value in the heap: six words,
// two of them the handler.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among events with equal timestamps
	a, b Time   // arguments for h.Fire
	h    Handler
}

// before reports heap ordering: (time, insertion seq).
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// lt is before as 0 or 1, without a branch: the borrow out of the 128-bit
// subtraction (a.at, a.seq) - (b.at, b.seq). Exact while at >= 0, which
// schedule's "t < e.now" check enforces (the clock starts at 0 and never
// goes back).
func lt(a, b *event) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use; the entire simulation runs on one goroutine.
type Engine struct {
	now    Time
	seq    uint64
	events []event // 4-ary min-heap ordered by (at, seq)
	vacant bool    // events[0] has fired (or is firing) and its slot awaits reuse
	// nowSeq is the seq of the last event scheduled for the instant it was
	// scheduled at (t == now); see NowSeq.
	nowSeq uint64
	// fired is the seq of the event firing or last fired, or every seq
	// issued once a RunUntil reaches its horizon; settled is every seq
	// issued when a Run last drained the heap. See Passed.
	fired, settled uint64
	// census counts fires by handler type in a census build (census.go);
	// otherwise it is empty and takes no space.
	census census
	// sink, optional, accumulates the virtual time this engine advances;
	// credited is the clock reading it has been told about so far.
	sink     *atomic.Int64
	credited Time
	// locals holds the engine-wide values Local hands out, one per type.
	locals []any
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Local returns e's single value of type T, made (zero) on first use. It is
// state that every model on one engine shares, such as the free lists their
// pooled records are drawn from. The value belongs to the engine's
// goroutine, like every event the engine runs, so it takes no lock;
// constructors look it up once and keep the pointer.
func Local[T any](e *Engine) *T {
	for _, v := range e.locals {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	e.locals = append(e.locals, p)
	return p
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTimeSink registers an accumulator credited with every nanosecond of
// virtual time this engine advances from now on. Many engines (one
// simulation each, possibly on different goroutines) may share one sink,
// which is how the benchmark runner totals simulated time per experiment;
// so the engine does not touch the shared word per event but once per
// Run, RunUntil or Step, as the call returns. The sink is exact whenever
// no such call is on the stack.
func (e *Engine) SetTimeSink(sink *atomic.Int64) {
	e.credit()
	e.sink, e.credited = sink, e.now
}

// credit tells the sink how far the clock has moved since it was last
// told. Deferred by every call that moves the clock, so a nested call and
// a handler panic the caller recovers both leave the sink exact, and no
// nanosecond is counted twice.
func (e *Engine) credit() {
	if e.sink != nil && e.now > e.credited {
		e.sink.Add(e.now - e.credited)
		e.credited = e.now
	}
}

// advanceTo moves the clock forward to t.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// NowSeq reports the sequence number of the last event scheduled for the
// instant it was scheduled at, with zero delay. Read right after such an
// event is scheduled, it names that event; while the event is pending and
// a later read returns the same value, nothing else has been scheduled for
// the current instant, so the event still fires after everything already
// due now and before everything scheduled from here on. Work that rides
// on a pending zero-delay event instead of scheduling its own (a batch
// gathering what one instant submits) keeps the firing order exact as long
// as NowSeq still names that event.
func (e *Engine) NowSeq() uint64 { return e.nowSeq }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int {
	if e.vacant {
		return len(e.events) - 1
	}
	return len(e.events)
}

// push inserts ev, maintaining the 4-ary heap invariant. An event is six
// words, so both sifts move a hole instead of swapping: the moving event
// stays in a local, parents (or children) slide into the hole, and it is
// stored once where the hole ends up.
func (e *Engine) push(ev event) {
	e.events = append(e.events, event{})
	h := e.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// closeRoot fills a root that fireRoot left vacant and no schedule reused,
// the classic way: the last leaf moves up and sifts down.
func (e *Engine) closeRoot() {
	if !e.vacant {
		return
	}
	e.vacant = false
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the handler so fired events don't pin memory
	e.events = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
}

// siftDown places ev, which belongs at or below the vacant root. (at, seq)
// is a total order, so which of the valid heap shapes results cannot change
// the firing order.
func (e *Engine) siftDown(ev event) {
	h := e.events
	n := len(h)
	i, c := 0, 1 // the hole and its first child
	for ; c+3 < n; c = i<<2 + 1 {
		// All four children: the smallest by arithmetic on lt, so the one
		// branch per level is the well-predicted "stop here?".
		m01 := c + lt(&h[c+1], &h[c])
		m23 := c + 2 + lt(&h[c+3], &h[c+2])
		best := m01 + (m23-m01)&-lt(&h[m23], &h[m01])
		if !h[best].before(&ev) {
			h[i] = ev
			return
		}
		h[i] = h[best]
		i = best
	}
	if c < n { // the one node on the path with one to three children, all leaves
		best := c
		for j := c + 1; j < n; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if h[best].before(&ev) {
			h[i] = h[best]
			i = best
		}
	}
	h[i] = ev
}

// schedule validates t and inserts ev with the next sequence number: down
// from the root if the event being fired left it vacant, else up from a
// new leaf.
func (e *Engine) schedule(t Time, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	// Written so it compiles to a conditional move: zero-delay and later
	// events interleave, and a branch on which one this is mispredicts.
	ns := e.nowSeq
	if t == e.now {
		ns = e.seq
	}
	e.nowSeq = ns
	if e.vacant {
		e.vacant = false
		e.siftDown(ev)
		return
	}
	e.push(ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would mean causality is broken somewhere in the simulation.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, event{h: fnHandler(fn)}) }

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtEvent schedules h.Fire(a, b) at absolute time t. The engine itself
// performs no allocation, so pooled records make scheduling allocation-free.
func (e *Engine) AtEvent(t Time, h Handler, a, b Time) {
	e.schedule(t, event{h: h, a: a, b: b})
}

// AfterEvent schedules h.Fire(a, b) d nanoseconds from now.
func (e *Engine) AfterEvent(d Time, h Handler, a, b Time) { e.AtEvent(e.now+d, h, a, b) }

// Ticket reserves the sequence number of an event that may be scheduled
// later, with AtTicket, or never. Taking it is what scheduling the event now
// would do to the sequence, and nothing else: the event, if it is ever
// armed, fires in the place it would have had, so a model can hold back an
// event whose effect may turn out to be nothing and pay for it only when it
// does something. NowSeq does not count a ticket: an event meant for the
// current instant is scheduled, not ticketed (SubmitTicket does both).
func (e *Engine) Ticket() uint64 {
	e.seq++
	return e.seq
}

// AtTicket arms the ticket seq: h.Fire(a, b) runs at t in the place of the
// event the ticket was taken for. It panics if that place has passed
// (Passed). It leaves NowSeq alone, since the event counts as scheduled when
// the ticket was taken.
func (e *Engine) AtTicket(t Time, seq uint64, h Handler, a, b Time) {
	if e.Passed(t, seq) {
		panic(fmt.Sprintf("sim: arming ticket (%d, %d) at %d, after its place", t, seq, e.now))
	}
	ev := event{at: t, seq: seq, h: h, a: a, b: b}
	if e.vacant { // as in schedule, which keeps its own copy to stay one call
		e.vacant = false
		e.siftDown(ev)
		return
	}
	e.push(ev)
}

// Passed reports whether an event keyed (t, seq) has fired or is firing,
// or, were it scheduled, would have: the key is at or before the event
// firing's (or the last one fired's). After a RunUntil that reached its
// horizon every seq issued so far counts at the horizon, and after a Run
// that drained the heap every seq issued so far has passed, whatever its
// time: a ticket never armed is an event that would have fired by then.
func (e *Engine) Passed(t Time, seq uint64) bool {
	return seq <= e.settled || t < e.now || t == e.now && seq <= e.fired
}

// fireRoot fires the earliest event and leaves its slot vacant for the
// first schedule the handler makes, which then costs the only sift of this
// event; closeRoot pays for a handler that scheduled nothing. The heap must
// be non-empty and the root occupied.
func (e *Engine) fireRoot() {
	ev := e.events[0]
	e.events[0].h = nil // drop the handler so fired events don't pin memory
	e.vacant = true
	e.advanceTo(ev.at)
	e.fired = ev.seq
	e.count(ev.h)
	ev.h.Fire(ev.a, ev.b)
}

// Run fires events until the heap is empty.
func (e *Engine) Run() {
	defer e.credit()
	for e.closeRoot(); len(e.events) > 0; e.closeRoot() {
		e.fireRoot()
	}
	e.settled = e.seq
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	defer e.credit()
	for e.closeRoot(); len(e.events) > 0 && e.events[0].at <= t; e.closeRoot() {
		e.fireRoot()
	}
	if e.now <= t {
		e.advanceTo(t)
		e.fired = e.seq
	}
}

// Step fires exactly one event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	defer e.credit()
	e.closeRoot()
	if len(e.events) == 0 {
		return false
	}
	e.fireRoot()
	return true
}
