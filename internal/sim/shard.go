package sim

// Sharded deterministic simulation: a ShardGroup partitions one logical
// simulation across several Engines, each advanced by its own goroutine,
// while keeping the run bit-identical at any shard count. It exists for
// partitions that really do interact — the benchmark's fleet, whose clients
// hop between arrays over a modeled fabric. Arrays that never talk to one
// another need no barrier: give each its own Engine instead.
//
// The synchronization model is a conservative time-window barrier. All
// shards advance in lockstep windows of fixed virtual width W: during the
// window (P, P+W] every shard drains its own event heap independently; at
// the barrier the coordinator collects every cross-shard message sent
// during the window, merges them into one canonically ordered stream, and
// injects the due ones into the receiving engines before the next window
// starts. Because a message sent during a window may not be delivered
// inside it, senders must respect a lookahead of one window: the delivery
// time of a Send must be at or beyond the end of the sender's current
// window (model it as fabric/network latency >= W).
//
// Determinism contract. The merged stream is ordered by
//
//	(delivery time, logical source key, sender FIFO sequence)
//
// — never by physical shard id or goroutine timing — so the injection
// order into any receiving engine, and therefore that engine's (time, seq)
// event order, is a pure function of the workload. Callers must route
// *every* cross-partition interaction through Send (even when source and
// destination happen to live on the same shard) and must choose source
// keys that identify the logical sender (a client id, an array ordinal)
// so the key assignment does not change when the partition-to-shard
// mapping does. Under that discipline the observable behavior of each
// partition is identical for any shard count, including a group of one
// shard — which is the property shard_test.go pins against a single-engine
// oracle and under deliberate same-time ties.
import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
)

// xmsg is one cross-shard message awaiting deterministic delivery.
type xmsg struct {
	at  Time  // absolute delivery time
	src int64 // logical source key (shard-count-invariant)
	seq uint64
	dst int
	fn  func()
}

// xcmp is the canonical merge order: (time, source key, FIFO seq). The
// destination shard is a final backstop so the order is total even if a
// caller violates the unique-source-key discipline; it is never reached
// under correct use because one logical sender emits strictly increasing
// seqs. A total order leaves a sort no freedom: whichever algorithm runs,
// the merged stream is the same.
func xcmp(a, b xmsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.seq, b.seq); c != 0 {
		return c
	}
	return cmp.Compare(a.dst, b.dst)
}

// Shard is one partition of a ShardGroup: an Engine plus the outbox used
// to publish cross-shard messages at the next barrier. All interaction
// with a shard's engine (scheduling, state owned by its partitions) must
// happen on the goroutine currently running the shard — i.e. from event
// handlers of its own engine, or from the coordinator between Run calls.
type Shard struct {
	id  int
	eng *Engine
	g   *ShardGroup
	out []xmsg
	seq uint64
}

// ID reports the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's simulation engine.
func (s *Shard) Engine() *Engine { return s.eng }

// Send schedules fn to run on shard dst at absolute virtual time at. src
// is the logical source key used for canonical merge ordering; it must
// identify the logical sender independently of the shard count (see the
// package comment). Delivery must respect the conservative lookahead:
// at must not precede the end of the sender's current window.
func (s *Shard) Send(dst int, at Time, src int64, fn func()) {
	g := s.g
	if dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: Send to shard %d of %d", dst, len(g.shards)))
	}
	if at < g.windowEnd {
		panic(fmt.Sprintf("sim: Send delivering at %d violates lookahead (window ends at %d)",
			at, g.windowEnd))
	}
	s.seq++
	s.out = append(s.out, xmsg{at: at, src: src, seq: s.seq, dst: dst, fn: fn})
}

// ShardGroup coordinates a set of engine shards advancing in lockstep
// conservative time windows. Construct the partitions (devices, arrays,
// clients) on the shards' engines from the coordinating goroutine, then
// call Run/Drain from that same goroutine.
type ShardGroup struct {
	window Time
	shards []*Shard

	now       Time
	windowEnd Time // end of the window currently (or last) executed

	pending []xmsg // merged, canonically sorted, not yet injected
	seed    []xmsg // coordinator-side sends (initial placements)
	seedSeq uint64
}

// NewShardGroup returns a group of n shards with the given barrier window
// (virtual nanoseconds). The window is the group's lookahead: every
// cross-shard Send must deliver at least one window into the future, so
// pick it no larger than the smallest cross-partition latency the
// simulation models.
func NewShardGroup(n int, window Time) *ShardGroup {
	if n < 1 {
		panic("sim: NewShardGroup with no shards")
	}
	if window <= 0 {
		panic("sim: NewShardGroup with non-positive window")
	}
	g := &ShardGroup{window: window}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, eng: NewEngine(), g: g})
	}
	return g
}

// Shards reports the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// Now reports the group's completed-up-to virtual time: every shard's
// engine has advanced exactly this far.
func (g *ShardGroup) Now() Time { return g.now }

// Send schedules fn on shard dst at absolute time at from the
// coordinating goroutine — the way initial work (client placements,
// deferred control events) is seeded between Run calls. at must not
// precede the group's current time.
func (g *ShardGroup) Send(dst int, at Time, src int64, fn func()) {
	if dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: Send to shard %d of %d", dst, len(g.shards)))
	}
	if at < g.now {
		panic(fmt.Sprintf("sim: Send delivering at %d before group time %d", at, g.now))
	}
	g.seedSeq++
	g.seed = append(g.seed, xmsg{at: at, src: src, seq: g.seedSeq, dst: dst, fn: fn})
}

// Pending reports scheduled-but-unfired events across all shard engines
// plus undelivered cross-shard messages. Meaningful only between Run
// calls (the coordinator's quiescence test).
func (g *ShardGroup) Pending() int {
	n := len(g.pending) + len(g.seed)
	for _, s := range g.shards {
		n += s.eng.Pending()
	}
	return n
}

// merge folds freshly produced messages (shard outboxes and coordinator
// seeds) into the canonically sorted pending stream.
func (g *ShardGroup) merge() {
	grew := len(g.seed) > 0
	g.pending = append(g.pending, g.seed...)
	g.seed = g.seed[:0]
	for _, s := range g.shards {
		if len(s.out) > 0 {
			grew = true
			g.pending = append(g.pending, s.out...)
			s.out = s.out[:0]
		}
	}
	if grew {
		slices.SortFunc(g.pending, xcmp)
	}
}

// inject delivers every pending message due in the window ending at wEnd,
// in canonical order. Runs on the coordinator between windows, so the
// receiving engines are quiescent.
func (g *ShardGroup) inject(wEnd Time) {
	i := 0
	for ; i < len(g.pending) && g.pending[i].at <= wEnd; i++ {
		m := &g.pending[i]
		eng := g.shards[m.dst].eng
		at := m.at
		if at < eng.Now() {
			// Cannot happen under the lookahead rule; fail loudly rather
			// than let a scheduling-in-the-past panic lose the context.
			panic(fmt.Sprintf("sim: message for shard %d due at %d after engine time %d",
				m.dst, at, eng.Now()))
		}
		eng.At(at, m.fn)
	}
	if i > 0 {
		rest := len(g.pending) - i
		copy(g.pending, g.pending[i:])
		for j := rest; j < len(g.pending); j++ {
			g.pending[j] = xmsg{}
		}
		g.pending = g.pending[:rest]
	}
}

// windowCmd starts one window on a worker; a closed channel stops it.
type windowDone struct {
	shard    int
	panicVal any
	stack    []byte
}

// Run advances every shard to virtual time until, window by window. Work
// inside a window executes on per-shard goroutines (inline when the group
// has a single shard); barriers, message merging, and injection run on
// the calling goroutine. A panic on any shard stops the group at the end
// of that window and re-panics on the caller with the shard id attached.
func (g *ShardGroup) Run(until Time) {
	if until <= g.now {
		return
	}
	nshards := len(g.shards)
	var starts []chan Time
	var done chan windowDone
	if nshards > 1 {
		starts = make([]chan Time, nshards)
		done = make(chan windowDone, nshards)
		for i, s := range g.shards {
			starts[i] = make(chan Time)
			go shardWorker(s, starts[i], done)
		}
		defer func() {
			for _, c := range starts {
				close(c)
			}
		}()
	}

	for g.now < until {
		wEnd := g.now + g.window
		if wEnd > until {
			wEnd = until
		}
		g.windowEnd = wEnd
		g.merge()
		g.inject(wEnd)

		if nshards == 1 {
			g.shards[0].eng.RunUntil(wEnd)
		} else {
			for _, c := range starts {
				c <- wEnd
			}
			var failed *windowDone
			for i := 0; i < nshards; i++ {
				d := <-done
				if d.panicVal != nil && (failed == nil || d.shard < failed.shard) {
					failed = &d
				}
			}
			if failed != nil {
				panic(fmt.Sprintf("sim: shard %d panicked: %v\n%s",
					failed.shard, failed.panicVal, failed.stack))
			}
		}
		g.now = wEnd
	}
	g.merge() // publish outboxes of the final window before returning
}

// shardWorker advances one shard for successive windows until its command
// channel closes. Panics inside the window are captured and reported at
// the barrier so the coordinator can fail the whole group coherently.
func shardWorker(s *Shard, start <-chan Time, done chan<- windowDone) {
	for wEnd := range start {
		d := windowDone{shard: s.id}
		func() {
			defer func() {
				if p := recover(); p != nil {
					d.panicVal = p
					d.stack = debug.Stack()
				}
			}()
			s.eng.RunUntil(wEnd)
		}()
		done <- d
	}
}

// Drain runs windows until the group is quiescent — no shard has pending
// events and no cross-shard message awaits delivery — or until the group
// clock reaches limit. It reports whether quiescence was reached. Use it
// to let in-flight work complete after the measured horizon.
func (g *ShardGroup) Drain(limit Time) bool {
	for g.now < limit {
		if g.Pending() == 0 {
			return true
		}
		g.Run(g.now + g.window)
	}
	return g.Pending() == 0
}
