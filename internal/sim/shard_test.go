package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The shard tests drive one randomized actor workload over two fabrics —
// a single raw Engine (the oracle) and ShardGroups of several sizes — and
// require identical observable behavior. Actors hop between partitions
// through sends keyed by their logical id, exactly the discipline the
// benchmark's fleet-1shard workload uses.

const (
	tWindow    = Time(1 << 20) // barrier window and minimum fabric latency
	tMaxEvents = 4096          // per-actor cap on scheduling actions (offset space)
)

// tEntry is one observed event: when it fired and which local step it was.
type tEntry struct {
	at   Time
	step int
}

type tActor struct {
	id        int
	rng       *RNG
	remaining int
	sched     int // scheduling actions taken (unique-offset counter)
	log       []tEntry
}

// tFabric abstracts the two execution substrates under test.
type tFabric interface {
	now(actor int) Time
	schedule(actor int, at Time, fn func())
	send(from, to int, at Time, src int64, fn func())
	seed(to int, at Time, src int64, fn func())
	drain() // run to quiescence
}

// rawFabric: everything on one raw Engine — the single-engine oracle.
type rawFabric struct {
	eng *Engine
	// global records the global firing order (single goroutine, so a
	// shared slice is safe here and only here).
	global []int // actor ids in firing order
}

func (f *rawFabric) now(int) Time                               { return f.eng.Now() }
func (f *rawFabric) schedule(_ int, at Time, fn func())         { f.eng.At(at, fn) }
func (f *rawFabric) send(_, _ int, at Time, _ int64, fn func()) { f.eng.At(at, fn) }
func (f *rawFabric) seed(_ int, at Time, _ int64, fn func())    { f.eng.At(at, fn) }
func (f *rawFabric) drain()                                     { f.eng.Run() }

// groupFabric: actors partitioned over a ShardGroup, id modulo shards.
type groupFabric struct {
	g *ShardGroup
}

func (f *groupFabric) home(actor int) *Shard { return f.g.Shard(actor % len(f.g.shards)) }
func (f *groupFabric) now(actor int) Time    { return f.home(actor).Engine().Now() }
func (f *groupFabric) schedule(actor int, at Time, fn func()) {
	f.home(actor).Engine().At(at, fn)
}
func (f *groupFabric) send(from, to int, at Time, src int64, fn func()) {
	f.home(from).Send(f.home(to).ID(), at, src, fn)
}
func (f *groupFabric) seed(to int, at Time, src int64, fn func()) {
	f.g.Send(f.home(to).ID(), at, src, fn)
}
func (f *groupFabric) drain() {
	if !f.g.Drain(1 << 40) {
		panic("sim test: shard group failed to drain")
	}
}

type tWorld struct {
	fab    tFabric
	actors []*tActor
	unique bool // globally unique timestamps vs deliberate ties
}

func newWorld(fab tFabric, actors, steps int, seed uint64, unique bool) *tWorld {
	w := &tWorld{fab: fab, unique: unique}
	for i := 0; i < actors; i++ {
		w.actors = append(w.actors, &tActor{
			id:        i,
			rng:       NewRNG(DeriveSeed(seed, "shardtest", fmt.Sprint(i))),
			remaining: steps,
		})
	}
	return w
}

// nextAt picks the next event time: at least one full window ahead (the
// lookahead every fabric hop must respect), globally unique in unique
// mode, tie-prone otherwise.
func (w *tWorld) nextAt(a *tActor, now Time) Time {
	base := (now/tWindow + 1 + Time(a.rng.Intn(3))) * tWindow
	a.sched++
	if a.sched >= tMaxEvents {
		panic("sim test: offset space exhausted")
	}
	if w.unique {
		return base + Time(a.id*tMaxEvents+a.sched)
	}
	return base + Time(a.rng.Intn(2)) // frequent exact collisions
}

func (w *tWorld) step(a *tActor) {
	now := w.fab.now(a.id)
	a.log = append(a.log, tEntry{at: now, step: len(a.log)})
	if raw, ok := w.fab.(*rawFabric); ok {
		raw.global = append(raw.global, a.id)
	}
	if a.remaining == 0 {
		return
	}
	a.remaining--
	at := w.nextAt(a, now)
	if len(w.actors) > 1 && a.rng.Intn(3) == 0 {
		b := w.actors[a.rng.Intn(len(w.actors))]
		w.fab.send(a.id, b.id, at, int64(a.id), func() { w.step(b) })
		return
	}
	w.fab.schedule(a.id, at, func() { w.step(a) })
}

func (w *tWorld) start() {
	for _, a := range w.actors {
		a := a
		var at Time
		if w.unique {
			at = tWindow + Time(a.id+1)
		} else {
			at = tWindow
		}
		w.fab.seed(a.id, at, int64(a.id), func() { w.step(a) })
	}
	w.fab.drain()
}

func runWorld(fab tFabric, actors, steps int, seed uint64, unique bool) *tWorld {
	w := newWorld(fab, actors, steps, seed, unique)
	w.start()
	return w
}

func diffLogs(t *testing.T, label string, want, got []*tActor) {
	t.Helper()
	for i := range want {
		a, b := want[i], got[i]
		if len(a.log) != len(b.log) {
			t.Fatalf("%s: actor %d fired %d events, oracle fired %d", label, i, len(b.log), len(a.log))
		}
		for j := range a.log {
			if a.log[j] != b.log[j] {
				t.Fatalf("%s: actor %d event %d = %+v, oracle %+v", label, i, j, b.log[j], a.log[j])
			}
		}
	}
}

// TestShardMergeMatchesSingleEngineOracle drives a workload whose event
// timestamps are globally unique, so the single raw engine's firing order
// is the unambiguous (time, seq) reference. Every shard count must
// reproduce each actor's event sequence exactly, and the time-merged
// union of the shard logs must equal the raw engine's global firing order
// — the cross-shard merge loses, duplicates, or reorders nothing.
func TestShardMergeMatchesSingleEngineOracle(t *testing.T) {
	const actors, steps = 7, 300
	for _, seed := range []uint64{1, 2, 42} {
		raw := &rawFabric{eng: NewEngine()}
		oracle := runWorld(raw, actors, steps, seed, true)

		// Raw global firing order must itself be in strictly increasing
		// time order (unique timestamps).
		var all []tEntry
		for _, a := range oracle.actors {
			all = append(all, a.log...)
		}
		if len(all) != len(raw.global) {
			t.Fatalf("seed %d: %d log entries vs %d global firings", seed, len(all), len(raw.global))
		}

		for _, shards := range []int{1, 2, 3, 4} {
			g := NewShardGroup(shards, tWindow)
			got := runWorld(&groupFabric{g: g}, actors, steps, seed, true)
			diffLogs(t, fmt.Sprintf("seed %d shards %d", seed, shards), oracle.actors, got.actors)
		}
	}
}

// TestShardCountInvarianceUnderTies floods the schedule with events at
// identical timestamps — the case the canonical (time, src, seq) merge
// order exists for — and requires every actor's observed sequence to be
// identical at shard counts 1, 2, 3, 5, and 8. The one-shard group is the
// reference: the determinism contract is defined by the windowed merge
// discipline, which a single shard follows too.
func TestShardCountInvarianceUnderTies(t *testing.T) {
	const actors, steps = 9, 400
	for _, seed := range []uint64{1, 7} {
		ref := runWorld(&groupFabric{g: NewShardGroup(1, tWindow)}, actors, steps, seed, false)
		ties := 0
		seen := map[Time]bool{}
		for _, a := range ref.actors {
			for _, e := range a.log {
				if seen[e.at] {
					ties++
				}
				seen[e.at] = true
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: tie-heavy workload produced no timestamp collisions", seed)
		}
		for _, shards := range []int{2, 3, 5, 8} {
			got := runWorld(&groupFabric{g: NewShardGroup(shards, tWindow)}, actors, steps, seed, false)
			diffLogs(t, fmt.Sprintf("seed %d shards %d", seed, shards), ref.actors, got.actors)
		}
	}
}

// TestShardSendLookaheadPanics pins the conservative-lookahead contract:
// delivering inside the sender's current window must fail loudly, and the
// panic must surface on the coordinating goroutine with the shard named.
func TestShardSendLookaheadPanics(t *testing.T) {
	g := NewShardGroup(2, tWindow)
	g.Send(1, tWindow/2, 0, func() {
		// Fired mid-window on shard 1: delivery at "now" is inside the
		// current window — a lookahead violation.
		g.Shard(1).Send(0, g.Shard(1).Engine().Now(), 0, func() {})
	})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("lookahead violation did not panic")
		}
		msg := fmt.Sprint(p)
		if !strings.Contains(msg, "lookahead") || !strings.Contains(msg, "shard 1") {
			t.Fatalf("panic %q does not name the lookahead violation on shard 1", msg)
		}
	}()
	g.Run(2 * tWindow)
}

// TestShardPanicPropagates: a panic inside a shard's window re-panics on
// the coordinator with the shard id, after the window barrier completes.
func TestShardPanicPropagates(t *testing.T) {
	g := NewShardGroup(3, tWindow)
	g.Send(2, tWindow/2, 0, func() { panic("boom") })
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("shard panic did not propagate")
		}
		msg := fmt.Sprint(p)
		if !strings.Contains(msg, "shard 2") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %q does not carry shard id and cause", msg)
		}
	}()
	g.Run(tWindow)
}

// TestShardDrain: Drain completes queued cross-shard chains and reports
// quiescence; an unreachable limit reports failure without hanging.
func TestShardDrain(t *testing.T) {
	g := NewShardGroup(2, tWindow)
	hops := 0
	var hop func(at Time)
	hop = func(at Time) {
		hops++
		if hops >= 5 {
			return
		}
		g.Shard(hops%2).Send((hops+1)%2, at+2*tWindow, 7, func() { hop(at + 2*tWindow) })
	}
	g.Send(1, tWindow, 7, func() { hop(tWindow) })
	if !g.Drain(1 << 40) {
		t.Fatal("Drain did not reach quiescence")
	}
	if hops != 5 {
		t.Fatalf("hops = %d, want 5", hops)
	}
	if g.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain", g.Pending())
	}
}

// bouncer is a pooled sender: its one bound callback, delivered, sends
// itself on again a window later, so nothing of it allocates.
type bouncer struct {
	s    *Shard
	src  int64
	hops int
	fn   func()
}

func (b *bouncer) hop() {
	b.hops++
	b.s.Send(0, b.s.Engine().Now()+tWindow, b.src, b.fn)
}

// TestShardWindowAllocFree gates the barrier's steady state: a window that
// carries messages (merged into canonical order, then injected) allocates
// nothing beyond whatever func the caller hands to Send.
func TestShardWindowAllocFree(t *testing.T) {
	g := NewShardGroup(1, tWindow)
	const senders = 16
	var bs [senders]bouncer
	for i := range bs {
		b := &bs[i]
		b.s, b.src = g.Shard(0), int64(senders-i) // descending keys at equal times: merge has sorting to do
		b.fn = b.hop
		g.Send(0, Time(1+i%4), b.src, b.fn)
	}
	window := func() { g.Run(g.Now() + tWindow) }
	for i := 0; i < 8; i++ {
		window()
	}
	before := bs[0].hops
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Fatalf("a window carrying %d messages allocates %.0f times, want 0", senders, allocs)
	}
	if got := bs[0].hops - before; got != 101 { // AllocsPerRun warms up once
		t.Fatalf("a sender hopped %d times in 101 windows: the windows measured carried no messages", got)
	}
}
