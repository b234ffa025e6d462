package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// What a scripted handler may do beside scheduling successors.
const (
	actNone     = iota
	actStep     // re-enter Step
	actRunUntil // re-enter RunUntil
	actPending  // Pending() must equal the reference's length at this instant
	actStraddle // inside RunUntil(t): schedule one event at t and one at t+1
	actPanic    // recovered by the caller of the top-level Run/RunUntil/Step
	numActs     // as a row's act: any of the above
)

// scriptDelays make ties, "earlier than everything pending" and "later than
// everything pending" all occur.
var scriptDelays = [...]Time{0, 1, 2, 7, 400}

type scriptPanic struct{}

// scripted drives one engine from a byte script — the path production
// takes: every event but the first few is scheduled from inside a firing
// handler. The first byte says how many events to seed; every top-level
// call reads one byte (Run, Step or RunUntil); every firing handler reads
// an opcode (bits 0-1: successors, bits 2-4: action, bits 5-7: how many
// successors go before the action); every successor and every RunUntil
// reads one more for its distance. A script that has run out reads as
// zeros: Run, no successors, no action, so every script ends. Each handler
// checks on entry that it is the event a container/heap reference pops next.
type scripted struct {
	t      testing.TB
	e      *Engine
	script []byte
	ref    refHeap // what is pending, by the ordering contract
	ats    []Time  // every event's timestamp; the index is its id, in scheduling order
	got    []int   // ids in firing order
	limit  Time    // t of the innermost RunUntil(t) in progress
	acts   [numActs]int
}

func (s *scripted) next() byte {
	if len(s.script) == 0 {
		return 0
	}
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

func (s *scripted) delay() Time { return scriptDelays[int(s.next())%len(scriptDelays)] }

func (s *scripted) schedule(at Time) {
	id := len(s.ats)
	s.ats = append(s.ats, at)
	s.ref.pushEv(refEvent{at: at, seq: uint64(id), id: id})
	s.e.At(at, func() { s.fire(id) })
}

func (s *scripted) fire(id int) {
	s.got = append(s.got, id)
	if want := s.ref.popID(); want != id {
		s.t.Fatalf("event %d fired %d-th at %d, the reference has event %d next", id, len(s.got), s.e.Now(), want)
	}
	if s.e.Now() != s.ats[id] {
		s.t.Fatalf("event %d due at %d fired with the clock at %d", id, s.ats[id], s.e.Now())
	}
	op := s.next()
	n := int(op & 3)
	before := int(op>>5) % (n + 1)
	for i := 0; i <= n; i++ {
		if i == before {
			s.act(op >> 2 & 7)
		}
		if i < n {
			s.schedule(s.e.Now() + s.delay())
		}
	}
}

func (s *scripted) act(a byte) {
	// Outside a RunUntil, or inside one whose t a nested Step has taken the
	// clock past, there is nothing to straddle.
	if a == actNone || a >= numActs || a == actStraddle && s.limit < s.e.Now() {
		return
	}
	s.acts[a]++
	switch a {
	case actStep:
		s.e.Step()
	case actRunUntil:
		s.runUntil(s.e.Now() + s.delay())
	case actPending:
		if got := s.e.Pending(); got != s.ref.Len() {
			s.t.Fatalf("Pending() = %d inside a handler, the reference holds %d", got, s.ref.Len())
		}
	case actStraddle:
		s.schedule(s.limit)
		s.schedule(s.limit + 1)
	case actPanic:
		panic(scriptPanic{})
	}
}

// runUntil is RunUntil(t) and what it promises: the clock reached t and
// nothing due by t is left.
func (s *scripted) runUntil(t Time) {
	outer := s.limit
	s.limit = t
	defer func() { s.limit = outer }()
	s.e.RunUntil(t)
	if s.e.Now() < t {
		s.t.Fatalf("RunUntil(%d) left the clock at %d", t, s.e.Now())
	}
	if s.ref.Len() > 0 && s.ref[0].at <= t {
		s.t.Fatalf("RunUntil(%d) left event %d, due at %d, pending", t, s.ref[0].id, s.ref[0].at)
	}
}

// top makes one top-level call and recovers a scripted panic out of it.
func (s *scripted) top() {
	defer func() {
		if p := recover(); p != nil && p != (scriptPanic{}) {
			panic(p)
		}
	}()
	switch s.next() % 3 {
	case 0:
		s.e.Run()
	case 1:
		s.e.Step()
	case 2:
		s.runUntil(s.e.Now() + s.delay())
	}
}

func runScript(t testing.TB, script []byte) *scripted {
	s := &scripted{t: t, e: NewEngine(), script: script, limit: -1}
	for n := 1 + int(s.next())%8; n > 0; n-- {
		s.schedule(s.delay())
	}
	for s.ref.Len() > 0 {
		s.top()
		if got := s.e.Pending(); got != s.ref.Len() {
			t.Fatalf("Pending() = %d after a top-level call, the reference holds %d", got, s.ref.Len())
		}
	}
	if len(s.got) != len(s.ats) {
		t.Fatalf("fired %d of %d events", len(s.got), len(s.ats))
	}
	return s
}

// randomScript is n random bytes whose action field is act one time in
// three and none otherwise (numActs: whatever the bits say).
func randomScript(rng *rand.Rand, act byte, n int) []byte {
	script := make([]byte, n)
	rng.Read(script)
	if act == numActs {
		return script
	}
	for i := range script {
		script[i] &^= 7 << 2
		if rng.Intn(3) == 0 {
			script[i] |= act << 2
		}
	}
	return script
}

// orderRows are the rows of TestHeapOrderWithHandlerScheduling and the seed
// corpus of FuzzEngineOrder.
var orderRows = []struct {
	name     string
	act      byte
	wantActs int // over the row's 50 scripts, act happens at least this often
}{
	{name: "handlers only schedule successors", act: actNone},
	{name: "a handler re-enters Step", act: actStep, wantActs: 1000},
	{name: "a handler re-enters RunUntil", act: actRunUntil, wantActs: 1000},
	{name: "a handler reads Pending", act: actPending, wantActs: 1000},
	{name: "the last handlers of RunUntil(t) schedule at t and t+1", act: actStraddle, wantActs: 100},
	{name: "a handler panics and the test recovers", act: actPanic, wantActs: 1000},
	{name: "all of it at once", act: numActs, wantActs: 1000},
}

// TestHeapOrderWithHandlerScheduling: events scheduled from inside firing
// handlers — onto the root the firing event vacated, or up from a leaf once
// that is taken — fire in (time, seq) order, whatever else the handler does
// to the engine on the way.
func TestHeapOrderWithHandlerScheduling(t *testing.T) {
	for _, tt := range orderRows {
		t.Run(tt.name, func(t *testing.T) {
			acts, events := 0, 0
			for seed := int64(0); seed < 50; seed++ {
				s := runScript(t, randomScript(rand.New(rand.NewSource(3000+seed)), tt.act, 400))
				events += len(s.got)
				for _, n := range s.acts {
					acts += n
				}
			}
			if acts < tt.wantActs {
				t.Errorf("the row's action happened %d times over %d events, want at least %d", acts, events, tt.wantActs)
			}
		})
	}
}

// FuzzEngineOrder: the input is the script; whatever it makes the handlers
// do, events fire in the order a stable sort by timestamp puts everything
// that was scheduled in.
func FuzzEngineOrder(f *testing.F) {
	for _, tt := range orderRows {
		f.Add(randomScript(rand.New(rand.NewSource(1)), tt.act, 64))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 { // nested calls go one frame deeper per byte
			script = script[:4096]
		}
		s := runScript(t, script)
		want := make([]int, len(s.ats))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return s.ats[want[i]] < s.ats[want[j]] })
		for i := range want {
			if s.got[i] != want[i] {
				t.Fatalf("event fired %d-th was %d, the sort has %d", i, s.got[i], want[i])
			}
		}
	})
}

// TestLtMatchesBefore: lt is before as 0 or 1 on every key schedule can
// produce (at >= 0).
func TestLtMatchesBefore(t *testing.T) {
	check := func(a, b event) {
		t.Helper()
		want := 0
		if a.before(&b) {
			want = 1
		}
		if got := lt(&a, &b); got != want {
			t.Fatalf("lt((%d, %d), (%d, %d)) = %d, before says %d", a.at, a.seq, b.at, b.seq, got, want)
		}
	}
	var keys []event
	for _, at := range []Time{0, 1, math.MaxInt64} {
		for _, seq := range []uint64{0, 1, math.MaxUint64} {
			keys = append(keys, event{at: at, seq: seq})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(4000))
	for i := 0; i < 100000; i++ {
		a := event{at: rng.Int63(), seq: rng.Uint64()}
		b := event{at: rng.Int63(), seq: rng.Uint64()}
		if i%2 == 0 { // keys differing only in seq
			b.at = a.at
		}
		check(a, b)
	}
}
