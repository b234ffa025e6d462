package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// Staging rounds: work items submitted at one instant ride one zero-delay
// event, a round, instead of one event each. An item joins the armed round
// only while NowSeq still names it, that is while nothing else has been
// scheduled for the instant since; otherwise it arms a fresh round. These
// tests run one script twice, once with a zero-delay event per item and
// once through rounds, and require the same execution order.

// What a unit (an event, or an item a round runs) does when it runs: each
// action reads one byte, whose value mod numDos is the kind and, for a
// later event, whose value / numDos picks the distance.
const (
	doJoin  = iota // submit an item
	doNow          // schedule a zero-delay event, as core's ipNext does
	doLater        // schedule an event at a later instant
	numDos
	doTicket = numDos // with tickets: the same as doLater, through a ticket
)

// How a script with tickets takes them: not at all (doTicket is not an
// action), as the event a ticket stands for, scheduled when taken, or as a
// ticket armed at the end of the unit's turn.
const (
	noTickets = iota
	ticketsAsEvents
	ticketsArmedLate
)

var laterDelays = [...]Time{1, 2, 7}

type roundScript struct {
	e      *Engine
	script []byte
	rounds bool // items ride rounds; else one zero-delay event each
	naive  bool // with rounds: join the armed round whatever was scheduled since
	// tickets is how doTicket is taken; late holds the tickets the unit
	// running has taken, and nowSeqMoved is set if taking or arming one
	// changed NowSeq.
	tickets     int
	late        []lateTicket
	nowSeqMoved bool
	armed       *testRound
	units       int   // units made so far; a unit's id is its index
	log         []int // unit ids in the order they ran
	items       int   // items submitted
	fired       int   // round events fired
}

type lateTicket struct {
	at  Time
	seq uint64
	id  int
}

type testRound struct {
	s     *roundScript
	seq   uint64
	items []int
}

func (r *testRound) Fire(_, _ Time) {
	s := r.s
	if s.armed == r {
		s.armed = nil
	}
	s.fired++
	for _, id := range r.items {
		s.run(id)
	}
}

func (s *roundScript) next() byte {
	if len(s.script) == 0 {
		return 0
	}
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

func (s *roundScript) newUnit() int {
	s.units++
	return s.units - 1
}

// run is a unit's turn: it logs itself, then takes up to three actions.
func (s *roundScript) run(id int) {
	s.log = append(s.log, id)
	dos := byte(numDos)
	if s.tickets != noTickets {
		dos++
	}
	for n := s.next() & 3; n > 0; n-- {
		b := s.next()
		switch b % dos {
		case doJoin:
			s.join(s.newUnit())
		case doNow:
			s.at(s.e.Now(), s.newUnit())
		case doLater:
			s.at(s.e.Now()+laterDelays[int(b/dos)%len(laterDelays)], s.newUnit())
		case doTicket:
			s.ticket(s.e.Now()+laterDelays[int(b/dos)%len(laterDelays)], s.newUnit())
		}
	}
	for _, tk := range s.late {
		ns := s.e.NowSeq()
		s.e.AtTicket(tk.at, tk.seq, fnHandler(func() { s.run(tk.id) }), 0, 0)
		s.nowSeqMoved = s.nowSeqMoved || s.e.NowSeq() != ns
	}
	s.late = s.late[:0]
}

// ticket schedules unit id at a later instant t: directly, or through a
// ticket armed at the end of the turn.
func (s *roundScript) ticket(t Time, id int) {
	if s.tickets == ticketsAsEvents {
		s.at(t, id)
		return
	}
	ns := s.e.NowSeq()
	s.late = append(s.late, lateTicket{at: t, seq: s.e.Ticket(), id: id})
	s.nowSeqMoved = s.nowSeqMoved || s.e.NowSeq() != ns
}

func (s *roundScript) at(t Time, id int) { s.e.At(t, func() { s.run(id) }) }

// join submits an item: a zero-delay event of its own, or a place in a
// round.
func (s *roundScript) join(id int) {
	s.items++
	if !s.rounds {
		s.at(s.e.Now(), id)
		return
	}
	r := s.armed
	if r == nil || !s.naive && r.seq != s.e.NowSeq() {
		r = &testRound{s: s}
		s.e.AfterEvent(0, r, 0, 0)
		r.seq = s.e.NowSeq()
		s.armed = r
	}
	r.items = append(r.items, id)
}

// runRounds runs script: its first byte seeds one to eight events, each at
// an instant the next byte picks from 0, 1 and 2, and the engine runs until
// the script is spent and the heap empty.
func runRounds(script []byte, rounds, naive bool) *roundScript {
	return runRoundsTickets(script, rounds, naive, noTickets)
}

func runRoundsTickets(script []byte, rounds, naive bool, tickets int) *roundScript {
	s := &roundScript{e: NewEngine(), script: script, rounds: rounds, naive: naive, tickets: tickets}
	for n := 1 + int(s.next())%8; n > 0; n-- {
		s.at(Time(s.next()%3), s.newUnit())
	}
	s.e.Run()
	return s
}

// ipNextScript: one event submits an item, schedules a zero-delay event
// (core's ipNext does this between two zones' staging) and submits a second
// item. One event per item runs them item, event, item; a round that takes
// the second item in regardless of the instant runs the event last.
var ipNextScript = []byte{0, 0, 3, doJoin, doNow, doJoin}

// checkRounds runs script by the reference and through exact rounds, and
// fails at the first unit the two run differently.
func checkRounds(t *testing.T, script []byte) (ref, got *roundScript) {
	t.Helper()
	ref, got = runRounds(script, false, false), runRounds(script, true, false)
	if i := firstDiff(ref.log, got.log); i >= 0 {
		t.Fatalf("unit %d-th to run: one event per item runs %v, rounds run %v", i, logAt(ref.log, i), logAt(got.log, i))
	}
	return ref, got
}

// checkTicketRounds runs script with tickets: by the reference, and through
// exact rounds with each ticket's event scheduled when taken and with the
// ticket armed later. All three must run every unit in one order, and the
// rounds must fire as many round events either way: a ticket neither moves
// NowSeq when taken nor when armed, so it never makes a join arm a fresh
// round.
func checkTicketRounds(t *testing.T, script []byte) {
	t.Helper()
	ref := runRoundsTickets(script, false, false, ticketsAsEvents)
	direct := runRoundsTickets(script, true, false, ticketsAsEvents)
	late := runRoundsTickets(script, true, false, ticketsArmedLate)
	for _, got := range []*roundScript{direct, late} {
		if i := firstDiff(ref.log, got.log); i >= 0 {
			t.Fatalf("unit %d-th to run: one event per item runs %v, rounds with tickets (%d) run %v",
				i, logAt(ref.log, i), got.tickets, logAt(got.log, i))
		}
	}
	if late.nowSeqMoved || late.fired != direct.fired {
		t.Fatalf("tickets moved NowSeq: %v; rounds fired %d with tickets armed late, %d with their events scheduled",
			late.nowSeqMoved, late.fired, direct.fired)
	}
}

func firstDiff(a, b []int) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		if logAt(a, i) != logAt(b, i) {
			return i
		}
	}
	return -1
}

// logAt is a[i], or -1 past the end.
func logAt(a []int, i int) int {
	if i < len(a) {
		return a[i]
	}
	return -1
}

// TestStagingRoundsKeepOrder: through exact rounds, every unit of a random
// script runs in the order one zero-delay event per item runs it, while the
// rounds take in many of the items. A round that ignores the instant must
// fail the same comparison, on ipNextScript and on some of the random
// scripts, or the comparison could not tell the rules apart. Each script
// also runs with tickets (checkTicketRounds). (At this seed about half the
// items join a round, and the instant-blind rule breaks most scripts.)
func TestStagingRoundsKeepOrder(t *testing.T) {
	t.Run("ipNext between two stagings", func(t *testing.T) {
		ref, got := checkRounds(t, ipNextScript)
		if want := []int{0, 1, 2, 3}; !slices.Equal(ref.log, want) || got.fired != 2 {
			t.Fatalf("reference ran %v, want %v; rounds fired %d, want 2", ref.log, want, got.fired)
		}
		if naive := runRounds(ipNextScript, true, true); slices.Equal(naive.log, ref.log) {
			t.Fatalf("a round joined regardless of the instant ran %v, the reference's order", naive.log)
		}
	})
	rng := rand.New(rand.NewSource(41))
	items, fired, naiveWrong := 0, 0, 0
	for i := 0; i < 300; i++ {
		script := make([]byte, 64+rng.Intn(256))
		rng.Read(script)
		ref, got := checkRounds(t, script)
		checkTicketRounds(t, script)
		items, fired = items+got.items, fired+got.fired
		if naive := runRounds(script, true, true); !slices.Equal(naive.log, ref.log) {
			naiveWrong++
		}
	}
	if fired*4 > items*3 {
		t.Errorf("%d rounds for %d items: too few joins to test the rule", fired, items)
	}
	if naiveWrong == 0 {
		t.Error("every script ran in order with rounds that ignore the instant: the scripts cannot tell the rules apart")
	}
	t.Logf("%d items in %d rounds; rounds that ignore the instant broke %d of 300 scripts", items, fired, naiveWrong)
}

// FuzzStagingRounds: the input is the script; exact rounds run every unit
// in the order one zero-delay event per item does.
func FuzzStagingRounds(f *testing.F) {
	f.Add(ipNextScript)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		script := make([]byte, 128)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		checkRounds(t, script)
		checkTicketRounds(t, script)
	})
}
