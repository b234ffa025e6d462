package sim

import (
	"math/rand"
	"testing"
)

// Tickets: handlers schedule events, zero-delay events and tickets, and arm
// each ticket at a later firing before its key, or never. The reference
// schedules every ticket when it is taken; the engine must fire what the
// reference pops, minus the tickets never armed, and Passed must say of
// every key, armed or not, whether the reference has reached it.

// A ticket's plan, from one script byte: arm it at the end of the handler
// that took it, one or two firings later, or never. A ticket whose key the
// reference is about to reach is armed then, whatever its plan says.
const tkNever = -1

type tkUnit struct {
	at     Time
	seq    uint64
	ticket bool
	wait   int  // ticket: firings to let pass before arming it, or tkNever
	armed  bool // ticket: handed to AtTicket
	fired  bool
}

type ticketScript struct {
	t      testing.TB
	e      *Engine
	script []byte
	ref    refHeap  // every unit, tickets from when they were taken
	units  []tkUnit // by id, in the order their seqs were issued
	open   []int    // tickets with a plan, not yet armed
	unarm  int      // tickets in ref not armed
	got    []int
	// What Passed must cover: keys up to (curAt, curSeq), and every seq up
	// to settled.
	curAt   Time
	curSeq  uint64
	settled uint64
	// nowSeq is what NowSeq must read: the last event scheduled for its own
	// instant. Neither taking a ticket nor arming one moves it.
	nowSeq uint64
	// Counts, for the tests' coverage checks.
	armedLate, armedLast, never, zeroDelay int
}

func (s *ticketScript) next() byte {
	if len(s.script) == 0 {
		return 0
	}
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

// add records a unit; its seq must be the engine's next.
func (s *ticketScript) add(u tkUnit) int {
	id := len(s.units)
	if u.seq != uint64(id+1) {
		s.t.Fatalf("unit %d has seq %d, want %d", id, u.seq, id+1)
	}
	s.units = append(s.units, u)
	s.ref.pushEv(refEvent{at: u.at, seq: u.seq, id: id})
	return id
}

func (s *ticketScript) handler(id int) Handler { return fnHandler(func() { s.fire(id) }) }

func (s *ticketScript) schedule(at Time) {
	id := s.add(tkUnit{at: at, seq: uint64(len(s.units) + 1)})
	if at == s.e.Now() {
		s.nowSeq = s.units[id].seq
	}
	s.e.AtEvent(at, s.handler(id), 0, 0)
	s.checkNowSeq("scheduling")
}

func (s *ticketScript) checkNowSeq(after string) {
	if got := s.e.NowSeq(); got != s.nowSeq {
		s.t.Fatalf("NowSeq() = %d after %s at %d, want %d", got, after, s.e.Now(), s.nowSeq)
	}
}

func (s *ticketScript) ticket(at Time, wait int) {
	id := s.add(tkUnit{at: at, seq: s.e.Ticket(), ticket: true, wait: wait})
	s.checkNowSeq("taking a ticket")
	s.unarm++
	if wait == tkNever {
		s.never++
		return
	}
	s.open = append(s.open, id)
}

func (s *ticketScript) arm(id int) {
	u := &s.units[id]
	u.armed = true
	s.unarm--
	s.e.AtTicket(u.at, u.seq, s.handler(id), 0, 0)
	s.checkNowSeq("arming a ticket")
}

// passed is what Passed must report for u.
func (s *ticketScript) passed(u *tkUnit) bool {
	return u.seq <= s.settled || u.at < s.curAt || u.at == s.curAt && u.seq <= s.curSeq
}

// checkPassed compares Passed with the reference on every unit; a unit the
// engine fired has passed and one it holds has not, whatever the formula.
func (s *ticketScript) checkPassed(where string) {
	for id := range s.units {
		u := &s.units[id]
		got := s.e.Passed(u.at, u.seq)
		want := s.passed(u)
		if pending := (!u.ticket || u.armed) && !u.fired; u.fired && !want || pending && want {
			s.t.Fatalf("%s: the reference's watermark (%d, %d) disagrees with unit %d at (%d, %d), fired %v",
				where, s.curAt, s.curSeq, id, u.at, u.seq, u.fired)
		}
		if got != want {
			s.t.Fatalf("%s: Passed(%d, %d) = %v for unit %d (ticket %v, armed %v), want %v",
				where, u.at, u.seq, got, id, u.ticket, u.armed, want)
		}
	}
}

// settle drops from the reference's top the tickets never armed, and arms
// the open ticket the reference would pop next: its last chance.
func (s *ticketScript) settle() {
	for s.ref.Len() > 0 {
		u := &s.units[s.ref[0].id]
		if !u.ticket || u.armed {
			return
		}
		if u.wait == tkNever {
			s.ref.popID()
			s.unarm--
			continue
		}
		id := s.ref[0].id
		s.dropOpen(id)
		s.armedLast++
		s.arm(id)
	}
}

func (s *ticketScript) dropOpen(id int) {
	for i, o := range s.open {
		if o == id {
			s.open = append(s.open[:i], s.open[i+1:]...)
			return
		}
	}
}

// fire is a unit's handler. Its opcode byte says how many successors it
// schedules (bits 0-1); each successor reads a byte for its kind and
// delay, and a ticket one more for its plan.
func (s *ticketScript) fire(id int) {
	u := &s.units[id]
	if want := s.ref.popID(); want != id {
		s.t.Fatalf("unit %d fired %d-th at %d, the reference has unit %d next", id, len(s.got)+1, s.e.Now(), want)
	}
	if s.e.Now() != u.at {
		s.t.Fatalf("unit %d due at %d fired with the clock at %d", id, u.at, s.e.Now())
	}
	u.fired = true
	s.got = append(s.got, id)
	s.curAt, s.curSeq = u.at, u.seq
	s.checkPassed("in a handler")
	op := s.next()
	for n := op & 3; n > 0; n-- {
		b := s.next()
		delay := scriptDelays[int(b>>2)%len(scriptDelays)]
		switch b & 3 {
		case 0, 1:
			s.schedule(s.e.Now() + delay)
		case 2:
			s.zeroDelay++
			s.schedule(s.e.Now())
		case 3:
			s.ticket(s.e.Now()+delay, int(s.next()%4)-1)
		}
	}
	// Arm the tickets whose plan is up, then whatever the reference needs.
	open := s.open[:0]
	for _, o := range s.open {
		if t := &s.units[o]; t.wait > 0 {
			t.wait--
			open = append(open, o)
			continue
		}
		s.armedLate++
		s.arm(o)
	}
	s.open = open
	s.settle()
}

// top makes one top-level call: Run, Step or RunUntil.
func (s *ticketScript) top() {
	switch b := s.next(); b % 3 {
	case 0:
		s.e.Run()
		s.settled = uint64(len(s.units)) // drained: everything issued
	case 1:
		s.e.Step()
	case 2:
		t := s.e.Now() + scriptDelays[int(b/3)%len(scriptDelays)]
		s.e.RunUntil(t)
		s.curAt, s.curSeq = t, uint64(len(s.units)) // the horizon
	}
	s.settle()
	s.checkPassed("after a top-level call")
	if got, want := s.e.Pending(), s.ref.Len()-s.unarm; got != want {
		s.t.Fatalf("Pending() = %d, the reference holds %d armed units", got, want)
	}
}

func runTickets(t testing.TB, script []byte) *ticketScript {
	s := &ticketScript{t: t, e: NewEngine(), script: script}
	for n := 1 + int(s.next())%8; n > 0; n-- {
		s.schedule(scriptDelays[int(s.next())%len(scriptDelays)])
	}
	for s.ref.Len() > 0 {
		s.top()
	}
	for id := range s.units {
		if u := &s.units[id]; u.fired != (!u.ticket || u.wait != tkNever) {
			t.Fatalf("unit %d (ticket %v, plan %d) fired: %v", id, u.ticket, u.wait, u.fired)
		}
	}
	return s
}

// TestTicketsKeepOrder: over random scripts, armed tickets fire in the
// places the reference gives them, whether armed by plan or at the last
// firing before their key, tickets never armed never fire, and Passed
// tracks the reference in handlers and after Step, a draining Run, and
// RunUntil.
func TestTicketsKeepOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var late, last, never, zero, units int
	for i := 0; i < 300; i++ {
		script := make([]byte, 64+rng.Intn(512))
		rng.Read(script)
		s := runTickets(t, script)
		late, last, never, zero, units = late+s.armedLate, last+s.armedLast, never+s.never, zero+s.zeroDelay, units+len(s.units)
	}
	if late < 100 || last < 100 || never < 100 || zero < 100 {
		t.Errorf("%d units: %d tickets armed by plan, %d at their last chance, %d never, %d zero-delay events; want 100 of each",
			units, late, last, never, zero)
	}
	t.Logf("%d units: %d tickets armed by plan, %d at their last chance, %d never armed; %d zero-delay events",
		units, late, last, never, zero)
}

// FuzzTickets: the input is the script; armed tickets fire in the
// reference's order, and Passed agrees with it throughout.
func FuzzTickets(f *testing.F) {
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
		runTickets(t, script)
	})
}

// TestPassed walks Passed through each way the engine stops.
func TestPassed(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.At(5, nop)      // (5, 1)
	e.At(5, nop)      // (5, 2)
	tk := e.Ticket()  // (5, 3), never armed
	e.At(9, nop)      // (9, 4)
	far := e.Ticket() // (20, 5), never armed
	want := func(when string, at Time, seq uint64, passed bool) {
		t.Helper()
		if got := e.Passed(at, seq); got != passed {
			t.Errorf("%s: Passed(%d, %d) = %v, want %v", when, at, seq, got, passed)
		}
	}
	want("before any event", 5, 1, false)
	want("before any event", 0, 1, false)

	e.Step()
	want("after Step", 5, 1, true)
	want("after Step", 4, 100, true)
	want("after Step", 5, 2, false)

	e.Step()
	want("after a second Step", 5, 2, true)
	want("after a second Step", 5, tk, false)

	e.RunUntil(7) // reaches its horizon
	want("after RunUntil(7)", 5, tk, true)
	want("after RunUntil(7)", 7, far, true)
	want("after RunUntil(7)", 9, 4, false)
	e.At(7, nop) // (7, 6): issued after the horizon
	want("after RunUntil(7)", 7, 6, false)

	e.Run() // drains at 9
	if e.Now() != 9 {
		t.Fatalf("the drain stopped at %d, want 9", e.Now())
	}
	want("after a draining Run", 9, 4, true)
	want("after a draining Run", 20, far, true) // never armed, and would have fired
	late := e.Ticket()
	want("after a draining Run", 30, late, false)
	e.AtTicket(30, late, fnHandler(nop), 0, 0)
	e.Run()
	want("after the last ticket fired", 30, late, true)
}

// TestAtTicketPanicsOnPassedKey: arming a ticket after its place has passed
// panics, from a handler and from the top level.
func TestAtTicketPanicsOnPassedKey(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	e := NewEngine()
	tk := e.Ticket() // (5, 1)
	e.At(5, func() {
		panics("arming (5, 1) while (5, 2) fires", func() { e.AtTicket(5, tk, fnHandler(func() {}), 0, 0) })
	})
	e.Run()
	panics("arming (5, 1) after the drain", func() { e.AtTicket(5, tk, fnHandler(func() {}), 0, 0) })
	early := e.Ticket() // (6, 3)
	e.At(8, func() {})
	e.RunUntil(7)
	panics("arming (6, 3) after RunUntil(7)", func() { e.AtTicket(6, early, fnHandler(func() {}), 0, 0) })
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want only the one at 8", e.Pending())
	}
}

// TestSubmitTicketReservesLikeSubmitEvent: a station's ticket takes the
// server and the seq the completion event would have, and, armed, fires
// where that event does.
func TestSubmitTicketReservesLikeSubmitEvent(t *testing.T) {
	var order []string
	run := func(ticketed bool) {
		e := NewEngine()
		r := NewResource(e, 1)
		r.SubmitEvent(10, fnHandler(func() { order = append(order, "a") }))
		var end Time
		var seq uint64
		if ticketed {
			end, seq = r.SubmitTicket(10)
		} else {
			end = r.SubmitEvent(10, fnHandler(func() { order = append(order, "b") }))
		}
		e.At(20, func() { order = append(order, "c") })
		if end != 20 {
			t.Fatalf("the second job ends at %d, want 20", end)
		}
		if ticketed {
			e.At(15, func() { e.AtTicket(end, seq, fnHandler(func() { order = append(order, "b") }), 0, 0) })
		}
		e.Run()
	}
	run(false)
	want := append([]string(nil), order...)
	order = nil
	run(true)
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("ticketed completion ran %v, the event %v", order, want)
	}
}
