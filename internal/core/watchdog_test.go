package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"biza/internal/sim"
)

// watchdog turns a live-lock into a test failure. A test drives its engine
// through step instead of Engine.Step and calls wrote from every user
// write's completion. Once user chunks have stayed parked — at a member's
// free-zone cliff (stalled) or for an open slot (allocWaiters) — for
// watchBudget of virtual time with no user write completing, step fails
// the test. The message names the event index and, per member, the free
// pool, the reserve the cliff keeps for the collector (stallFloor) and the
// parked chunks. After every event step also checks slotsClaimed, the
// live-lock's cause stated as an invariant, and that the array has made no
// stripe state move the table lacks beyond the known ones. A watched run
// fires the same events as an unwatched one.
type watchdog struct {
	t      *testing.T
	eng    *sim.Engine
	c      *Core
	events int      // events fired through step
	since  sim.Time // when the current wait began; -1 while nothing is parked

	// zones holds, per member, the zone in each class-group slot at the
	// last check and how far it had handed out slots then.
	zones [][]watchedZone
	// leak, when set, takes the first slotsClaimed failure or illegal move
	// instead of the test, and step stops there (a known-defect test's way
	// in).
	leak func(msg string)
	// known is how many illegal stripe moves a pinned run makes (ROADMAP
	// 1(f)); step fails on the next.
	known uint64
}

// watchedZone is a zone slotsClaimed has seen and its wpAlloc at the time.
type watchedZone struct {
	zs *zoneState
	wp int64
}

// watchBudget is the virtual time user chunks may stay parked with no user
// write completing. The pinned collector runs park them for about 6 ms at
// most, and the model sweep's seeds not at all; the RAID 6
// collector/rebuild live-lock parks them for ever.
const watchBudget = 100 * sim.Millisecond

func newWatchdog(t *testing.T, eng *sim.Engine, c *Core) *watchdog {
	return &watchdog{t: t, eng: eng, c: c, since: -1,
		zones: make([][]watchedZone, len(c.devs))}
}

// wrote records a user write's completion: the wait, if any, starts over.
func (w *watchdog) wrote() { w.since = -1 }

// step fires one event, as Engine.Step does, and reports whether one fired.
func (w *watchdog) step() bool {
	if !w.eng.Step() {
		return false
	}
	w.events++
	var moves error
	if n := w.c.illegalMoves; n > w.known {
		moves = fmt.Errorf("%d illegal stripe moves, %d known", n, w.known)
	}
	if err := errors.Join(moves, w.slotsClaimed()); err != nil {
		msg := fmt.Sprintf("after event %d at %d ns: %v\n%s", w.events, w.eng.Now(), err, w.state())
		if w.leak == nil {
			w.t.Fatal(msg)
		}
		w.leak(msg)
		return false
	}
	if !w.parked() {
		w.since = -1
		return true
	}
	now := w.eng.Now()
	if w.since < 0 {
		w.since = now
	}
	if now-w.since > watchBudget {
		w.t.Fatalf("after event %d at %d ns: user chunks parked since %d ns with no user write completing\n%s",
			w.events, now, w.since, w.state())
	}
	return true
}

// parked reports whether any user chunk waits on a member's cliff or for
// an open slot.
func (w *watchdog) parked() bool {
	if len(w.c.allocWaiters) > 0 {
		return true
	}
	for _, ds := range w.c.devs {
		if ds.stalled.Len() > 0 {
			return true
		}
	}
	return false
}

// state is the failure message's body: where every member stands.
func (w *watchdog) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "allocWaiters %d, GC events %d\n", len(w.c.allocWaiters), w.c.GCEvents())
	for _, ds := range w.c.devs {
		fmt.Fprintf(&b, "member %d: free pool %d, reserve %d, stalled %d, collecting %v\n",
			ds.id, len(ds.freeZones), w.c.stallFloor(), ds.stalled.Len(), ds.gcRunning)
	}
	return b.String()
}

// slotsClaimed is the invariant whose breach wedges the RAID 6 collector
// beside a hot-swap rebuild (ROADMAP item 22): every slot a zone hands out
// belongs to a stripe — as a data chunk or a parity row — when the event
// that handed it out ends. A slot is claimed in the same call that takes
// it and given up only by releaseStripe, after its write completed, so an
// unclaimed slot below a zone's wpAlloc is one taken and abandoned: it is
// never written, never counted valid, and the zone fills without holding
// anything. newStripe does this when it takes a stripe's first parity
// rows and finds no zone for a later one: the rollback clears the rows'
// claims but not the slots. Only RAID 6 has a later row.
//
// Slots are handed out only from the zones of the members' class groups,
// and a zone that fills is replaced in its group slot, so the check walks
// the group slots and, where a slot's zone changed during the event, the
// zone that left as well as the one that came. (A zone that came and left
// within one event goes unseen.)
func (w *watchdog) slotsClaimed() error {
	for d, ds := range w.c.devs {
		seen := w.zones[d]
		p := 0
		for class := range ds.groups {
			for _, zs := range ds.groups[class] {
				if p == len(seen) {
					seen = append(seen, watchedZone{})
				}
				old := &seen[p]
				p++
				if old.zs != zs {
					if err := unclaimed(d, old.zs, old.wp); err != nil {
						return err
					}
					*old = watchedZone{zs: zs}
				}
				if err := unclaimed(d, zs, old.wp); err != nil {
					return err
				}
				if zs != nil {
					old.wp = zs.wpAlloc
				}
			}
		}
		w.zones[d] = seen
	}
	return nil
}

// unclaimed reports the first slot of zs from off up to its wpAlloc that
// belongs to no stripe.
func unclaimed(dev int, zs *zoneState, off int64) error {
	if zs == nil {
		return nil
	}
	for ; off < zs.wpAlloc; off++ {
		if zs.stripeAt(off) < 0 && zs.parityAt(off) < 0 {
			return fmt.Errorf("member %d zone %d: slot %d handed out to no stripe", dev, zs.id, off)
		}
	}
	return nil
}
