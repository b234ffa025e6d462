package core

import (
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
// parked chunks. A watched run fires the same events as an unwatched one.
type watchdog struct {
	t      *testing.T
	eng    *sim.Engine
	c      *Core
	events int      // events fired through step
	since  sim.Time // when the current wait began; -1 while nothing is parked
}

// watchBudget is the virtual time user chunks may stay parked with no user
// write completing. The pinned collector runs park them for about 6 ms at
// most, and the model sweep's seeds not at all; the RAID 6
// collector/rebuild live-lock parks them for ever.
const watchBudget = 100 * sim.Millisecond

func newWatchdog(t *testing.T, eng *sim.Engine, c *Core) *watchdog {
	return &watchdog{t: t, eng: eng, c: c, since: -1}
}

// wrote records a user write's completion: the wait, if any, starts over.
func (w *watchdog) wrote() { w.since = -1 }

// step fires one event, as Engine.Step does, and reports whether one fired.
func (w *watchdog) step() bool {
	if !w.eng.Step() {
		return false
	}
	w.events++
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
