package core

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/zns"
)

// TestEventsPerWrite pins the engine events one 64 KiB Write costs on an
// idle 3+1 array in performance mode, and that the zones it stages at an
// instant flush from one zero-delay staging round, not one event per zone:
// the write stages eight zones at its instant, so one event per zone made
// it 47 events. The counts do not depend on the host, so CI gates them
// (-run EventsPer).
func TestEventsPerWrite(t *testing.T) {
	eng, c, _ := newTestCore(t, func(_ *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].StoreData = false
		}
	})
	n := 64 << 10 / c.blockSize
	staging := func() int {
		zones := 0
		for _, ds := range c.devs {
			for _, zs := range ds.zones {
				if zs != nil && zs.stagePending {
					zones++
				}
			}
		}
		return zones
	}
	// Per instant, in time order: the most zones seen staged at once, and
	// the staging rounds fired.
	type instant struct {
		at             sim.Time
		staged, rounds int
	}
	var instants []instant
	note := func(rounds int) {
		if n := len(instants); n == 0 || instants[n-1].at != eng.Now() {
			instants = append(instants, instant{at: eng.Now()})
		}
		in := &instants[len(instants)-1]
		in.staged = max(in.staged, staging())
		in.rounds += rounds
	}
	acked := false
	c.Write(0, n, nil, func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		acked = true
	})
	note(0)
	events := 0
	for rounds := c.rounds; eng.Step(); rounds = c.rounds {
		events++
		note(int(c.rounds - rounds))
	}
	if !acked {
		t.Fatal("the write was never acknowledged")
	}
	for _, in := range instants {
		if want := min(in.staged, 1); in.rounds != want {
			t.Errorf("at %d ns: %d zones staged, %d staging rounds fired; want %d", in.at, in.staged, in.rounds, want)
		}
	}
	const wantEvents, wantRounds = 40, 1
	if events != wantEvents || c.rounds != wantRounds {
		t.Errorf("a %d-block write fired %d events, %d of them staging rounds; want %d and %d", n, events, c.rounds, wantEvents, wantRounds)
	}
	t.Logf("%d events; zones staged at each instant, and the rounds that flushed them:", events)
	for _, in := range instants {
		if in.staged > 0 {
			t.Logf("  %d ns: %d zones, %d rounds", in.at, in.staged, in.rounds)
		}
	}
	assertNoStrayRecords(t, c)
}

// TestEventsPerWriteAtDepth32 pins the engine events of 32 sequential
// 64 KiB Writes issued at once to the same idle array: seq-write's depth,
// where most member writes reach the end of their controller stage with
// the zone's ZRWA credit taken by the writes ahead of them. Such a write's
// controller completion would only have made it wait, and fires no event;
// the burst fired 1292 events when every one did. The count does not depend
// on the host, so CI gates it (-run EventsPer).
func TestEventsPerWriteAtDepth32(t *testing.T) {
	eng, c, _ := newTestCore(t, func(_ *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].StoreData = false
		}
	})
	const depth = 32
	n := 64 << 10 / c.blockSize
	acked := 0
	for i := 0; i < depth; i++ {
		c.Write(int64(i*n), n, nil, func(r blockdev.WriteResult) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			acked++
		})
	}
	events := 0
	for eng.Step() {
		events++
	}
	if acked != depth {
		t.Fatalf("%d of %d writes acknowledged", acked, depth)
	}
	const wantEvents = 1076
	if events != wantEvents {
		t.Errorf("%d writes of %d blocks at once fired %d events; want %d", depth, n, events, wantEvents)
	}
	t.Logf("%d events, %.1f per write", events, float64(events)/depth)
	assertNoStrayRecords(t, c)
}
