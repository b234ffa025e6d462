package core

// Pins on the host collector (gc.go): seeded GC-heavy overwrite runs
// complete exactly as pinned, and a warm array collects a victim without
// allocating more than opening the zone that takes its place.

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/zns"
)

// collectorParity pins, per run, the hash of its completion log (virtual
// time, block and error of every Write acknowledged, then the GC events
// and migrated bytes), and its victim count to read alongside. No RAID 6
// run hot-swaps a member: under this load its rebuild and the collector
// live-lock with every member's free pool empty, a fault older than this
// test (TestCollectorRebuildLeaksSlots pins its cause). moves pins the
// known defect every run has: in-place updates admitted while a stripe's
// final parity generation waits behind an earlier one (ROADMAP 1(f)), the
// stripe moves stripeMoves lacks. The RAID 6 seed 4 run ends with a parity
// chunk wrong; the others overwrite or dissolve theirs before the end.
var collectorParity = []struct {
	raid6 bool
	seed  uint64
	mid   midRun
	hash  uint64
	gc    uint64
	moves uint64
}{
	{false, 7, midNone, 0x6765aa58df2d3aa6, 20, 3},
	{false, 2, midFail, 0x3e099cd928047292, 44, 6},
	{false, 3, midReplace, 0x9d6e70628b93073d, 49, 1},
	{true, 4, midNone, 0xff748e8a9c4bf77d, 25, 1},
	{true, 5, midFail, 0xc805808b660eb5aa, 69, 11},
}

// midRun is what befalls member 1 halfway through a pinned run.
type midRun int

const (
	midNone    midRun = iota
	midFail           // marked failed: its chunks are reconstructed from then on
	midReplace        // hot-swapped for a spare: the rebuild dissolves its stripes
)

// collectorCoverage counts what the pinned runs must reach: steps at
// which a dissolution was parked behind an in-place update (dissolve.Fire
// to come), migrations rebuilt from a failed member's stripe (through
// dissolve.reconstruct: the runs issue no reads), and victims collected
// with no live chunk in them.
type collectorCoverage struct{ parked, reconstructed, emptyVictims int }

// TestCollectorMatchesParent: the collector's control state may change
// shape, but not what it does. Eight closed-loop clients issue twice the
// array's capacity in one-block payload Writes, half into 64 hot blocks and
// half over a third of the array, so in-place updates, appends and
// collection interleave on RAID 5 and RAID 6. Halfway through, member 1 is
// marked failed in two runs and hot-swapped in one, whose rebuild dissolves
// stripes beside the collector. Every completion, the GC event count and
// the migrated bytes must hash to the value pinned at the parent commit.
func TestCollectorMatchesParent(t *testing.T) {
	var cov collectorCoverage
	for _, want := range collectorParity {
		t.Run(fmt.Sprintf("raid6=%v/seed=%d/mid=%d", want.raid6, want.seed, want.mid), func(t *testing.T) {
			hash, gc, moves := collectorScript(t, want.raid6, want.seed, want.mid, &cov, want.moves, nil)
			t.Logf("log hash %#x, %d victims, %d illegal stripe moves", hash, gc, moves)
			if hash != want.hash || gc != want.gc {
				t.Errorf("log hash %#x after %d victims, want %#x after %d", hash, gc, want.hash, want.gc)
			}
			if moves != want.moves {
				t.Errorf("%d illegal stripe moves, want the %d known (1(f) mended? then pin 0)", moves, want.moves)
			}
		})
	}
	t.Logf("coverage: %+v", cov)
	if cov.parked == 0 || cov.reconstructed == 0 || cov.emptyVictims == 0 {
		t.Errorf("the runs miss a case: %+v, want each nonzero", cov)
	}
}

// TestCollectorRebuildLeaksSlots pins the cause of ROADMAP item 22's
// live-lock, a known defect, rather than hiding it. On RAID 6 seed 6, with
// member 1 hot-swapped halfway through the collector load, the rebuild's
// migrations soon open a stripe whose first parity row finds a zone and
// whose second does not: newStripe rolls the stripe back and abandons the
// first row's slot, and slotsClaimed breaks. Unwatched, the run wedges:
// the parked migrations retry on every zone the collector frees and
// abandon a slot each time, until the zone is full of them, so no
// migration lands and the user writes at the cliff never resume. The
// rollback is also the move from claiming to free that stripeMoves lacks,
// counted in the same event, after the one 1(f) move the run makes first.
// When item 22 is mended this test fails; move the row into
// collectorParity.
func TestCollectorRebuildLeaksSlots(t *testing.T) {
	const known = 1 // 1(f)
	var leak string
	_, _, moves := collectorScript(t, true, 6, midReplace, &collectorCoverage{}, known, func(msg string) { leak = msg })
	if leak == "" {
		t.Fatal("the hot-swapped RAID 6 run abandoned no slot: item 22's cause is mended, so pin the row in collectorParity")
	}
	if !strings.Contains(leak, "handed out to no stripe") || moves != known+1 {
		t.Fatalf("the run stopped with %d illegal stripe moves, want %d, on an abandoned slot: %s", moves, known+1, leak)
	}
	t.Logf("as pinned: %s", leak)
}

// collectorScript runs one pinned workload and returns its log hash, GC
// event count and illegal stripe moves. It drives the engine by Step,
// under a watchdog that lets the known moves pass, so it can look, between
// events, for a dissolution at the head of a stripe's in-place queue. A
// non-nil leak takes the watchdog's first failure, which ends the run
// there.
func collectorScript(t *testing.T, raid6 bool, seed uint64, mid midRun, cov *collectorCoverage, known uint64, leak func(string)) (uint64, uint64, uint64) {
	var eng *sim.Engine
	var c *Core
	if raid6 {
		eng, c, _ = newCore6(t)
	} else {
		eng, c, _ = newTestCore(t, nil)
	}
	tr := obs.New(obs.Config{SampleN: 1 << 30}) // GC victim events, next to no spans
	c.SetTracer(tr)
	h := fnv.New64a()
	wd := newWatchdog(t, eng, c)
	wd.leak, wd.known = leak, known
	rng := sim.NewRNG(seed)
	span := c.Blocks() / 3
	const hotSet = 64
	total, issued := int(c.Blocks())*2, 0
	var issue func()
	issue = func() {
		if issued == total {
			return
		}
		if issued == total/2 {
			midway(t, eng, c, mid)
		}
		issued++
		lba := rng.Int63n(span)
		if rng.Intn(2) == 0 {
			lba = rng.Int63n(hotSet)
		}
		c.Write(lba, 1, blockdev.Pattern(byte(issued), c.blockSize), func(r blockdev.WriteResult) {
			fmt.Fprintf(h, "%d %d %v\n", eng.Now(), lba, r.Err)
			wd.wrote()
			issue()
		})
	}
	for i := 0; i < 8; i++ {
		issue()
	}
	for wd.step() {
		for i := range c.ipqs {
			if q := &c.ipqs[i]; q.Len() > 0 {
				if _, ok := q.Peek().(*dissolve); ok {
					cov.parked++
				}
			}
		}
	}
	if issued != total {
		if leak != nil {
			return 0, 0, c.illegalMoves // the watchdog stopped the run
		}
		t.Fatalf("%d of %d writes issued when the engine ran dry", issued, total)
	}
	fmt.Fprintf(h, "gc %d migrated %d\n", c.GCEvents(), c.gcMigrated)
	cov.reconstructed += int(c.Reconstructions())
	if tr.Dropped() != 0 {
		t.Fatalf("the trace dropped %d records", tr.Dropped())
	}
	for _, r := range tr.Records() {
		if r.Kind == obs.RecEvent && obs.EventKind(r.Sub) == obs.EvGCVictim && r.Arg0 == 0 {
			cov.emptyVictims++
		}
	}
	assertNoStrayRecords(t, c)
	return h.Sum64(), c.GCEvents(), c.illegalMoves
}

// midway does to member 1 what mid says.
func midway(t *testing.T, eng *sim.Engine, c *Core, mid midRun) {
	switch mid {
	case midFail:
		if err := c.SetDeviceFailed(1, true); err != nil {
			t.Fatal(err)
		}
	case midReplace:
		dc := devConfig()
		dc.Seed = 900
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		c.ReplaceDevicePaced(1, nvme.New(d, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 901}), RebuildControl{}, func(err error) {
			if err != nil {
				t.Errorf("rebuild: %v", err)
			}
		})
	}
}

// TestCollectorAllocFree gates the collector once warm: collecting a victim
// — choosing it, tagging channels BUSY, dissolving its stripes, reading and
// re-homing their live chunks, resetting it — draws every record and buffer
// it uses from the free lists. One client overwrites random blocks of a
// span written once before, so every block is mapped and known to the ghost
// cache, with one-block payload Writes, each run to completion, collector
// included. What the window still allocates is the zones it opens in place
// of those collected: a zone's host-side record, completion bitmap and pin
// ring (newZoneState), its reverse map's growth and its pending queue's.
func TestCollectorAllocFree(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	span := c.Blocks() / 3
	done := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
	}
	write := func(lba int64) {
		c.WriteBuf(lba, 1, c.pool.Get(c.blockSize, 0), done)
		eng.Run()
	}
	for lba := int64(0); lba < span; lba++ {
		write(lba)
	}
	rng := sim.NewRNG(11)
	for c.GCEvents() < 100 {
		write(rng.Int63n(span))
	}
	// Every zone opened comes off a free pool, and every victim goes back
	// to one before its Write returns.
	free := func() (n int) {
		for _, ds := range c.devs {
			n += len(ds.freeZones)
		}
		return n
	}
	victims, opened := c.GCEvents(), free()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 8000; i++ {
		write(rng.Int63n(span))
	}
	runtime.ReadMemStats(&m1)
	victims = c.GCEvents() - victims
	opened += int(victims) - free()
	allocs := int(m1.Mallocs - m0.Mallocs)
	t.Logf("%d victims collected, %d zones opened, %d allocations: %.1f per victim", victims, opened, allocs, float64(allocs)/float64(victims))
	if victims < 20 {
		t.Fatalf("the measured window collected %d victims, want at least 20", victims)
	}
	// The slack is for a free list or a queue elsewhere growing by a step.
	const zoneAllocs, slack = 6, 32
	if allocs > opened*zoneAllocs+slack {
		t.Fatalf("collecting %d victims and opening %d zones allocates %d times, want at most %d per zone and none per victim",
			victims, opened, allocs, zoneAllocs)
	}
	assertNoStrayRecords(t, c)
}
