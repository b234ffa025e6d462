package core

// Extended randomized sweep: the model test's logic across many seeds.
// Kept cheap in CI (6 seeds); FuzzModelSweep explores more.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func TestModelSeedSweep(t *testing.T) {
	seeds := []uint64{101, 202, 303, 404, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			runModelSweep(t, seed, nil)
		})
	}
}

// TestModelSweepRacesFinalParity pins ROADMAP 1(f), a known defect, on the
// seeds whose sweep finds a parity chunk wrong: each admits an in-place
// update while the stripe's final parity generation waits behind an
// earlier one, a move stripeMoves lacks, and the sweep stops there (seed
// 1's stripe 33 would read wrong after event 806). When 1(f) is mended this
// test fails; move the seeds into TestModelSeedSweep.
func TestModelSweepRacesFinalParity(t *testing.T) {
	for _, seed := range []uint64{1, 222, 368, 372, 425, 1319} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			var race string
			runModelSweep(t, seed, func(msg string) { race = msg })
			if !strings.Contains(race, "illegal stripe moves") {
				t.Fatalf("the sweep made no illegal stripe move (1(f) mended? then move the seed into TestModelSeedSweep): %q", race)
			}
			t.Logf("as pinned: %s", race)
		})
	}
}

// runModelSweep drives one seed's sweep. A non-nil leak takes the
// watchdog's first failure, an illegal stripe move or an abandoned slot,
// and the sweep ends there.
func runModelSweep(t *testing.T, seed uint64, leak func(string)) {
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	for i := 0; i < 4; i++ {
		dc := devConfig()
		dc.NumZones = 40
		dc.Seed = seed + uint64(i)
		dc.ShuffleFraction = 0.3 // aged mapping in the mix
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 8 * sim.Microsecond, Seed: seed*3 + uint64(i),
		}))
	}
	c, err := New(queues, DefaultConfig(40), nil)
	if err != nil {
		t.Fatal(err)
	}
	// drain runs the engine dry an event at a time under a watchdog, which
	// counts them so that a failure names the event it follows; the closing
	// Run settles the tickets never armed, as a plain Run does. It reports
	// false when the watchdog handed a failure to leak instead.
	wd := newWatchdog(t, eng, c)
	stopped := false
	if leak != nil {
		wd.leak = func(msg string) { leak(msg); stopped = true }
	}
	drain := func() bool {
		for wd.step() {
		}
		if stopped {
			return false
		}
		eng.Run()
		return true
	}
	rng := sim.NewRNG(seed * 7)
	span := c.Blocks() / 4
	version := map[int64]int{}
	bs := c.blockSize
	outstanding := 0
	// Mixed async phase: overlapping writes to distinct blocks plus trims.
	for i := 0; i < 2500; i++ {
		switch rng.Intn(8) {
		case 7:
			n := 1 + rng.Intn(3)
			lba := rng.Int63n(span - int64(n))
			c.Trim(lba, n)
			for j := 0; j < n; j++ {
				delete(version, lba+int64(j))
			}
		default:
			lba := rng.Int63n(span)
			if rng.Intn(2) == 0 {
				lba = rng.Int63n(96)
			}
			v := version[lba] + 1
			version[lba] = v
			outstanding++
			c.Write(lba, 1, modelPattern(lba, v, bs), func(r blockdev.WriteResult) {
				if r.Err != nil {
					t.Errorf("write: %v", r.Err)
				}
				wd.wrote()
				outstanding--
			})
			// Interleave partial drains to vary schedules per seed.
			if rng.Intn(4) == 0 {
				if !drain() {
					return
				}
				assertTables(t, c)
				assertStripes(t, c, wd.events)
			}
		}
	}
	if !drain() {
		return
	}
	if outstanding != 0 {
		t.Fatalf("seed %d: %d writes hung", seed, outstanding)
	}
	assertTables(t, c)
	assertStripes(t, c, wd.events)
	// Note: concurrent same-block writes are racy by API contract, but
	// this sweep only writes each version once before a possible drain, so
	// the LAST version observed must win after full drain for blocks whose
	// writes were not concurrent. Verify the hot head conservatively via a
	// final synchronous rewrite.
	for lba := int64(0); lba < 96; lba += 7 {
		v := version[lba] + 1
		version[lba] = v
		ok := false
		c.Write(lba, 1, modelPattern(lba, v, bs), func(r blockdev.WriteResult) { ok = r.Err == nil; wd.wrote() })
		if !drain() {
			return
		}
		if !ok {
			t.Fatalf("final write %d failed", lba)
		}
		assertTables(t, c)
		assertStripes(t, c, wd.events)
	}
	for lba := int64(0); lba < 96; lba += 7 {
		var got []byte
		c.Read(lba, 1, func(r blockdev.ReadResult) { got = r.Data })
		if !drain() {
			return
		}
		assertStripes(t, c, wd.events)
		if !bytes.Equal(got, modelPattern(lba, version[lba], bs)) {
			t.Fatalf("seed %d: lba %d wrong content", seed, lba)
		}
	}
	// Degraded sweep on a sample.
	for dev := 0; dev < 4; dev++ {
		c.SetDeviceFailed(dev, true)
		for lba := int64(0); lba < 96; lba += 13 {
			var rerr error
			var got []byte
			c.Read(lba, 1, func(r blockdev.ReadResult) { got, rerr = r.Data, r.Err })
			if !drain() {
				return
			}
			if rerr != nil {
				t.Fatalf("seed %d dev %d lba %d: %v", seed, dev, lba, rerr)
			}
			assertTables(t, c)
			assertStripes(t, c, wd.events)
			if v, okv := version[lba]; okv && lba%7 == 0 {
				if !bytes.Equal(got, modelPattern(lba, v, bs)) {
					t.Fatalf("seed %d dev %d lba %d: degraded content wrong", seed, dev, lba)
				}
			}
		}
		c.SetDeviceFailed(dev, false)
	}
	assertNoStrayRecords(t, c)
}

// assertStripes fails the test at the first parity chunk VerifyStripes
// finds wrong on the drained engine, which has fired events events.
func assertStripes(t *testing.T, c *Core, events int) {
	t.Helper()
	c.VerifyStripes(func(m StripeMismatch) {
		t.Fatalf("after event %d: stripe %d: parity slot %d differs from its chunks' at byte %d", events, m.Stripe, m.Slot, m.Byte)
	})
}
