package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func devConfig() zns.Config {
	cfg := zns.TestConfig()
	cfg.MaxOpenZones = 12 // room for 4 class groups x 2 zones + slack
	return cfg
}

func newTestCore(t *testing.T, mutate func(*Config, *[]zns.Config)) (*sim.Engine, *Core, []*zns.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dcfgs := make([]zns.Config, 4)
	for i := range dcfgs {
		dcfgs[i] = devConfig()
		dcfgs[i].Seed = uint64(i)
	}
	ccfg := DefaultConfig(dcfgs[0].NumZones)
	if mutate != nil {
		mutate(&ccfg, &dcfgs)
	}
	var queues []*nvme.Queue
	var devs []*zns.Device
	for i := range dcfgs {
		d, err := zns.New(eng, dcfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond,
			Seed:          uint64(i) + 77,
		}))
	}
	c, err := New(queues, ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, devs
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, _ := zns.New(eng, devConfig())
	q := nvme.New(d, nvme.Config{})
	if _, err := New([]*nvme.Queue{q, q}, DefaultConfig(64), nil); err == nil {
		t.Fatal("accepted 2 members")
	}
	// No-ZRWA devices are rejected.
	nc := devConfig()
	nc.ZRWABlocks = 0
	d2, _ := zns.New(eng, nc)
	q2 := nvme.New(d2, nvme.Config{})
	if _, err := New([]*nvme.Queue{q2, q2, q2, q2}, DefaultConfig(64), nil); err == nil {
		t.Fatal("accepted ZRWA-less members")
	}
}

// TestRecoverRejectsWhatNewRejects: recovery builds its array through the
// same validated constructor, so every configuration New refuses, Recover
// refuses too, before scanning a single zone. The last four are the
// geometries the packed mapping tables cannot address; both refuse them by
// name (want).
func TestRecoverRejectsWhatNewRejects(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		mutate func(*Config, []zns.Config)
		want   string
	}{
		{"two members", 2, nil, ""},
		{"parity leaves one data member", 4, func(c *Config, _ []zns.Config) { c.Parity = 3 }, ""},
		{"heterogeneous members", 4, func(_ *Config, d []zns.Config) { d[2].ZRWABlocks /= 2 }, ""},
		{"members without ZRWA", 4, func(_ *Config, d []zns.Config) {
			for i := range d {
				d[i].ZRWABlocks = 0
			}
		}, ""},
		{"open-zone budget", 4, func(_ *Config, d []zns.Config) {
			for i := range d {
				d[i].MaxOpenZones = 4
			}
		}, ""},
		{"over-provisioning", 4, func(c *Config, _ []zns.Config) { c.OverProvisionZones = 1 }, ""},
		{"GC watermarks", 4, func(c *Config, _ []zns.Config) { c.GCHighWater = c.GCLowWater }, ""},
		{"255 members", maxMembers + 1, nil, "255 members, at most 254"},
		{"65 536 zones", 3, func(_ *Config, d []zns.Config) {
			for i := range d {
				d[i].NumZones = maxZones + 1
			}
		}, "65536 zones"},
		{"zones over 2^32 blocks", 3, func(_ *Config, d []zns.Config) {
			for i := range d {
				d[i].ZoneBlocks = maxZoneBlocks + 1
			}
		}, "of 4294967297 blocks"},
		{"over 2^32 - 1 logical blocks", 3, func(_ *Config, d []zns.Config) {
			for i := range d {
				d[i].ZoneBlocks = 1 << 26
			}
		}, "logical blocks, at most 4294967295"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*sim.Engine, []*nvme.Queue, Config) {
				eng := sim.NewEngine()
				dcfgs := make([]zns.Config, tc.n)
				for i := range dcfgs {
					dcfgs[i] = devConfig()
				}
				cfg := DefaultConfig(dcfgs[0].NumZones)
				if tc.mutate != nil {
					tc.mutate(&cfg, dcfgs)
				}
				var queues []*nvme.Queue
				for i := range dcfgs {
					d, err := zns.New(eng, dcfgs[i])
					if err != nil {
						t.Fatal(err)
					}
					queues = append(queues, nvme.New(d, nvme.Config{Seed: uint64(i)}))
				}
				return eng, queues, cfg
			}
			_, queues, cfg := build()
			if _, err := New(queues, cfg, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New: %v, want a rejection naming %q", err, tc.want)
			}
			eng, queues, cfg := build()
			called := false
			var rc *Core
			var rerr error
			Recover(queues, cfg, nil, func(c *Core, err error) { called, rc, rerr = true, c, err })
			eng.Run()
			if !called || rerr == nil || rc != nil || !strings.Contains(rerr.Error(), tc.want) {
				t.Fatalf("Recover: called=%v core=%v err=%v, want a rejection naming %q", called, rc != nil, rerr, tc.want)
			}
		})
	}
}

func TestWriteReadRoundTripSequential(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	payload := blockdev.Pattern(1, 48*4096)
	if r := blockdev.WriteSync(eng, c, 0, 48, payload); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := blockdev.ReadSync(eng, c, 0, 48)
	if r.Err != nil || !bytes.Equal(r.Data, payload) {
		t.Fatalf("round trip mismatch err=%v", r.Err)
	}
}

func TestWriteReadRoundTripRandom(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	lbas := []int64{500, 3, 999, 250, 0, 77}
	for i, lba := range lbas {
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(i+1), 4096)); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for i, lba := range lbas {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if !bytes.Equal(r.Data, blockdev.Pattern(byte(i+1), 4096)) {
			t.Fatalf("lba %d mismatch", lba)
		}
	}
}

func TestOverwriteVisibility(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	for i := 0; i < 8; i++ {
		mustWrite(t, eng, c, 42, 1, blockdev.Pattern(byte(i), 4096))
	}
	r := blockdev.ReadSync(eng, c, 42, 1)
	if !bytes.Equal(r.Data, blockdev.Pattern(7, 4096)) {
		t.Fatal("overwrite not visible")
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	r := blockdev.ReadSync(eng, c, 123, 4)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("unwritten not zero")
		}
	}
}

// Out-of-range writes and reads fail with ErrOutOfRange a microsecond later,
// never inside the call; with a nil done they schedule nothing.
func TestOutOfRange(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	n := c.Blocks()
	for _, r := range []struct {
		lba    int64
		blocks int
	}{{n, 1}, {n - 1, 2}, {-1, 1}, {0, 0}, {0, -1}} {
		var w blockdev.WriteResult
		var rd blockdev.ReadResult
		wrote, read := false, false
		c.Write(r.lba, r.blocks, nil, func(res blockdev.WriteResult) { w, wrote = res, true })
		c.Read(r.lba, r.blocks, func(res blockdev.ReadResult) { rd, read = res, true })
		if wrote || read {
			t.Fatalf("%+v: answered inside the call", r)
		}
		eng.Run()
		if !wrote || !errors.Is(w.Err, blockdev.ErrOutOfRange) || w.Latency != sim.Microsecond {
			t.Fatalf("%+v: write answered %v with %+v", r, wrote, w)
		}
		if !read || !errors.Is(rd.Err, blockdev.ErrOutOfRange) || rd.Latency != sim.Microsecond || rd.Data != nil {
			t.Fatalf("%+v: read answered %v with %+v", r, read, rd)
		}
		c.Write(r.lba, r.blocks, nil, nil)
		c.Read(r.lba, r.blocks, nil)
		if p := eng.Pending(); p != 0 {
			t.Fatalf("%+v: a nil done left %d events", r, p)
		}
	}
}

func TestInPlaceAbsorption(t *testing.T) {
	// A hot block rewritten many times must be absorbed in ZRWA: device
	// flash programs stay far below issued writes.
	eng, c, devs := newTestCore(t, nil)
	for i := 0; i < 100; i++ {
		mustWrite(t, eng, c, 7, 1, blockdev.Pattern(byte(i), 4096))
	}
	if c.InPlaceHits() == 0 {
		t.Fatal("no in-place updates")
	}
	var absorbed uint64
	for _, d := range devs {
		absorbed += d.Stats().AbsorbedBytes
	}
	if absorbed == 0 {
		t.Fatal("device absorbed nothing")
	}
	r := blockdev.ReadSync(eng, c, 7, 1)
	if !bytes.Equal(r.Data, blockdev.Pattern(99, 4096)) {
		t.Fatal("hot block content wrong")
	}
}

func TestPartialParityAbsorbedInZRWA(t *testing.T) {
	// Sequential writes form stripes; every chunk updates the partial
	// parity in place. Parity flash programs must be close to one block
	// per stripe, not one per chunk.
	eng, c, devs := newTestCore(t, nil)
	const blocks = 300
	for lba := int64(0); lba < blocks; lba += 4 {
		mustWrite(t, eng, c, lba, 4, blockdev.Pattern(byte(lba), 4*4096))
	}
	eng.Run()
	var parityFlash, parityAbsorbed uint64
	for _, d := range devs {
		parityFlash += d.Stats().ProgrammedByTag(zns.TagParity)
	}
	_ = parityAbsorbed
	// 300 chunks = 100 stripes; parity writes issued ~300, flash programs
	// should be near 100 blocks once zones flush (some still buffered).
	if parityFlash > 150*4096 {
		t.Fatalf("parity flash %d bytes — partial parities not absorbed", parityFlash)
	}
	// Parity writes issued: at least one per stripe (coalescing may merge
	// same-stripe updates that were in flight together).
	if c.parityBytes < 100*4096 {
		t.Fatalf("parity writes issued = %d bytes, want >= 100 blocks", c.parityBytes)
	}
}

func TestStripeParityConsistency(t *testing.T) {
	// After sealing, parity slot content must equal XOR of the stripe's
	// chunk slot contents (read back through the engine's own tables).
	eng, c, _ := newTestCore(t, nil)
	payload := blockdev.Pattern(3, 3*4096)
	mustWrite(t, eng, c, 0, 3, payload) // exactly one stripe (nData=3)
	eng.Run()
	var se *smtEntry
	c.smt.Range(func(_ int64, e *smtEntry) bool {
		if e.state == stripeSealed && e.valid == 3 {
			se = e
		}
		return se == nil
	})
	if se == nil {
		t.Fatal("no sealed stripe found")
	}
	want := make([]byte, 4096)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4096; j++ {
			want[j] ^= payload[i*4096+j]
		}
	}
	var got []byte
	pp := se.parity()[0]
	c.devs[pp.dev].q.ReadInto(int(pp.zone), int64(pp.off), 1, nil, false, func(r zns.ReadResult) { got = r.Data })
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("sealed parity != XOR of chunks")
	}
}

func TestSlidingWindowSurvivesReordering(t *testing.T) {
	// Deep async burst through a jittery driver queue: the window
	// scheduler must produce zero write failures.
	eng, c, _ := newTestCore(t, nil)
	failures, completions := 0, 0
	for i := 0; i < 400; i++ {
		c.Write(int64(i%150), 1, nil, func(r blockdev.WriteResult) {
			completions++
			if r.Err != nil {
				failures++
			}
		})
	}
	eng.Run()
	if completions != 400 {
		t.Fatalf("completions = %d", completions)
	}
	if failures != 0 {
		t.Fatalf("%d write failures — window scheduler broken", failures)
	}
}

// TestZoneFinishWaitsForInPlaceUpdate: a payload in-place update pins its
// slots, reads the old data and parity, and only then writes. When the
// zone's last append completes during those reads, the zone must not be
// FINISHed under the update (which would then land on a full zone and fail
// a fault-free write with "zone is full"); it finishes once the update has
// landed.
func TestZoneFinishWaitsForInPlaceUpdate(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	bs := c.blockSize
	// Fresh blocks, a stripe at a time, until a group zone is at most four
	// slots short of full with everything landed.
	var zs *zoneState
	lba := int64(0)
	for zs == nil {
		if r := blockdev.WriteSync(eng, c, lba, c.nData, blockdev.Pattern(byte(lba), c.nData*bs)); r.Err != nil {
			t.Fatal(r.Err)
		}
		lba += int64(c.nData)
		for _, ds := range c.devs {
			for _, group := range ds.groups {
				for _, g := range group {
					if left := c.zoneBlocks - g.wpAlloc; left > 0 && left <= 4 {
						zs = g
					}
				}
			}
		}
	}
	// The update's target: a block of a sealed stripe in the zone's last
	// window, so the appends that fill the zone stay inside its pin's reach.
	target := int64(-1)
	for lbn := int64(0); lbn < lba && target < 0; lbn++ {
		e := c.bmt.Get(lbn)
		if at := e.loc(); int(at.dev) == zs.ds.id && int(at.zone) == zs.id && int64(at.off) >= c.zoneBlocks-c.zrwaBlocks {
			if se := c.smt.Get(int64(e.sn)); se != nil && se.state == stripeSealed {
				target = lbn
			}
		}
	}
	if target < 0 {
		t.Fatal("no block of a sealed stripe in the zone's last window")
	}
	// Slow reads: the update's old-data and old-parity reads are still out
	// when the appends below have long completed.
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Latency, Dev: -1, Op: fault.Read, Delay: 200 * sim.Microsecond},
	}}, 1)
	want := blockdev.Pattern(0xA5, bs)
	var upd *blockdev.WriteResult
	hits := c.InPlaceHits()
	c.Write(target, 1, want, func(r blockdev.WriteResult) { upd = &r })
	if c.InPlaceHits() != hits+1 {
		t.Fatal("the update did not take the in-place path")
	}
	for i := 0; zs.wpAlloc < c.zoneBlocks; i++ {
		if i == 64 {
			t.Fatal("fresh writes did not fill the zone")
		}
		c.Write(lba, 1, blockdev.Pattern(byte(lba), bs), func(r blockdev.WriteResult) {
			if r.Err != nil {
				t.Errorf("fresh write: %v", r.Err)
			}
		})
		lba++
	}
	for zs.inflight > 0 || zs.pendq.Len() > 0 || zs.stage != nil {
		if !eng.Step() {
			t.Fatal("engine drained with the zone's appends outstanding")
		}
	}
	if upd != nil {
		t.Fatal("the update landed before the zone's last append: the race under test did not happen")
	}
	if zs.sealedF {
		t.Fatal("zone finished while an in-place update was still reading its old content")
	}
	eng.Run()
	if upd == nil || upd.Err != nil {
		t.Fatalf("in-place update during the zone's last appends: %+v", upd)
	}
	if !zs.sealedF {
		t.Fatal("zone not finished after the update landed")
	}
	if r := blockdev.ReadSync(eng, c, target, 1); r.Err != nil || !bytes.Equal(r.Data, want) {
		t.Fatalf("updated block reads back wrong: %v", r.Err)
	}
}

func TestSelectorClassifiesHotBlocks(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	// Rewrite a small hot set with short reuse distance; the ghost cache
	// must promote and the selector place them as ZRWA class.
	for round := 0; round < 8; round++ {
		for lba := int64(0); lba < 4; lba++ {
			mustWrite(t, eng, c, lba, 1, nil)
		}
	}
	hp := 0
	for lba := int64(0); lba < 4; lba++ {
		if c.ghost.Level(uint64(lba)) == 3 { // LevelHP
			hp++
		}
	}
	if hp == 0 {
		t.Fatal("no hot block reached HP")
	}
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	span := c.Blocks() / 3
	rng := sim.NewRNG(5)
	written := make(map[int64]bool)
	for i := 0; i < int(span)*4; i++ {
		lba := rng.Int63n(span)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(lba), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", lba, r.Err)
		}
		written[lba] = true
	}
	eng.Run()
	if c.GCEvents() == 0 {
		t.Fatal("GC never ran")
	}
	for lba := int64(0); lba < span; lba += 13 {
		if !written[lba] {
			continue
		}
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil {
			t.Fatalf("read %d: %v", lba, r.Err)
		}
		if !bytes.Equal(r.Data, blockdev.Pattern(byte(lba), 4096)) {
			t.Fatalf("data corrupted at %d", lba)
		}
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	payload := blockdev.Pattern(9, 12*4096)
	mustWrite(t, eng, c, 0, 12, payload)
	eng.Run()
	for dev := 0; dev < 4; dev++ {
		if err := c.SetDeviceFailed(dev, true); err != nil {
			t.Fatal(err)
		}
		r := blockdev.ReadSync(eng, c, 0, 12)
		if r.Err != nil {
			t.Fatalf("degraded read with dev %d failed: %v", dev, r.Err)
		}
		if !bytes.Equal(r.Data, payload) {
			t.Fatalf("degraded reconstruction wrong with dev %d down", dev)
		}
		c.SetDeviceFailed(dev, false)
	}
}

func TestDegradedReadAfterOverwrites(t *testing.T) {
	// Stale chunks feed parity: reconstruction must survive overwrites.
	eng, c, _ := newTestCore(t, nil)
	for i := 0; i < 6; i++ {
		mustWrite(t, eng, c, int64(i), 1, blockdev.Pattern(byte(i), 4096))
	}
	// Overwrite some blocks (their old slots become stale but remain).
	mustWrite(t, eng, c, 1, 1, blockdev.Pattern(101, 4096))
	mustWrite(t, eng, c, 3, 1, blockdev.Pattern(103, 4096))
	eng.Run()
	for dev := 0; dev < 4; dev++ {
		c.SetDeviceFailed(dev, true)
		for _, check := range []struct {
			lba  int64
			seed byte
		}{{0, 0}, {1, 101}, {2, 2}, {3, 103}, {4, 4}, {5, 5}} {
			r := blockdev.ReadSync(eng, c, check.lba, 1)
			if r.Err != nil {
				t.Fatalf("dev %d down, lba %d: %v", dev, check.lba, r.Err)
			}
			if !bytes.Equal(r.Data, blockdev.Pattern(check.seed, 4096)) {
				t.Fatalf("dev %d down, lba %d wrong content", dev, check.lba)
			}
		}
		c.SetDeviceFailed(dev, false)
	}
}

func TestTrim(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	mustWrite(t, eng, c, 10, 4, blockdev.Pattern(1, 4*4096))
	c.Trim(10, 4)
	r := blockdev.ReadSync(eng, c, 10, 4)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("trimmed data still readable")
		}
	}
}

func TestChannelDetectionCorrectsShuffledZones(t *testing.T) {
	eng, c, _ := newTestCore(t, func(cfg *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].ShuffleFraction = 0.5
			(*dcfgs)[i].Seed = uint64(i) + 11
		}
	})
	// Churn enough to force repeated GC cycles with user traffic racing
	// them: spikes on mispredicted zones should cast votes.
	span := c.Blocks() / 3
	rng := sim.NewRNG(9)
	outstanding := 0
	for i := 0; i < int(span)*6; i++ {
		outstanding++
		c.Write(rng.Int63n(span), 1, nil, func(blockdev.WriteResult) { outstanding-- })
		if i%8 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if outstanding != 0 {
		t.Fatalf("%d writes hung", outstanding)
	}
	if c.GCEvents() == 0 {
		t.Fatal("setup failed to trigger GC")
	}
	if c.DetectCorrections() == 0 {
		t.Fatal("vote-based detector never corrected a shuffled zone")
	}
}

func TestRecoveryRestoresData(t *testing.T) {
	eng, c, devs := newTestCore(t, nil)
	rng := sim.NewRNG(31)
	want := map[int64]byte{}
	for i := 0; i < 600; i++ {
		lba := rng.Int63n(c.Blocks() / 4)
		seed := byte(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(seed, 4096)); r.Err == nil {
			want[lba] = seed
		}
	}
	eng.Run()
	// Crash: discard the host engine, rebuild from the devices' OOB.
	var queues []*nvme.Queue
	for i, d := range devs {
		queues = append(queues, nvme.New(d, nvme.Config{Seed: uint64(i) + 500}))
	}
	var rc *Core
	var rerr error
	Recover(queues, DefaultConfig(devConfig().NumZones), nil, func(nc *Core, err error) {
		rc, rerr = nc, err
	})
	eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if rc == nil {
		t.Fatal("recovery did not complete")
	}
	assertTables(t, rc)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, rc, lba, 1)
		if r.Err != nil {
			t.Fatalf("post-recovery read %d: %v", lba, r.Err)
		}
		if !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("post-recovery content wrong at %d", lba)
		}
	}
	// The recovered array must accept new writes.
	if r := blockdev.WriteSync(eng, rc, 0, 4, blockdev.Pattern(200, 4*4096)); r.Err != nil {
		t.Fatalf("post-recovery write: %v", r.Err)
	}
	r := blockdev.ReadSync(eng, rc, 0, 4)
	if !bytes.Equal(r.Data, blockdev.Pattern(200, 4*4096)) {
		t.Fatal("post-recovery write not visible")
	}
	assertTables(t, rc)
}

func TestSelectorAblationIncreasesFlashWrites(t *testing.T) {
	// With the selector off, hot chunks mix with cold ones and fewer
	// updates are absorbed: flash programs grow (Fig. 14's
	// BIZAw/oSelector bar).
	run := func(selector bool) uint64 {
		eng, c, devs := newTestCore(t, func(cfg *Config, _ *[]zns.Config) {
			cfg.EnableSelector = selector
		})
		rng := sim.NewRNG(17)
		hotSpan := int64(32)
		coldSpan := c.Blocks() / 3
		for i := 0; i < 6000; i++ {
			var lba int64
			if i%2 == 0 {
				lba = rng.Int63n(hotSpan) // hot half: short reuse distance
			} else {
				lba = hotSpan + rng.Int63n(coldSpan)
			}
			mustWrite(t, eng, c, lba, 1, nil)
		}
		eng.Run()
		var programmed uint64
		for _, d := range devs {
			programmed += d.Stats().TotalProgrammed()
		}
		return programmed
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Fatalf("selector did not reduce flash writes: with=%d without=%d", with, without)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		eng, c, _ := newTestCore(t, nil)
		rng := sim.NewRNG(23)
		for i := 0; i < 2000; i++ {
			mustWrite(t, eng, c, rng.Int63n(c.Blocks()/4), 1, nil)
		}
		eng.Run()
		return c.userBytes, c.parityBytes, c.GCEvents()
	}
	u1, p1, g1 := run()
	u2, p2, g2 := run()
	if u1 != u2 || p1 != p2 || g1 != g2 {
		t.Fatal("replay diverged")
	}
}

// mustWrite is blockdev.WriteSync for a write whose result the test does
// not read: any error fails the test, a hang (blockdev.ErrIncomplete)
// included.
func mustWrite(t testing.TB, eng *sim.Engine, d blockdev.Device, lba int64, n int, data []byte) {
	t.Helper()
	if r := blockdev.WriteSync(eng, d, lba, n, data); r.Err != nil {
		t.Fatalf("write %d+%d: %v", lba, n, r.Err)
	}
}
