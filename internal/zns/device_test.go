package zns

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"biza/internal/flash"
	"biza/internal/pagetab"
	"biza/internal/sim"
)

func newTestDev(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func block(seed byte, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// checkBuffered panics unless every zone's write buffer is where the
// device's tables assume it is: every entry a live slot of a known tag, a
// dirty block (at or above the write pointer) inside the zone's ZRWA
// window, and a payload record at each buffered block and nowhere else
// when the device has StoreData, no payload table without it.
func checkBuffered(d *Device) {
	for _, zn := range d.zones {
		zn.buffered.Range(func(b int64, s slot) bool {
			switch {
			case !s.live() || s.tag() >= numTags:
				panic(fmt.Sprintf("zone %d block %d: slot %#x is not a buffered block", zn.idx, b, s))
			case b >= zn.wp && (!zn.zrwa || b >= zn.wp+d.cfg.ZRWABlocks):
				panic(fmt.Sprintf("zone %d (zrwa %v): dirty block %d outside [%d, %d)",
					zn.idx, zn.zrwa, b, zn.wp, zn.wp+d.cfg.ZRWABlocks))
			}
			return true
		})
		// Credit never exceeds the window, except by slots a program
		// released before the write that first buffered them took its
		// credit: such a write still waits in the credit FIFO.
		pending := int64(0)
		for op := zn.head; op != nil; op = op.next {
			pending += op.need
		}
		if zn.zrwa && zn.credit > d.cfg.ZRWABlocks+pending {
			panic(fmt.Sprintf("zone %d: credit %d exceeds the %d-block window and the FIFO's %d pending blocks",
				zn.idx, zn.credit, d.cfg.ZRWABlocks, pending))
		}
		if (zn.payloads != nil) != d.cfg.StoreData {
			panic(fmt.Sprintf("zone %d: payload table %v with StoreData %v", zn.idx, zn.payloads != nil, d.cfg.StoreData))
		}
		if zn.payloads == nil {
			continue
		}
		zn.payloads.Range(func(b int64, _ payload) bool {
			if !zn.buffered.Get(b).live() {
				panic(fmt.Sprintf("zone %d: payload record at unbuffered block %d", zn.idx, b))
			}
			return true
		})
		if zn.payloads.Len() != zn.buffered.Len() {
			panic(fmt.Sprintf("zone %d: %d payload records for %d buffered blocks", zn.idx, zn.payloads.Len(), zn.buffered.Len()))
		}
	}
}

// runChecked drains the engine, checking the buffer invariant after every
// event. The sync helpers run through it, so every scenario in this file
// is checked at every step.
func runChecked(eng *sim.Engine, d *Device) {
	checkBuffered(d)
	for eng.Step() {
		checkBuffered(d)
	}
}

// writeSync drives a write to completion and returns its result.
func writeSync(eng *sim.Engine, d *Device, z int, lba int64, n int, data []byte, tag WriteTag) WriteResult {
	var res WriteResult
	got := false
	d.Write(z, lba, n, data, nil, tag, func(r WriteResult) { res = r; got = true })
	runChecked(eng, d)
	if !got {
		panic("write never completed")
	}
	return res
}

// readSync drives a read, OOB records included, to completion.
func readSync(eng *sim.Engine, d *Device, z int, lba int64, n int) ReadResult {
	var res ReadResult
	got := false
	d.ReadInto(z, lba, n, nil, true, func(r ReadResult) { res = r; got = true })
	runChecked(eng, d)
	if !got {
		panic("read never completed")
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	good := TestConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BlockSize = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero block size")
	}
	bad = good
	bad.NumChannels = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero channels")
	}
	bad = good
	bad.DeviceWriteBW = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero bandwidth")
	}
}

func TestTable2Presets(t *testing.T) {
	// The paper's Table 2 numbers must fall out of the presets.
	cases := []struct {
		cfg       Config
		zoneMB    int64
		zrwaKB    int64
		openMax   int
		totalZRWA int64 // bytes
	}{
		{ZN540(16), 1077, 1024, 14, 14 * mib},
		{J5500Z(4), 18144, 1024, 16, 16 * mib},
		{NS8600G(8), 2880, 1440, 8, 11520 * kib},
		{PM1731a(64), 96, 64, 384, 24 * mib},
	}
	for _, c := range cases {
		if got := c.cfg.ZoneBytes() / mib; got != c.zoneMB {
			t.Errorf("%s zone = %d MB, want %d", c.cfg.Name, got, c.zoneMB)
		}
		if got := c.cfg.ZRWABytes() / kib; got != c.zrwaKB {
			t.Errorf("%s zrwa = %d KB, want %d", c.cfg.Name, got, c.zrwaKB)
		}
		if c.cfg.MaxOpenZones != c.openMax {
			t.Errorf("%s maxopen = %d, want %d", c.cfg.Name, c.cfg.MaxOpenZones, c.openMax)
		}
		if got := c.cfg.TotalZRWABytes(); got != c.totalZRWA {
			t.Errorf("%s total zrwa = %d, want %d", c.cfg.Name, got, c.totalZRWA)
		}
	}
}

func TestSequentialWriteAdvancesWP(t *testing.T) {
	eng, d := newTestDev(t)
	if r := writeSync(eng, d, 0, 0, 4, block(1, 4*4096), TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
	info, _ := d.ZoneInfo(0)
	if info.WritePtr != 4 {
		t.Fatalf("wp = %d, want 4", info.WritePtr)
	}
	if info.State != ZoneImplicitOpen {
		t.Fatalf("state = %v, want implicit-open", info.State)
	}
}

func TestNonSequentialWriteFails(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 0, 0, 2, nil, TagUserData)
	if r := writeSync(eng, d, 0, 5, 1, nil, TagUserData); !errors.Is(r.Err, ErrNotSequential) {
		t.Fatalf("gap write err = %v, want ErrNotSequential", r.Err)
	}
	if r := writeSync(eng, d, 0, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrNotSequential) {
		t.Fatalf("rewind write err = %v, want ErrNotSequential", r.Err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eng, d := newTestDev(t)
	payload := block(7, 3*4096)
	writeSync(eng, d, 2, 0, 3, payload, TagUserData)
	r := readSync(eng, d, 2, 0, 3)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Data, payload) {
		t.Fatal("read data != written data")
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	eng, d := newTestDev(t)
	r := readSync(eng, d, 1, 10, 2)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestZoneFullTransition(t *testing.T) {
	eng, d := newTestDev(t)
	cfg := d.Config()
	var lba int64
	for lba < cfg.ZoneBlocks {
		if r := writeSync(eng, d, 0, lba, 16, nil, TagUserData); r.Err != nil {
			t.Fatal(r.Err)
		}
		lba += 16
	}
	info, _ := d.ZoneInfo(0)
	if info.State != ZoneFull {
		t.Fatalf("state = %v, want full", info.State)
	}
	if d.OpenZones() != 0 {
		t.Fatalf("open zones = %d after fill, want 0", d.OpenZones())
	}
	if r := writeSync(eng, d, 0, lba, 1, nil, TagUserData); !errors.Is(r.Err, ErrZoneFull) {
		t.Fatalf("write to full zone err = %v", r.Err)
	}
}

func TestMaxOpenZones(t *testing.T) {
	eng, d := newTestDev(t)
	cfg := d.Config()
	for z := 0; z < cfg.MaxOpenZones; z++ {
		if r := writeSync(eng, d, z, 0, 1, nil, TagUserData); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if r := writeSync(eng, d, cfg.MaxOpenZones, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrTooManyOpen) {
		t.Fatalf("overflow open err = %v, want ErrTooManyOpen", r.Err)
	}
	// Finishing one zone frees a slot.
	if err := d.Finish(0); err != nil {
		t.Fatal(err)
	}
	if r := writeSync(eng, d, cfg.MaxOpenZones, 0, 1, nil, TagUserData); r.Err != nil {
		t.Fatalf("write after finish err = %v", r.Err)
	}
}

func TestExplicitOpenRules(t *testing.T) {
	_, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	info, _ := d.ZoneInfo(0)
	if info.State != ZoneExplicitOpen || !info.ZRWA {
		t.Fatalf("open state = %+v", info)
	}
	cfg := d.Config()
	for z := 1; z < cfg.MaxOpenZones; z++ {
		if err := d.Open(z, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Open(cfg.MaxOpenZones, false); !errors.Is(err, ErrTooManyOpen) {
		t.Fatalf("open overflow err = %v", err)
	}
}

func TestZRWARandomWriteWithinWindow(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	// Random order within the 16-block window, all must succeed.
	for _, lba := range []int64{5, 0, 15, 7, 3} {
		if r := writeSync(eng, d, 0, lba, 1, block(byte(lba), 4096), TagUserData); r.Err != nil {
			t.Fatalf("zrwa write at %d: %v", lba, r.Err)
		}
	}
	r := readSync(eng, d, 0, 5, 1)
	if !bytes.Equal(r.Data, block(5, 4096)) {
		t.Fatal("zrwa buffered read mismatch")
	}
}

func TestZRWAInPlaceUpdateAbsorbed(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if r := writeSync(eng, d, 0, 3, 1, block(byte(i), 4096), TagUserData); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := d.Stats()
	if st.TotalProgrammed() != 0 {
		t.Fatalf("in-window overwrites reached flash: %d bytes", st.TotalProgrammed())
	}
	if st.AbsorbedBytes != 9*4096 {
		t.Fatalf("absorbed = %d, want %d", st.AbsorbedBytes, 9*4096)
	}
	r := readSync(eng, d, 0, 3, 1)
	if !bytes.Equal(r.Data, block(9, 4096)) {
		t.Fatal("latest overwrite not visible")
	}
}

func TestZRWAImplicitShiftFlushes(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	// Fill the whole window [0,16), then write one block beyond: the window
	// shifts right by one and block 0 is flushed to flash.
	for lba := int64(0); lba < cfg.ZRWABlocks; lba++ {
		writeSync(eng, d, 0, lba, 1, block(byte(lba), 4096), TagUserData)
	}
	if d.Stats().TotalProgrammed() != 0 {
		t.Fatal("window fill should not flush")
	}
	writeSync(eng, d, 0, cfg.ZRWABlocks, 1, block(99, 4096), TagUserData)
	eng.Run()
	info, _ := d.ZoneInfo(0)
	if info.WritePtr != 1 {
		t.Fatalf("wp = %d after shift, want 1", info.WritePtr)
	}
	if got := d.Stats().TotalProgrammed(); got != 4096 {
		t.Fatalf("programmed = %d, want 4096", got)
	}
	// Block 0 is now immutable.
	if r := writeSync(eng, d, 0, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrOutOfWindow) {
		t.Fatalf("write behind window err = %v", r.Err)
	}
	// Flushed data still readable from flash.
	r := readSync(eng, d, 0, 0, 1)
	if !bytes.Equal(r.Data, block(0, 4096)) {
		t.Fatal("flushed block content lost")
	}
}

func TestZRWAExplicitCommit(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	writeSync(eng, d, 0, 0, 8, block(1, 8*4096), TagUserData)
	if err := d.CommitZRWA(0, 8); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	info, _ := d.ZoneInfo(0)
	if info.WritePtr != 8 {
		t.Fatalf("wp = %d, want 8", info.WritePtr)
	}
	if got := d.Stats().TotalProgrammed(); got != 8*4096 {
		t.Fatalf("programmed = %d, want %d", got, 8*4096)
	}
	if err := d.CommitZRWA(0, 4); !errors.Is(err, ErrBadRange) {
		t.Fatalf("backward commit err = %v", err)
	}
	if err := d.CommitZRWA(0, 8+d.Config().ZRWABlocks+1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("too-far commit err = %v", err)
	}
}

func TestZRWACommitSkipsHoles(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	// Write blocks 0 and 2, leave a hole at 1; commit all three.
	writeSync(eng, d, 0, 0, 1, block(1, 4096), TagUserData)
	writeSync(eng, d, 0, 2, 1, block(3, 4096), TagUserData)
	if err := d.CommitZRWA(0, 3); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := d.Stats().TotalProgrammed(); got != 2*4096 {
		t.Fatalf("programmed = %d, want %d (holes skipped)", got, 2*4096)
	}
	r := readSync(eng, d, 0, 1, 1)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("hole block not zero")
		}
	}
}

func TestZRWAFinishFlushesAndFills(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	writeSync(eng, d, 0, 0, 5, block(1, 5*4096), TagUserData)
	if err := d.Finish(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	info, _ := d.ZoneInfo(0)
	if info.State != ZoneFull {
		t.Fatalf("state = %v", info.State)
	}
	if got := d.Stats().TotalProgrammed(); got != 5*4096 {
		t.Fatalf("programmed = %d", got)
	}
	if d.OpenZones() != 0 {
		t.Fatal("finish did not release open slot")
	}
	r := readSync(eng, d, 0, 0, 5)
	if !bytes.Equal(r.Data, block(1, 5*4096)) {
		t.Fatal("finished zone content lost")
	}
}

func TestZRWAWriteLargerThanWindowRejected(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	n := int(d.Config().ZRWABlocks) + 1
	if r := writeSync(eng, d, 0, 0, n, nil, TagUserData); !errors.Is(r.Err, ErrBadRange) {
		t.Fatalf("oversized zrwa write err = %v", r.Err)
	}
}

func TestAppendAssignsLBA(t *testing.T) {
	eng, d := newTestDev(t)
	var lbas []int64
	for i := 0; i < 3; i++ {
		d.Append(0, 2, nil, nil, TagUserData, func(r WriteResult) {
			if r.Err != nil {
				t.Errorf("append: %v", r.Err)
			}
			lbas = append(lbas, r.LBA)
		})
	}
	eng.Run()
	want := []int64{0, 2, 4}
	for i, w := range want {
		if lbas[i] != w {
			t.Fatalf("append lbas = %v, want %v", lbas, want)
		}
	}
}

func TestAppendRejectedOnZRWAZone(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	var got error
	d.Append(0, 1, nil, nil, TagUserData, func(r WriteResult) { got = r.Err })
	eng.Run()
	if !errors.Is(got, ErrAppendWithZRWA) {
		t.Fatalf("append on zrwa zone err = %v", got)
	}
}

func TestResetClearsZone(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 0, 0, 4, block(1, 4*4096), TagUserData)
	var rerr error
	fired := false
	d.Reset(0, func(err error) { rerr = err; fired = true })
	eng.Run()
	if !fired || rerr != nil {
		t.Fatalf("reset fired=%v err=%v", fired, rerr)
	}
	info, _ := d.ZoneInfo(0)
	if info.State != ZoneEmpty || info.WritePtr != 0 {
		t.Fatalf("zone after reset: %+v", info)
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("erase count = %d", d.EraseCount(0))
	}
	r := readSync(eng, d, 0, 0, 1)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("reset did not drop data")
		}
	}
	// The zone is writable from block 0 again.
	if r := writeSync(eng, d, 0, 0, 1, nil, TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestResetDropsZRWABuffer(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	writeSync(eng, d, 0, 0, 4, block(9, 4*4096), TagUserData)
	d.Reset(0, nil)
	eng.Run()
	if d.Stats().TotalProgrammed() != 0 {
		t.Fatal("reset flushed buffer to flash")
	}
	info, _ := d.ZoneInfo(0)
	if info.ZRWA {
		t.Fatal("zrwa flag survived reset")
	}
}

func TestWriteTagsAccountedSeparately(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 0, 0, 2, nil, TagUserData)
	writeSync(eng, d, 1, 0, 1, nil, TagParity)
	writeSync(eng, d, 2, 0, 3, nil, TagGCData)
	st := d.Stats()
	if st.ProgrammedByTag(TagUserData) != 2*4096 ||
		st.ProgrammedByTag(TagParity) != 4096 ||
		st.ProgrammedByTag(TagGCData) != 3*4096 {
		t.Fatalf("per-tag accounting wrong: %+v", st.ProgrammedBytes)
	}
}

func TestOOBPersistedWithData(t *testing.T) {
	eng, d := newTestDev(t)
	oob := [][]byte{[]byte("lbn=42,sn=7"), []byte("lbn=43,sn=7")}
	var done bool
	d.Write(0, 0, 2, block(1, 2*4096), oob, TagUserData, func(r WriteResult) {
		if r.Err != nil {
			t.Errorf("write: %v", r.Err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("no completion")
	}
	r := readSync(eng, d, 0, 0, 2)
	if string(r.OOB[0]) != "lbn=42,sn=7" || string(r.OOB[1]) != "lbn=43,sn=7" {
		t.Fatalf("oob round trip: %q %q", r.OOB[0], r.OOB[1])
	}
}

func TestChannelMappingRoundRobinByDefault(t *testing.T) {
	_, d := newTestDev(t)
	for z := 0; z < d.Zones(); z++ {
		if d.TrueChannelOf(z) != z%d.NumChannels() {
			t.Fatalf("zone %d not round-robin mapped", z)
		}
	}
}

func TestChannelMappingShuffle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := TestConfig()
	cfg.ShuffleFraction = 0.5
	cfg.Seed = 99
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	deviations := 0
	for z := 0; z < d.Zones(); z++ {
		if d.TrueChannelOf(z) != z%d.NumChannels() {
			deviations++
		}
	}
	// Half the zones get a random channel; ~1/4 of those land back on the
	// round-robin slot by chance, so expect roughly 3/8 deviating.
	if deviations < d.Zones()/8 || deviations > d.Zones()*5/8 {
		t.Fatalf("deviations = %d of %d, want roughly 3/8", deviations, d.Zones())
	}
	// Determinism: same seed, same mapping.
	d2, _ := New(sim.NewEngine(), cfg)
	for z := 0; z < d.Zones(); z++ {
		if d.TrueChannelOf(z) != d2.TrueChannelOf(z) {
			t.Fatal("shuffled mapping not deterministic")
		}
	}
}

func TestOfflineZoneRejectsIO(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.SetOffline(3); err != nil {
		t.Fatal(err)
	}
	if r := writeSync(eng, d, 3, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrZoneOffline) {
		t.Fatalf("write to offline err = %v", r.Err)
	}
	if r := readSync(eng, d, 3, 0, 1); !errors.Is(r.Err, ErrZoneOffline) {
		t.Fatalf("read of offline err = %v", r.Err)
	}
}

func TestBadZoneAndRange(t *testing.T) {
	eng, d := newTestDev(t)
	if r := writeSync(eng, d, -1, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrBadZone) {
		t.Fatalf("bad zone err = %v", r.Err)
	}
	if r := writeSync(eng, d, 999, 0, 1, nil, TagUserData); !errors.Is(r.Err, ErrBadZone) {
		t.Fatalf("bad zone err = %v", r.Err)
	}
	if r := readSync(eng, d, 0, d.Config().ZoneBlocks, 1); !errors.Is(r.Err, ErrBadRange) {
		t.Fatalf("range err = %v", r.Err)
	}
}

func TestCloseAndReopen(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 0, 0, 4, block(5, 4*4096), TagUserData)
	if err := d.Close(0); err != nil {
		t.Fatal(err)
	}
	if d.OpenZones() != 0 {
		t.Fatal("close did not release slot")
	}
	// Write to closed zone implicitly reopens at wp.
	if r := writeSync(eng, d, 0, 4, 1, nil, TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
	if d.OpenZones() != 1 {
		t.Fatal("implicit reopen did not take a slot")
	}
	r := readSync(eng, d, 0, 0, 4)
	if !bytes.Equal(r.Data, block(5, 4*4096)) {
		t.Fatal("closed zone content lost")
	}
}

func TestZRWACloseCommitsBuffer(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	writeSync(eng, d, 0, 0, 3, block(8, 3*4096), TagUserData)
	if err := d.Close(0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := d.Stats().TotalProgrammed(); got != 3*4096 {
		t.Fatalf("programmed after close = %d", got)
	}
}

// --- Performance-shape tests: the simulator must reproduce the paper's
// preliminary-study observations. ---

// TestSingleZonePeakBandwidth checks that a deeply queued single zone
// saturates near the channel write bandwidth (Table 3 scenario 1).
func TestSingleZonePeakBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ZN540(64)
	cfg.StoreData = false
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	const depth = 32
	const blocksPerWrite = 16 // 64 KiB
	var next int64
	var doneBytes int64
	var submit func()
	submit = func() {
		lba := next
		next += blocksPerWrite
		if lba+blocksPerWrite > cfg.ZoneBlocks {
			return
		}
		d.Write(0, lba, blocksPerWrite, nil, nil, TagUserData, func(r WriteResult) {
			if r.Err != nil {
				t.Errorf("write at %d: %v", lba, r.Err)
				return
			}
			doneBytes += blocksPerWrite * 4096
			submit()
		})
	}
	for i := 0; i < depth; i++ {
		submit()
	}
	eng.RunUntil(200 * sim.Millisecond)
	mbps := float64(doneBytes) / 1e6 / 0.2
	if mbps < 900 || mbps > 1200 {
		t.Fatalf("single-zone depth-32 throughput = %.0f MB/s, want ~1092", mbps)
	}
}

// TestIntraZoneDepth1Penalty checks that one in-flight write reaches well
// under half of the zone bandwidth (Fig. 5: 34.7%-45.5% retained).
func TestIntraZoneDepth1Penalty(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ZN540(64)
	cfg.StoreData = false
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	const blocksPerWrite = 16
	var next int64
	var doneBytes int64
	var submit func()
	submit = func() {
		lba := next
		next += blocksPerWrite
		if lba+blocksPerWrite > cfg.ZoneBlocks {
			return
		}
		d.Write(0, lba, blocksPerWrite, nil, nil, TagUserData, func(r WriteResult) {
			if r.Err != nil {
				t.Errorf("write: %v", r.Err)
				return
			}
			doneBytes += blocksPerWrite * 4096
			submit()
		})
	}
	submit()
	eng.RunUntil(200 * sim.Millisecond)
	mbps := float64(doneBytes) / 1e6 / 0.2
	frac := mbps / 1092
	if frac < 0.20 || frac > 0.60 {
		t.Fatalf("depth-1 retention = %.2f of zone bw (%.0f MB/s), want 0.25-0.55", frac, mbps)
	}
}

// TestTwoZonesSameVsDifferentChannel reproduces Table 3's contrast: zones
// on one channel share its bandwidth; zones on different channels scale.
func TestTwoZonesSameVsDifferentChannel(t *testing.T) {
	run := func(zoneA, zoneB int) float64 {
		eng := sim.NewEngine()
		cfg := ZN540(64)
		cfg.StoreData = false
		d, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, z := range []int{zoneA, zoneB} {
			if err := d.Open(z, true); err != nil {
				t.Fatal(err)
			}
		}
		var doneBytes int64
		const blocksPerWrite = 16
		for _, z := range []int{zoneA, zoneB} {
			z := z
			next := map[int]*int64{zoneA: new(int64), zoneB: new(int64)}[z]
			var submit func()
			submit = func() {
				lba := *next
				*next += blocksPerWrite
				if lba+blocksPerWrite > cfg.ZoneBlocks {
					return
				}
				d.Write(z, lba, blocksPerWrite, nil, nil, TagUserData, func(r WriteResult) {
					if r.Err != nil {
						return
					}
					doneBytes += blocksPerWrite * 4096
					submit()
				})
			}
			for i := 0; i < 16; i++ {
				submit()
			}
		}
		eng.RunUntil(200 * sim.Millisecond)
		return float64(doneBytes) / 1e6 / 0.2
	}
	// Zones 0 and 8 share channel 0 (round-robin, 8 channels); zones 0 and
	// 1 are on different channels.
	same := run(0, 8)
	diff := run(0, 1)
	if same > 1300 {
		t.Fatalf("same-channel pair = %.0f MB/s, want ~1092 (no scaling)", same)
	}
	if diff < 1800 {
		t.Fatalf("diff-channel pair = %.0f MB/s, want ~2170 (2x scaling)", diff)
	}
	if diff < same*1.6 {
		t.Fatalf("channel separation speedup only %.2fx", diff/same)
	}
}

// TestDeviceWriteLinkCap checks aggregate writes cannot exceed the device
// link (2170 MB/s for ZN540) no matter how many channels run.
func TestDeviceWriteLinkCap(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ZN540(64)
	cfg.StoreData = false
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doneBytes int64
	const blocksPerWrite = 16
	for z := 0; z < 8; z++ {
		z := z
		if err := d.Open(z, true); err != nil {
			t.Fatal(err)
		}
		next := new(int64)
		var submit func()
		submit = func() {
			lba := *next
			*next += blocksPerWrite
			if lba+blocksPerWrite > cfg.ZoneBlocks {
				return
			}
			d.Write(z, lba, blocksPerWrite, nil, nil, TagUserData, func(r WriteResult) {
				if r.Err != nil {
					return
				}
				doneBytes += blocksPerWrite * 4096
				submit()
			})
		}
		for i := 0; i < 8; i++ {
			submit()
		}
	}
	eng.RunUntil(200 * sim.Millisecond)
	mbps := float64(doneBytes) / 1e6 / 0.2
	if mbps > 2400 {
		t.Fatalf("aggregate = %.0f MB/s exceeds device link 2170", mbps)
	}
	if mbps < 1900 {
		t.Fatalf("aggregate = %.0f MB/s, want ~2170", mbps)
	}
}

// TestGCInterferenceOnSharedChannel verifies that flash traffic on a
// zone's channel inflates same-channel write latency (the §3.3 effect
// behind BIZA's GC avoidance).
func TestGCInterferenceOnSharedChannel(t *testing.T) {
	lat := func(gcOnSameChannel bool) float64 {
		eng := sim.NewEngine()
		cfg := ZN540(64)
		cfg.StoreData = false
		d, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		user, gc := 0, 1 // different channels
		if gcOnSameChannel {
			gc = 8 // same channel as zone 0
		}
		if err := d.Open(user, true); err != nil {
			t.Fatal(err)
		}
		if err := d.Open(gc, true); err != nil {
			t.Fatal(err)
		}
		// Background "GC" stream hammers the gc zone.
		gcNext := new(int64)
		var gcSubmit func()
		gcSubmit = func() {
			lba := *gcNext
			*gcNext += 16
			if lba+16 > cfg.ZoneBlocks {
				return
			}
			d.Write(gc, lba, 16, nil, nil, TagGCData, func(r WriteResult) { gcSubmit() })
		}
		for i := 0; i < 16; i++ {
			gcSubmit()
		}
		// Foreground user writes, depth 1, measure latency.
		var total sim.Time
		var count int
		uNext := new(int64)
		var uSubmit func()
		uSubmit = func() {
			lba := *uNext
			*uNext += 16
			if lba+16 > cfg.ZoneBlocks {
				return
			}
			d.Write(user, lba, 16, nil, nil, TagUserData, func(r WriteResult) {
				total += r.Latency
				count++
				uSubmit()
			})
		}
		uSubmit()
		eng.RunUntil(100 * sim.Millisecond)
		return float64(total) / float64(count)
	}
	isolated := lat(false)
	interfered := lat(true)
	if interfered < isolated*1.5 {
		t.Fatalf("same-channel GC interference too small: %.0fns vs %.0fns", interfered, isolated)
	}
}

func TestMultiBlockZRWAWrite(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	// A multi-block write filling most of the window, then an overlapping
	// in-window rewrite of its middle.
	if r := writeSync(eng, d, 0, 0, 12, block(1, 12*4096), TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := writeSync(eng, d, 0, 4, 4, block(99, 4*4096), TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := readSync(eng, d, 0, 0, 12)
	want := block(1, 12*4096)
	copy(want[4*4096:8*4096], block(99, 4*4096))
	if !bytes.Equal(r.Data, want) {
		t.Fatal("overlapping in-window rewrite wrong")
	}
	if d.Stats().AbsorbedBytes != 4*4096 {
		t.Fatalf("absorbed = %d", d.Stats().AbsorbedBytes)
	}
}

func TestReadSpanningBufferAndFlash(t *testing.T) {
	eng, d := newTestDev(t)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	// Fill two windows' worth so the first window is flushed to flash
	// while the second stays buffered.
	n := int(cfg.ZRWABlocks)
	writeSync(eng, d, 0, 0, n, block(1, n*4096), TagUserData)
	writeSync(eng, d, 0, int64(n), n, block(2, n*4096), TagUserData)
	eng.Run()
	// Read across the boundary: half flash, half buffer.
	r := readSync(eng, d, 0, int64(n/2), n)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want := append(block(1, n*4096)[n/2*4096:], block(2, n*4096)[:n/2*4096]...)
	if !bytes.Equal(r.Data, want) {
		t.Fatal("mixed buffer/flash read wrong")
	}
}

func TestAppendAfterFinishFails(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 5, 0, 1, nil, TagUserData)
	if err := d.Finish(5); err != nil {
		t.Fatal(err)
	}
	var got error
	d.Append(5, 1, nil, nil, TagUserData, func(r WriteResult) { got = r.Err })
	eng.Run()
	if !errors.Is(got, ErrZoneFull) {
		t.Fatalf("append after finish: %v", got)
	}
}

func TestFinishIdempotent(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 1, 0, 1, nil, TagUserData)
	if err := d.Finish(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(1); err != nil {
		t.Fatalf("second finish: %v", err)
	}
}

func TestActiveZoneLimitWithFullZones(t *testing.T) {
	// Regression for the active-zone accounting bug: FULL zones must not
	// count against the active limit, so many more zones than MaxActive
	// can be filled over a device's life.
	eng := sim.NewEngine()
	cfg := TestConfig()
	cfg.MaxOpenZones = 2
	cfg.MaxActiveZone = 4
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < 12; z++ {
		var lba int64
		for lba < cfg.ZoneBlocks {
			if r := writeSync(eng, d, z, lba, 16, nil, TagUserData); r.Err != nil {
				t.Fatalf("zone %d lba %d: %v", z, lba, r.Err)
			}
			lba += 16
		}
	}
	if d.OpenZones() != 0 {
		t.Fatalf("open zones = %d", d.OpenZones())
	}
}

func TestChannelUtilizationTelemetry(t *testing.T) {
	eng, d := newTestDev(t)
	// Hammer zone 0 (channel 0); channel 1 stays idle.
	for lba := int64(0); lba+16 <= d.Config().ZoneBlocks; lba += 16 {
		writeSync(eng, d, 0, lba, 16, nil, TagUserData)
	}
	eng.Run()
	if busy := d.ChannelWriteBusy(0); busy <= 0 || busy > eng.Now() {
		t.Fatalf("channel 0 busy %v of %v elapsed", busy, eng.Now())
	}
	if busy := d.ChannelWriteBusy(1); busy != 0 {
		t.Fatalf("idle channel busy = %v", busy)
	}
	if busy := d.ChannelWriteBusy(-1); busy != 0 {
		t.Fatal("bad channel index not guarded")
	}
}

func TestReportZones(t *testing.T) {
	eng, d := newTestDev(t)
	writeSync(eng, d, 0, 0, 4, nil, TagUserData)
	d.Open(3, true)
	if info, err := d.ZoneInfo(0); err != nil || info.WritePtr != 4 || info.State != ZoneImplicitOpen {
		t.Fatalf("zone0 info %+v, %v", info, err)
	}
	if info, err := d.ZoneInfo(3); err != nil || !info.ZRWA || info.State != ZoneExplicitOpen {
		t.Fatalf("zone3 info %+v, %v", info, err)
	}
	if _, err := d.ZoneInfo(d.Zones()); err == nil {
		t.Fatal("zone past the end reported")
	}
}

func TestOpenReportChannelExposure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := TestConfig()
	cfg.ShuffleFraction = 0.5
	cfg.Seed = 77
	// Opaque device: channel reported as -1.
	d1, _ := New(eng, cfg)
	ch, err := d1.OpenReport(0, true)
	if err != nil || ch != -1 {
		t.Fatalf("opaque OpenReport = %d, %v", ch, err)
	}
	// Future-ZNS device: the OPEN completion carries the true channel.
	cfg.ExposeChannelOnOpen = true
	d2, _ := New(eng, cfg)
	for z := 0; z < 6; z++ {
		ch, err := d2.OpenReport(z, true)
		if err != nil {
			t.Fatal(err)
		}
		if ch != d2.TrueChannelOf(z) {
			t.Fatalf("zone %d reported channel %d, true %d", z, ch, d2.TrueChannelOf(z))
		}
	}
	// Failed opens propagate the error, not a channel.
	if _, err := d2.OpenReport(999, true); err == nil {
		t.Fatal("bad zone accepted")
	}
}

// TestZRWAOverwriteAllocFree gates the write buffer's steady state in
// performance mode: once warm, filling a ZRWA window with payloads and OOB
// records, overwriting it in place, and committing it to flash allocates
// nothing — buffer pages recycle when their flash programs retire, and
// no payload or OOB copy is made, since nothing could read it.
func TestZRWAOverwriteAllocFree(t *testing.T) {
	cfg := TestConfig()
	cfg.StoreData = false // performance mode; TestStoreDataRefillAllocFree is the same gate with the flash store on
	cfg.ZoneBlocks = 1024 * cfg.ZRWABlocks
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	n := int(cfg.ZRWABlocks)
	data := block(1, n*cfg.BlockSize)
	oob := make([][]byte, n)
	for i := range oob {
		oob[i] = block(byte(i), 26)
	}
	var failed error
	done := func(r WriteResult) {
		if r.Err != nil {
			failed = r.Err
		}
	}
	var lba int64
	fill := func() {
		d.Write(0, lba, n, data, oob, TagUserData, done) // first touch: a slot in a recycled page
		d.Write(0, lba, n, data, oob, TagUserData, done) // overwrite: absorbed in place
		eng.Run()
	}
	commit := func() {
		lba += int64(n)
		if err := d.CommitZRWA(0, lba); err != nil {
			failed = err
		}
		eng.Run() // programs retire, emptied pages return to the pool
	}
	for i := 0; i < 8; i++ {
		fill()
		commit()
	}
	allocs := testing.AllocsPerRun(200, func() { fill(); commit() })
	if failed != nil {
		t.Fatal(failed)
	}
	if st := d.Stats(); st.AbsorbedBytes == 0 || st.TotalProgrammed() == 0 {
		t.Fatalf("stats = %+v, want both absorbed and programmed traffic", st)
	}
	if allocs != 0 {
		t.Fatalf("steady-state ZRWA window allocates %.1f objects/op, want 0", allocs)
	}
	fill()
	if got := d.zones[0].buffered.Len(); got != n {
		t.Fatalf("%d blocks buffered, want the window's %d", got, n)
	}
	if st := d.Stats(); st.BufCopiedBytes != 0 || d.pool.RawLive() != 0 {
		t.Fatalf("a buffered window holds %d copied bytes and %d scratch slabs, want none", st.BufCopiedBytes, d.pool.RawLive())
	}
	commit()
}

// TestBufferedBlockBytesAllocFree gates what a buffered block costs in
// performance mode: its one-byte slot's share of the buffer table's page,
// with no record, payload or OOB copy beside it. Windows of several zones
// are filled with payload and OOB writes on a fresh device, so the write
// commands' own records count too.
func TestBufferedBlockBytesAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := TestConfig()
	cfg.StoreData = false
	cfg.ZRWABlocks = pagetab.PageSize // a window fills one page of the buffer table
	cfg.ZoneBlocks = 4 * cfg.ZRWABlocks
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(cfg.ZRWABlocks)
	data := block(1, n*cfg.BlockSize)
	oob := make([][]byte, n)
	for i := range oob {
		oob[i] = block(byte(i), cfg.OOBBytesPerBlock)
	}
	for z := 0; z < cfg.MaxOpenZones; z++ {
		if err := d.Open(z, true); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for z := 0; z < cfg.MaxOpenZones; z++ {
		d.Write(z, 0, n, data, oob, TagUserData, nil)
	}
	runtime.ReadMemStats(&m1)
	blocks := 0
	for z := 0; z < cfg.MaxOpenZones; z++ {
		blocks += d.zones[z].buffered.Len()
	}
	if want := cfg.MaxOpenZones * n; blocks != want {
		t.Fatalf("%d blocks buffered, want %d", blocks, want)
	}
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(blocks)
	t.Logf("%.2f heap bytes per buffered block", per)
	if per > 4 {
		t.Fatalf("the write buffer costs %.2f heap bytes per buffered block, want at most 4", per)
	}
	runChecked(eng, d)
}

// TestBufferedBlocksStayInWindow drives ZRWA zones directly with random
// window writes, overwrites, window shifts, commits, closes, finishes,
// resets and power cuts at random depths of in-flight work, and checks
// after every event that dirty blocks lie in [wp, wp+ZRWABlocks) and
// committed ones below wp — what lets commitRange and maxDirty look no
// further than the window.
func TestBufferedBlocksStayInWindow(t *testing.T) {
	cfg := TestConfig()
	cfg.ZoneBlocks = 8 * cfg.ZRWABlocks
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		d, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const zones = 3
		for step := 0; step < 600; step++ {
			z := rng.Intn(zones)
			zn := d.zones[z]
			switch op := rng.Intn(20); {
			case zn.state == ZoneEmpty:
				if err := d.Open(z, true); err != nil {
					t.Fatal(err)
				}
			case zn.state == ZoneFull || op == 0:
				d.Reset(z, nil)
			case !zn.zrwa: // closed, or reopened without its window
				d.Finish(z)
			case op == 1:
				d.Finish(z)
			case op == 2:
				d.Close(z)
			case op == 3:
				d.PowerLoss()
			case op < 7:
				d.CommitZRWA(z, zn.wp+rng.Int63n(cfg.ZRWABlocks+1))
			default:
				// Up to half a window ahead of the window's end: shifts it.
				n := 1 + rng.Intn(4)
				lba := zn.wp + rng.Int63n(cfg.ZRWABlocks*3/2)
				d.Write(z, lba, n, block(byte(step), n*cfg.BlockSize), nil, TagUserData, nil)
			}
			checkBuffered(d)
			// Leave a random amount of work in flight behind the next step.
			for n := rng.Intn(12); n > 0 && eng.Step(); n-- {
				checkBuffered(d)
			}
		}
		runChecked(eng, d)
		if st := d.Stats(); st.TotalProgrammed() == 0 || st.AbsorbedBytes == 0 || st.Erases == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// TestFreshZoneWindowsAllocFree: once the buffer table's pages exist,
// opening zones reset to empty and filling their windows allocates
// nothing: a buffered block is a byte in a page, not a record of its own.
// A warm-up round buffers one block per zone, so the pages and every
// command record exist but only one block's worth of buffer per zone was
// ever needed. The measured round submits the writes that fill the
// windows; they buffer their blocks at submission.
func TestFreshZoneWindowsAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := TestConfig()
	cfg.StoreData = false
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	zones, n := cfg.MaxOpenZones, int(cfg.ZRWABlocks)
	var failed error
	done := func(r WriteResult) {
		if r.Err != nil {
			failed = r.Err
		}
	}
	fill := func(blocks int) {
		for z := 0; z < zones; z++ {
			if err := d.Open(z, true); err != nil && failed == nil {
				failed = err
			}
			d.Write(z, 0, blocks, nil, nil, TagUserData, done)
		}
	}
	fill(1)
	runChecked(eng, d)
	for z := 0; z < zones; z++ {
		d.Reset(z, nil)
	}
	runChecked(eng, d)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fill(n)
	runtime.ReadMemStats(&m1)
	runChecked(eng, d)
	if failed != nil {
		t.Fatal(failed)
	}
	blocks := 0
	for z := 0; z < zones; z++ {
		blocks += d.zones[z].buffered.Len()
	}
	if blocks != zones*n {
		t.Fatalf("%d blocks buffered, want %d", blocks, zones*n)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
		t.Fatalf("filling %d fresh windows of %d blocks allocates %d objects, want 0", zones, n, allocs)
	}
}

// TestPowerLossHardensAscending: the capacitor flush walks each zone's
// buffer in block order, committed and acknowledged blocks alike, and
// drops the unacknowledged ones. The order shows in what the flash store
// received: each block lies in an extent of its own, and a store takes
// its extents from the device's pool last-freed first, so the extent a
// block's contents landed in tells when the store was first handed it.
// The pool is seeded with known extents by a sequential fill of another
// zone and its reset; a slow channel keeps every program in flight until
// the cut.
func TestPowerLossHardensAscending(t *testing.T) {
	const e = flash.ExtentBlocks
	cfg := TestConfig()
	cfg.ZRWABlocks = 16 * e
	cfg.ZoneBlocks = 2 * cfg.ZRWABlocks
	cfg.ChannelWriteBW = 1e6 // a one-block program holds the bus for 4 ms
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := cfg.BlockSize
	const seeded = 14
	if r := writeSync(eng, d, 1, 0, seeded*e, block(0xee, seeded*e*bs), TagUserData); r.Err != nil {
		t.Fatal(r.Err)
	}
	popped := map[*byte]int{} // an extent's data slab -> how many pops until it comes back
	for i := 0; i < seeded; i++ {
		data, _ := d.zones[1].store.Get(int64(i * e))
		popped[&data[0]] = seeded - 1 - i
	}
	d.Reset(1, nil)
	runChecked(eng, d)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	// Blocks 0-7 acknowledged, then committed with their programs in flight;
	// 13, 9, 11 acknowledged out of order; 10 still unacknowledged at the cut.
	// Block k is written at offset k*e.
	for k := int64(7); k >= 0; k-- {
		writeSync(eng, d, 0, k*e, 1, block(byte(k), bs), TagUserData)
	}
	if err := d.CommitZRWA(0, 8*e); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{13, 9, 11} {
		d.Write(0, k*e, 1, block(byte(k), bs), nil, TagUserData, nil)
	}
	for !d.zones[0].buffered.Get(11 * e).acked() {
		if !eng.Step() {
			t.Fatal("writes never acknowledged")
		}
		checkBuffered(d)
	}
	d.Write(0, 10*e, 1, block(10, bs), nil, TagUserData, nil)
	if got := d.zones[0].buffered.Len(); got != 12 || d.Stats().TotalProgrammed() != uint64(seeded*e*bs) {
		t.Fatalf("%d blocks buffered at the cut, %d bytes programmed: want 12 and zone 1's fill (programs retired early?)",
			got, d.Stats().TotalProgrammed())
	}
	d.PowerLoss()
	checkBuffered(d)
	if d.zones[0].buffered.Len() != 0 {
		t.Fatalf("%d blocks still buffered after the cut", d.zones[0].buffered.Len())
	}
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 9, 11, 13}
	order := make([]int64, len(want))
	for _, k := range append(want, 10) {
		data, _ := d.zones[0].store.Get(k * e)
		if k == 10 {
			if data != nil {
				t.Fatal("the unacknowledged block reached the flash store")
			}
			continue
		}
		at, ok := popped[&data[0]]
		if !ok || at >= len(order) {
			t.Fatalf("block %d hardened into an extent that was not seeded", k)
		}
		order[at] = k
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("the flash store received blocks %v, want %v", order, want)
	}
	eng.Run() // aborted programs and commands die silently
	for _, k := range append(want, 10) {
		r := readSync(eng, d, 0, k*e, 1)
		wantData := block(byte(k), bs)
		if k == 10 {
			wantData = make([]byte, bs) // never acknowledged: dropped
		}
		if r.Err != nil || !bytes.Equal(r.Data, wantData) {
			t.Fatalf("block %d after the cut: err %v, content wrong %v", k, r.Err, !bytes.Equal(r.Data, wantData))
		}
	}
}
