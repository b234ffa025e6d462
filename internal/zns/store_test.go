package zns

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"biza/internal/buf"
	"biza/internal/flash"
	"biza/internal/sim"
)

// extentsHeld bounds the extents the zones' stores may hold: every block a
// store keeps lies below its zone's written mark, which a reset zeroes.
func extentsHeld(d *Device) int {
	n := 0
	for _, zn := range d.zones {
		n += int((zn.written + flash.ExtentBlocks - 1) / flash.ExtentBlocks)
	}
	return n
}

// TestProgramRetiringAfterResetDoesNotPersist: a flash program still in
// flight when its zone is reset belongs to the erased tenant. It must keep
// its timing and its counters, and leave the refilled zone's store alone.
func TestProgramRetiringAfterResetDoesNotPersist(t *testing.T) {
	eng, d := newTestDev(t)
	bs := d.cfg.BlockSize
	const old, refilled = 16, 4
	fill := func(n int64, stamp byte, label string) {
		t.Helper()
		if err := d.Open(0, true); err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b < n; b++ {
			oob := [][]byte{[]byte(fmt.Sprintf("%s %d", label, b))}
			d.Write(0, b, 1, block(stamp+byte(b), bs), oob, TagUserData, nil)
		}
		// Commit at once: the programs are in flight behind this call.
		if err := d.CommitZRWA(0, n); err != nil {
			t.Fatal(err)
		}
	}
	fill(old, 0x10, "old")
	d.Reset(0, nil)
	fill(refilled, 0x80, "new")
	runChecked(eng, d)

	r := readSync(eng, d, 0, 0, old)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	for b := int64(0); b < old; b++ {
		got, gotOOB := r.Data[int(b)*bs:int(b+1)*bs], r.OOB[b]
		want, wantOOB := make([]byte, bs), ""
		if b < refilled {
			want, wantOOB = block(0x80+byte(b), bs), fmt.Sprintf("new %d", b)
		}
		if !bytes.Equal(got, want) || string(gotOOB) != wantOOB {
			t.Errorf("block %d: data[0] %#x OOB %q, want data[0] %#x OOB %q", b, got[0], gotOOB, want[0], wantOOB)
		}
		if data, oob := d.zones[0].store.Get(b); b >= refilled && (data != nil || oob != nil) {
			t.Errorf("block %d of the erased tenant reached the refilled zone's store", b)
		}
	}
	if got, want := d.Stats().TotalProgrammed(), uint64((old+refilled)*bs); got != want {
		t.Errorf("programmed %d bytes, want %d: the stale programs still count", got, want)
	}
	if d.zones[0].buffered.Len() != 0 || d.zones[0].credit != d.cfg.ZRWABlocks {
		t.Errorf("%d blocks buffered, credit %d after every program retired", d.zones[0].buffered.Len(), d.zones[0].credit)
	}
}

// TestPowerLossRecyclesResetPrograms: a power cut while a reset zone's
// programs are still in flight must leave no buffer block or payload
// behind. The blocks the reset took out of the buffer are the erased
// tenant's, so the capacitor flush never sees them and the reset released
// their payloads; the ones the flush did harden are released exactly once. Half the blocks carry
// owned payloads, half device copies with OOB records, and the cut comes
// after the reset or before it.
func TestPowerLossRecyclesResetPrograms(t *testing.T) {
	for _, resetFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("reset-first=%v", resetFirst), func(t *testing.T) {
			eng, d := newTestDev(t)
			bs, n := d.cfg.BlockSize, d.cfg.ZRWABlocks
			pool := buf.NewPool()
			raw0 := d.pool.RawLive()
			if err := d.Open(0, true); err != nil {
				t.Fatal(err)
			}
			for b := int64(0); b < n; b++ {
				data := block(byte(b), bs)
				if b%2 == 0 {
					own := pool.Get(bs, 0)
					copy(own.Bytes(), data)
					d.WriteOwned(0, b, 1, own.Bytes(), nil, TagUserData, own, nil)
				} else {
					d.Write(0, b, 1, data, [][]byte{[]byte("oob")}, TagUserData, nil)
				}
			}
			runChecked(eng, d)
			if err := d.CommitZRWA(0, n); err != nil {
				t.Fatal(err)
			}
			if resetFirst {
				d.Reset(0, nil)
				d.PowerLoss()
			} else {
				d.PowerLoss()
				d.Reset(0, nil)
			}
			runChecked(eng, d)
			if pool.Live() != 0 || d.pool.RawLive() != raw0 {
				t.Fatalf("%d owned payloads and %d scratch slabs still out (%d before), with nothing buffered",
					pool.Live(), d.pool.RawLive(), raw0)
			}
			if zn := d.zones[0]; zn.buffered.Len() != 0 || zn.payloads.Len() != 0 {
				t.Fatalf("%d blocks and %d payload records left in the buffer", zn.buffered.Len(), zn.payloads.Len())
			}
		})
	}
}

// TestStaleProgramLeavesNextTenantBuffered: a program still in flight when
// its zone is reset retires before the refilled zone's program of the same
// offsets. It must take only its own block out of the buffer, so a read of
// the refilled block before that block's program retires is served from
// the buffer with the new contents, not from flash, which holds nothing yet.
func TestStaleProgramLeavesNextTenantBuffered(t *testing.T) {
	eng, d := newTestDev(t)
	bs := d.cfg.BlockSize
	fill := func(n int64, stamp byte) {
		t.Helper()
		if err := d.Open(0, true); err != nil {
			t.Fatal(err)
		}
		d.Write(0, 0, int(n), block(stamp, int(n)*bs), nil, TagUserData, nil)
		if err := d.CommitZRWA(0, n); err != nil {
			t.Fatal(err)
		}
	}
	// One stale block against a refill of four: the stale program retires
	// first, while the refill's is still on its die.
	const refilled = 4
	fill(1, 0x10)
	d.Reset(0, nil)
	fill(refilled, 0x80)
	for d.Stats().TotalProgrammed() < uint64(bs) && eng.Step() {
		checkBuffered(d)
	}
	if got := d.Stats().TotalProgrammed(); got != uint64(bs) {
		t.Fatalf("programmed %d bytes once the stale program retired, want %d", got, bs)
	}
	var res ReadResult
	var programmedAtRead uint64
	d.ReadInto(0, 0, refilled, nil, false, func(r ReadResult) {
		res, programmedAtRead = r, d.Stats().TotalProgrammed()
	})
	runChecked(eng, d)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if programmedAtRead != uint64(bs) {
		t.Fatalf("the read completed after the refill's program retired (%d bytes programmed): it went to flash", programmedAtRead)
	}
	if want := block(0x80, refilled*bs); !bytes.Equal(res.Data, want) {
		t.Fatalf("the refilled blocks read data[0] %#x, want %#x", res.Data[0], want[0])
	}
}

// TestResetRaceKeepsNextTenant: a zone reset while its committed blocks'
// program is in flight, then written again at the same offsets before that
// program retires. The reset drops the committed blocks and their payloads
// at once. The stale program stores nothing, still counts its blocks as
// programmed under the tags they were written with, and releases no
// credit; the new blocks stay buffered with their own tags and contents.
// The buffer invariant holds at every step.
func TestResetRaceKeepsNextTenant(t *testing.T) {
	eng, d := newTestDev(t)
	bs, zn := d.cfg.BlockSize, d.zones[0]
	pool := buf.NewPool()
	raw0 := d.pool.RawLive()
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	// The erased tenant: two parity blocks, copied with OOB records, and
	// two data blocks in one owned payload.
	const old = 4
	d.Write(0, 0, 2, block(0x10, 2*bs), [][]byte{[]byte("p0"), []byte("p1")}, TagParity, nil)
	own := pool.Get(2*bs, 0)
	copy(own.Bytes(), block(0x20, 2*bs))
	d.WriteOwned(0, 2, 2, own.Bytes(), nil, TagUserData, own, nil)
	runChecked(eng, d)
	if err := d.CommitZRWA(0, old); err != nil {
		t.Fatal(err)
	}
	d.Reset(0, nil)
	checkBuffered(d)
	if zn.buffered.Len() != 0 || pool.Live() != 0 || d.pool.RawLive() != raw0 {
		t.Fatalf("after the reset: %d blocks buffered, %d owned payloads and %d scratch slabs out (%d before)",
			zn.buffered.Len(), pool.Live(), d.pool.RawLive(), raw0)
	}
	// The next tenant, at the same offsets, before the stale program
	// retires: three GC blocks, acknowledged, never committed.
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	const refilled = 3
	d.Write(0, 0, refilled, block(0x80, refilled*bs), nil, TagGCData, nil)
	credit := zn.credit
	for d.Stats().TotalProgrammed() == 0 {
		if !eng.Step() {
			t.Fatal("the stale program never retired")
		}
		checkBuffered(d)
		if d.Stats().TotalProgrammed() == 0 {
			credit = zn.credit
		}
	}
	st := d.Stats()
	if st.ProgrammedByTag(TagParity) != 2*uint64(bs) || st.ProgrammedByTag(TagUserData) != 2*uint64(bs) ||
		st.TotalProgrammed() != old*uint64(bs) {
		t.Fatalf("the stale program counted %v bytes by tag, want two parity and two data blocks", st.ProgrammedBytes)
	}
	if zn.credit != credit {
		t.Fatalf("credit %d after the stale program retired, %d before: want none of its %d blocks released", zn.credit, credit, old)
	}
	for b := int64(0); b < old; b++ {
		if data, oob := zn.store.Get(b); data != nil || oob != nil {
			t.Fatalf("block %d of the erased tenant reached the flash store", b)
		}
	}
	if zn.buffered.Len() != refilled {
		t.Fatalf("%d blocks buffered, want the next tenant's %d", zn.buffered.Len(), refilled)
	}
	for b := int64(0); b < refilled; b++ {
		s, pl := zn.buffered.Get(b), zn.payloads.Get(b)
		if want := block(0x80, refilled*bs)[b*int64(bs):][:bs]; s.tag() != TagGCData || !bytes.Equal(pl.data, want) || pl.oob != nil {
			t.Fatalf("block %d of the next tenant: tag %v, content right %v, OOB %q", b, s.tag(), bytes.Equal(pl.data, want), pl.oob)
		}
	}
	runChecked(eng, d)
	if got := d.Stats().ProgrammedByTag(TagGCData); got != 0 {
		t.Fatalf("the uncommitted next tenant was programmed: %d bytes", got)
	}
}

// TestStaleProgramReleasesNoCredit: a reset zeroes its zone's credit and a
// re-Open with ZRWA grants the full window afresh, so a program of the
// erased tenant that retires afterwards releases nothing: the credit stays
// at the window instead of exceeding it by the stale blocks.
func TestStaleProgramReleasesNoCredit(t *testing.T) {
	eng, d := newTestDev(t)
	bs, zn := d.cfg.BlockSize, d.zones[0]
	const old = 4
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	d.Write(0, 0, old, block(0x10, old*bs), nil, TagUserData, nil)
	runChecked(eng, d)
	if err := d.CommitZRWA(0, old); err != nil {
		t.Fatal(err)
	}
	d.Reset(0, nil)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
	}
	if got := d.Stats().TotalProgrammed(); got != old*uint64(bs) {
		t.Fatalf("programmed %d bytes, want the stale program's %d", got, old*bs)
	}
	if zn.credit != d.cfg.ZRWABlocks {
		t.Fatalf("credit %d after the stale program retired, want the %d-block window", zn.credit, d.cfg.ZRWABlocks)
	}
}

// TestFlashStoreMatchesOracle drives StoreData devices with random window
// writes (copied and owned payloads, with and without OOB), overwrites,
// sequential writes, commits, closes, finishes, resets, power cuts and
// reads, and compares what every block of every zone reads as — payload
// and OOB record — with a map-backed oracle after every step, together
// with the buffer invariant.
func TestFlashStoreMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		flashOps(t, seed, false)
	}
}

// TestStoreDataLockstep holds the device to "no service time, counter or
// event depends on where bytes live": the oracle test's op stream drives a
// StoreData device and its twin without StoreData, each on an engine of its
// own, stepped together. The two must agree on every admin command's
// result, on whether each step fires an event, when, and how many remain
// queued, on every completion's time, latency and error, and on every
// flash counter but the buffer's payload copies. The twin's reads, of
// buffered and programmed blocks, with and without OOB, return no payload
// and no OOB records: performance mode's read contract.
func TestStoreDataLockstep(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		flashOps(t, seed, true)
	}
}

// flashSide is one device of flashOps with its engine, and the completions
// it delivered, in order.
type flashSide struct {
	d    *Device
	eng  *sim.Engine
	done []completion
}

type completion struct {
	step    int
	read    bool
	at, lat sim.Time
	err     string
}

// log records a completion of a command submitted at step.
func (s *flashSide) log(step int, read bool, err error, lat sim.Time) {
	s.done = append(s.done, completion{step: step, read: read, at: s.eng.Now(), lat: lat, err: fmt.Sprint(err)})
}

// flashOps runs one seed of the flash-store op stream against a StoreData
// device checked by the oracle, and with twin against a device without
// StoreData that must do the same in lockstep.
func flashOps(t *testing.T, seed int64, twin bool) {
	t.Helper()
	cfg := TestConfig()
	cfg.BlockSize = 256
	cfg.ZoneBlocks = 3*flash.ExtentBlocks + 8 // a partly filled last extent
	const zones = 3
	type key [2]int64 // zone, block
	type content struct {
		data, oob []byte
		acked     bool // a write covering the buffered block completed
		// What a power cut hardened at this offset while it was still above
		// the write pointer: a later rewrite shadows it from the buffer, and
		// uncovers it again if it is dropped unacknowledged.
		hardData, hardOOB []byte
	}
	rng := rand.New(rand.NewSource(seed))
	var sides []*flashSide
	for _, store := range []bool{true, false}[:1+b2i(twin)] {
		c := cfg
		c.StoreData = store
		eng := sim.NewEngine()
		d, err := New(eng, c)
		if err != nil {
			t.Fatal(err)
		}
		sides = append(sides, &flashSide{d: d, eng: eng})
	}
	d, eng := sides[0].d, sides[0].eng
	pool := buf.NewPool()
	bs := cfg.BlockSize
	oracle := map[key]*content{}
	writing := make([]int, zones) // writes in flight, by zone
	put := func(z int, b int64, data, oob []byte) {
		c := oracle[key{int64(z), b}]
		if c == nil {
			c = &content{}
			oracle[key{int64(z), b}] = c
		}
		c.data = data
		if oob != nil {
			c.oob = oob
		}
	}
	// each runs an admin command on every side; the results must agree.
	each := func(step int, cmd func(d *Device) error) error {
		err := cmd(d)
		for _, s := range sides[1:] {
			if e := cmd(s.d); fmt.Sprint(e) != fmt.Sprint(err) {
				t.Fatalf("seed %d step %d: an admin command returns %v with StoreData, %v without", seed, step, err, e)
			}
		}
		return err
	}
	// stepAll fires the next event of every side. They must agree on
	// whether there is one, its time, the events left and the completions
	// it delivered.
	seen := 0 // completions already compared
	stepAll := func(step int) bool {
		more := eng.Step()
		want := sides[0].done[seen:]
		for _, s := range sides[1:] {
			if s.eng.Step() != more || s.eng.Now() != eng.Now() || s.eng.Pending() != eng.Pending() {
				t.Fatalf("seed %d step %d: the twin's engine diverges (now %d, %d pending; want %d, %d)",
					seed, step, s.eng.Now(), s.eng.Pending(), eng.Now(), eng.Pending())
			}
			if got := s.done[seen:]; !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: the twin completed %+v, want %+v", seed, step, got, want)
			}
		}
		seen = len(sides[0].done)
		return more
	}
	// verify compares a read of [lba, lba+n) of zone z with the oracle.
	verify := func(step, z int, lba, n int64, r ReadResult, withOOB bool) {
		t.Helper()
		for i := int64(0); i < n; i++ {
			want, wantOOB := make([]byte, bs), []byte(nil)
			if c := oracle[key{int64(z), lba + i}]; c != nil {
				want, wantOOB = c.data, c.oob
			}
			if got := r.Data[int(i)*bs : int(i+1)*bs]; !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: zone %d block %d reads data[0] %#x, want %#x", seed, step, z, lba+i, got[0], want[0])
			}
			if withOOB && !bytes.Equal(r.OOB[i], wantOOB) {
				t.Fatalf("seed %d step %d: zone %d block %d reads OOB %q, want %q", seed, step, z, lba+i, r.OOB[i], wantOOB)
			}
		}
	}
	whole := readOp{d: d, n: cfg.ZoneBlocks, dst: make([]byte, int(cfg.ZoneBlocks)*bs),
		oob: make([][]byte, cfg.ZoneBlocks), oobMem: make([]byte, int(cfg.ZoneBlocks)*cfg.OOBBytesPerBlock)}
	check := func(step int) {
		t.Helper()
		checkBuffered(d)
		for _, s := range sides[1:] {
			checkBuffered(s.d)
			st, want := s.d.Stats(), d.Stats()
			if st.BufCopiedBytes = want.BufCopiedBytes; st != want {
				t.Fatalf("seed %d step %d: the twin's flash counters %+v, want %+v", seed, step, st, want)
			}
		}
		if held, most := d.media.InUse(), extentsHeld(d); held > most {
			t.Fatalf("seed %d step %d: the stores hold %d extents, their zones' written blocks %d", seed, step, held, most)
		}
		for z := 0; z < zones; z++ {
			whole.zn = d.zones[z]
			clear(whole.oob)
			verify(step, z, 0, cfg.ZoneBlocks, whole.gather(), true)
		}
	}
	// write submits n random blocks at lba of zone z, copied or owned,
	// and keeps the oracle in step with it.
	write := func(step, z int, lba, n int64) {
		zn := d.zones[z]
		data := make([]byte, int(n)*bs)
		rng.Read(data)
		// Whether a block carries an OOB record is a property of the
		// block, not of the write: a rewrite without one would keep
		// the record of a copy a power cut hardened at that offset.
		oob := make([][]byte, n)
		for i := range oob {
			if b := lba + int64(i); b%4 != 3 {
				oob[i] = []byte(fmt.Sprintf("z%d b%d step%d", z, b, step))
			}
		}
		apply := func() {
			for i := int64(0); i < n; i++ {
				put(z, lba+i, data[int(i)*bs:int(i+1)*bs], oob[i])
			}
		}
		zrwa := zn.zrwa
		writing[z]++
		if zrwa {
			apply() // buffered at submission
		}
		var own *buf.Buf
		if rng.Intn(2) == 0 {
			own = pool.Get(len(data), 0)
			copy(own.Bytes(), data)
		}
		for _, s := range sides {
			done := func(r WriteResult) { s.log(step, false, r.Err, r.Latency) }
			if s.d == d {
				done = func(r WriteResult) {
					s.log(step, false, r.Err, r.Latency)
					writing[z]--
					if r.Err != nil {
						t.Errorf("seed %d step %d: write: %v", seed, step, r.Err)
					}
					if !zrwa {
						apply() // programmed just before the completion
					}
					for i := int64(0); i < n; i++ {
						oracle[key{int64(z), lba + i}].acked = true
					}
				}
			}
			if own == nil {
				s.d.Write(z, lba, int(n), data, oob, TagUserData, done)
				continue
			}
			if s.d != d {
				own.Retain() // each side takes one reference
			}
			s.d.WriteOwned(z, lba, int(n), own.Bytes(), oob, TagUserData, own, done)
		}
	}
	for step := 0; step < 500; step++ {
		z := rng.Intn(zones)
		zn := d.zones[z]
		switch op := rng.Intn(24); {
		case zn.state == ZoneEmpty:
			zrwa := rng.Intn(4) != 0
			if err := each(step, func(d *Device) error { return d.Open(z, zrwa) }); err != nil {
				t.Fatal(err)
			}
		case zn.state == ZoneFull || op == 0:
			// A host resets a zone only once its own writes to it have
			// completed; the flash programs behind them may still be in
			// flight, retiring into the next tenant's buffer or, after a
			// power cut, recycling their blocks.
			for writing[z] > 0 && stepAll(step) {
				check(step)
			}
			each(step, func(d *Device) error { d.Reset(z, nil); return nil })
			for b := int64(0); b < cfg.ZoneBlocks; b++ {
				delete(oracle, key{int64(z), b})
			}
			if rng.Intn(2) == 0 {
				// Refill at once, so the next tenant's blocks are buffered
				// and committed while the erased one's programs still run.
				if err := each(step, func(d *Device) error { return d.Open(z, true) }); err != nil {
					t.Fatal(err)
				}
				n := 1 + rng.Int63n(cfg.ZRWABlocks)
				write(step, z, 0, n)
				each(step, func(d *Device) error { return d.CommitZRWA(z, n) })
			}
		case op == 1:
			each(step, func(d *Device) error { return d.Finish(z) })
		case op == 2:
			each(step, func(d *Device) error { return d.Close(z) })
		case op == 3:
			each(step, func(d *Device) error { d.PowerLoss(); return nil })
			clear(writing) // the writes in flight died with the power
			for k, c := range oracle {
				switch {
				case k[1] < d.zones[k[0]].wp: // committed: hardened as it is
				case c.acked:
					c.hardData, c.hardOOB, c.acked = c.data, c.oob, false
				case c.hardData != nil: // dirty and never acknowledged: dropped
					c.data, c.oob = c.hardData, c.hardOOB
				default:
					delete(oracle, k)
				}
			}
		case op < 7 && zn.zrwa:
			upTo := zn.wp + rng.Int63n(cfg.ZRWABlocks+1)
			each(step, func(d *Device) error { return d.CommitZRWA(z, upTo) })
		case op < 11:
			lba, n := rng.Int63n(cfg.ZoneBlocks), 1+rng.Int63n(2*flash.ExtentBlocks)
			if zn.zrwa && rng.Intn(2) == 0 {
				// A few blocks in the window: often all buffered, read from DRAM.
				lba, n = min(zn.wp+rng.Int63n(cfg.ZRWABlocks), cfg.ZoneBlocks-1), 1+rng.Int63n(4)
			}
			n = min(n, cfg.ZoneBlocks-lba)
			var dst []byte
			if rng.Intn(2) == 0 {
				dst = make([]byte, int(n)*bs)
			}
			withOOB := rng.Intn(2) == 0
			d.ReadInto(z, lba, int(n), dst, withOOB, func(r ReadResult) {
				sides[0].log(step, true, r.Err, r.Latency)
				if r.Err != nil || (dst != nil && &r.Data[0] != &dst[0]) {
					t.Errorf("seed %d step %d: read: err %v, own destination returned %v", seed, step, r.Err, dst == nil || &r.Data[0] == &dst[0])
					return
				}
				verify(step, z, lba, n, r, withOOB)
			})
			for _, s := range sides[1:] {
				s.d.ReadInto(z, lba, int(n), dst, withOOB, func(r ReadResult) {
					s.log(step, true, r.Err, r.Latency)
					if r.Data != nil || r.OOB != nil {
						t.Errorf("seed %d step %d: a read without StoreData returned %d bytes and %d OOB records", seed, step, len(r.Data), len(r.OOB))
					}
				})
			}
		default:
			n := int64(1 + rng.Intn(4))
			lba := zn.wp // sequential zones take writes at the pointer only
			if zn.zrwa {
				// Up to half a window ahead of the window's end: shifts it.
				lba += rng.Int63n(cfg.ZRWABlocks * 3 / 2)
			}
			if lba+n > cfg.ZoneBlocks {
				continue
			}
			write(step, z, lba, n)
		}
		check(step)
		// Leave a random amount of work in flight behind the next step.
		for n := rng.Intn(12); n > 0 && stepAll(step); n-- {
			check(step)
		}
	}
	for stepAll(-1) {
		check(-1)
	}
	check(-1)
	if st := d.Stats(); st.TotalProgrammed() == 0 || st.AbsorbedBytes == 0 || st.Erases == 0 {
		t.Fatalf("seed %d exercised too little: %+v", seed, st)
	}
	for z := 0; z < zones; z++ {
		each(-1, func(d *Device) error { d.Reset(z, nil); return nil })
	}
	clear(oracle) // every block reads as zeros while the programs retire
	check(-1)
	for stepAll(-1) {
		check(-1)
	}
	if got := d.media.InUse(); got != 0 {
		t.Fatalf("seed %d: %d extents in use after every zone was reset", seed, got)
	}
	for _, s := range sides {
		if s.d.pool.RawLive() != 0 {
			t.Fatalf("seed %d: %d scratch slabs still out with nothing buffered", seed, s.d.pool.RawLive())
		}
	}
	if pool.Live() != 0 {
		t.Fatalf("seed %d: %d owned payloads still out with nothing buffered", seed, pool.Live())
	}
}

// TestStoreDataRefillAllocFree gates the flash store's steady state: once
// a zone has been filled and reset, refilling it with payload and OOB
// allocates nothing — the buffer scratch comes back from the retired
// programs, the extents from the reset — and a reset zone holds no extent.
func TestStoreDataRefillAllocFree(t *testing.T) {
	cfg := TestConfig()
	eng := sim.NewEngine()
	d, err := New(eng, cfg)
	if err != nil {
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
	inUse := 0
	cycle := func() {
		if err := d.Open(0, true); err != nil {
			failed = err
		}
		for lba := int64(0); lba < cfg.ZoneBlocks; lba += int64(n) {
			d.Write(0, lba, n, data, oob, TagUserData, done) // shifts the window: commits the one before
			eng.Run()
		}
		if err := d.Finish(0); err != nil {
			failed = err
		}
		eng.Run()
		inUse = d.media.InUse()
		d.Reset(0, nil)
		eng.Run()
	}
	cycle()
	if want := int(cfg.ZoneBlocks) / flash.ExtentBlocks; inUse != want {
		t.Fatalf("a full zone holds %d extents, want %d", inUse, want)
	}
	allocs := testing.AllocsPerRun(20, cycle)
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Fatalf("refilling a reset zone allocates %.1f objects/op, want 0", allocs)
	}
	if got := d.media.InUse(); got != 0 {
		t.Fatalf("%d extents in use after the reset, want 0", got)
	}
}

// TestReadIntoAllocFree: a read into a supplied buffer allocates nothing,
// whether the blocks are served from the write buffer or from flash.
func TestReadIntoAllocFree(t *testing.T) {
	eng, d := newTestDev(t)
	bs := d.cfg.BlockSize
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	const flash, buffered = 8, 8
	for b := int64(0); b < flash+buffered; b++ {
		writeSync(eng, d, 0, b, 1, block(byte(b), bs), TagUserData)
	}
	if err := d.CommitZRWA(0, flash); err != nil {
		t.Fatal(err)
	}
	runChecked(eng, d)
	for _, tc := range []struct {
		name string
		lba  int64
	}{{"flash", 0}, {"buffered", flash}} {
		dst := make([]byte, 4*bs)
		var res ReadResult
		done := func(r ReadResult) { res = r }
		read := func() {
			d.ReadInto(0, tc.lba, 4, dst, false, done)
			eng.Run()
		}
		allocs := testing.AllocsPerRun(100, read)
		if res.Err != nil || !bytes.Equal(res.Data[3*bs:], block(byte(tc.lba+3), bs)) || &res.Data[0] != &dst[0] {
			t.Fatalf("%s read: err %v, wrong content or not the destination supplied", tc.name, res.Err)
		}
		if allocs != 0 {
			t.Errorf("%s read into a supplied buffer allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

// TestStoreRejectsWhatItCannotHold: with StoreData a write whose OOB record
// exceeds the per-block quota and a read whose destination has the wrong
// size fail like any other malformed command, touching nothing.
func TestStoreRejectsWhatItCannotHold(t *testing.T) {
	eng, d := newTestDev(t)
	bs := d.cfg.BlockSize
	long := [][]byte{make([]byte, d.cfg.OOBBytesPerBlock+1)}
	var werr, rerr error
	d.Write(0, 0, 1, block(1, bs), long, TagUserData, func(r WriteResult) { werr = r.Err })
	d.ReadInto(0, 0, 2, make([]byte, bs), false, func(r ReadResult) { rerr = r.Err })
	runChecked(eng, d)
	if werr == nil || rerr == nil {
		t.Fatalf("oversized OOB record: %v; short read destination: %v; want both rejected", werr, rerr)
	}
	if info, _ := d.ZoneInfo(0); info.State != ZoneEmpty || d.media.InUse() != 0 {
		t.Fatalf("a rejected write left zone 0 %v with %d extents", info.State, d.media.InUse())
	}
}
