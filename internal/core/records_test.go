package core

// Gates on the write path's recycled records (pool.go): the chunk flow
// allocates nothing once warm, records cannot be put back twice or used
// after they are back, and the two completion orders that are easy to get
// wrong with recycled state — a parity generation that completes inside
// issueParity's own loop, and a member dying under appends in flight —
// still deliver every completion exactly once.

import (
	"runtime"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/zns"
)

// assertNoStrayRecords checks that a drained array has every record back
// on its free list: no Write, Read, chunk or device command is in flight, an
// open-stripe record is out only for the stripes still open, and an SMT
// entry only for the stripes still mapped. Its mapping tables must agree
// (checkTables).
func assertNoStrayRecords(t *testing.T, c *Core) {
	t.Helper()
	assertTables(t, c)
	open := 0
	for _, st := range c.open {
		if st != nil {
			open++
		}
	}
	want := recCounts{stripe: open, smt: c.smt.Len()}
	if c.liveRecs != want {
		t.Fatalf("records out after drain = %+v, want %+v", c.liveRecs, want)
	}
}

// TestChunkWriteAllocFree gates the two nil-payload chunk flows of the
// figure experiments once warm: a 16-block Write that appends across
// several stripes, devices and zones, and a rewrite that stays inside the
// ZRWA window and updates data and parity in place. Every block has been
// seen before, so the ghost cache hits. A chunk costs no allocation, on
// whichever page of the BMT, the SMT or a zone's tables it lands. What a
// run of appends still allocates is each zone it opens — zoneAllocs
// objects, the reverse map's one growth step of a 256-block zone included —
// so the append window is laid across the end of every open zone's life and
// held to exactly that.
func TestChunkWriteAllocFree(t *testing.T) {
	perfMode := func(cfg *Config, dcfgs *[]zns.Config) {
		for i := range *dcfgs {
			(*dcfgs)[i].StoreData = false
		}
	}
	done := func(blockdev.WriteResult) {}

	t.Run("append", func(t *testing.T) {
		eng, c, _ := newTestCore(t, perfMode)
		const n = 16
		span := c.Blocks() / 2 / n * n
		for lba := int64(0); lba < span; lba += n {
			blockdev.WriteSync(eng, c, lba, n, nil)
		}
		lba := int64(0)
		step := func() {
			c.Write(lba, n, nil, done)
			eng.Run()
			if lba += n; lba >= span {
				lba = 0
			}
		}
		// room is the fewest free slots of any open group zone that has been
		// written to.
		room := func() int64 {
			least := c.zoneBlocks
			for _, ds := range c.devs {
				for _, group := range ds.groups {
					for _, zs := range group {
						if left := c.zoneBlocks - zs.wpAlloc; zs.wpAlloc > 0 && left < least {
							least = left
						}
					}
				}
			}
			return least
		}
		inGroups := func() map[*zoneState]bool {
			set := map[*zoneState]bool{}
			for _, ds := range c.devs {
				for _, group := range ds.groups {
					for _, zs := range group {
						set[zs] = true
					}
				}
			}
			return set
		}
		// Size every free list and queue, then stop where the zones in use
		// are two thirds full: the 64 Writes measured put about 170 chunks
		// into each of them, so each is finished and replaced once, and the
		// 1024 blocks and ~340 stripes written cross four page boundaries of
		// the BMT and one of the SMT.
		for i := 0; i < 64 || room() < c.zoneBlocks/3 || room() > c.zoneBlocks/2; i++ {
			step()
		}
		appends := c.InPlaceHits()
		before := inGroups()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun does
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 64; i++ {
			step()
		}
		runtime.ReadMemStats(&m1)
		opened := 0
		for zs := range inGroups() {
			if !before[zs] {
				opened++
			}
		}
		// Opening a zone allocates its host-side record, completion bitmap,
		// pin ring and the channel set openNewZone picks it by, plus the
		// directory of its write-buffer table on the device; its reverse map
		// comes with the first write, one step for a 256-block test zone. The
		// slack is for a free list or a full-zone list growing by one.
		const zoneAllocs, slack = 6, 4
		if opened < 8 {
			t.Fatalf("the measured window opened %d zones, want every zone in use replaced", opened)
		}
		if allocs := int(m1.Mallocs - m0.Mallocs); allocs > opened*zoneAllocs+slack {
			t.Fatalf("64 16-block appends opening %d zones allocate %d times, want at most %d per zone and none per chunk",
				opened, allocs, zoneAllocs)
		}
		if c.InPlaceHits() != appends {
			t.Fatal("the measured writes were meant to append, but some went in place")
		}
		assertNoStrayRecords(t, c)
	})

	t.Run("inplace", func(t *testing.T) {
		eng, c, _ := newTestCore(t, perfMode)
		// One full stripe, sealed and still inside every slot's window.
		k := int64(c.nData)
		blockdev.WriteSync(eng, c, 0, int(k), nil)
		lba := int64(0)
		step := func() {
			c.Write(lba, 1, nil, done)
			eng.Run()
			lba = (lba + 1) % k
		}
		for i := 0; i < 16; i++ {
			step()
		}
		hits := c.InPlaceHits()
		const runs = 100
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Fatalf("in-place overwrite allocates %.0f per Write, want 0", allocs)
		}
		if got := c.InPlaceHits() - hits; got != runs+1 { // AllocsPerRun warms up once
			t.Fatalf("%d of %d measured writes went in place", got, runs+1)
		}
		assertNoStrayRecords(t, c)
	})
}

// TestPayloadRMWAllocFree gates the payload read-modify-write once warm:
// an in-place update that carries bytes reads the old chunk and the old
// parity into pool scratch, folds the delta and rewrites both slots, and
// every buffer it drew — the read destinations included — is back when it
// completes.
func TestPayloadRMWAllocFree(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	c.pool.SetPoison(true)
	// One full stripe with content, sealed and still inside every slot's
	// window.
	k := int64(c.nData)
	wbsync(t, eng, c, 0, int(k), 1)
	lba, stamp := int64(0), byte(1)
	done := func(r blockdev.WriteResult) {
		if r.Err != nil {
			t.Errorf("update: %v", r.Err)
		}
	}
	step := func() {
		stamp++
		b := c.pool.Get(c.blockSize, 0)
		fill := b.Bytes()
		for i := range fill {
			fill[i] = stamp
		}
		c.WriteBuf(lba, 1, b, done)
		eng.Run()
		lba = (lba + 1) % k
	}
	for i := 0; i < 16; i++ {
		step()
	}
	hits, live, raw := c.InPlaceHits(), c.pool.Live(), c.pool.RawLive()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("payload in-place update allocates %.0f per Write, want 0", allocs)
	}
	if got := c.InPlaceHits() - hits; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%d of %d measured updates went in place", got, runs+1)
	}
	if c.pool.Live() != live || c.pool.RawLive() != raw {
		t.Fatalf("pool holds %d buffers and %d raw slabs after the updates, %d and %d before: a read destination or a delta leaked",
			c.pool.Live(), c.pool.RawLive(), live, raw)
	}
	assertNoStrayRecords(t, c)
	// The parity the deltas produced still rebuilds the newest content.
	last := (lba + k - 1) % k
	if err := c.SetDeviceFailed(int(c.bmt.Get(last).loc().dev), true); err != nil {
		t.Fatal(err)
	}
	var res blockdev.ReadResult
	c.Read(last, 1, func(r blockdev.ReadResult) { res = r })
	eng.Run()
	if res.Err != nil || len(res.Data) != c.blockSize || res.Data[0] != stamp || res.Data[c.blockSize-1] != stamp {
		t.Fatalf("degraded read of the last update: err %v, want every byte %#x", res.Err, stamp)
	}
}

// TestRecordDiscipline: with the array pool's poison switch on, putting a
// record back twice panics, and so does a completion arriving through a
// record that is already back.
func TestRecordDiscipline(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	_, c, _ := newTestCore(t, nil)
	c.pool.SetPoison(true)

	w := c.getWrite()
	c.putWrite(w)
	mustPanic("write record put twice", func() { c.putWrite(w) })
	mustPanic("write record used after put", func() { w.chunkDone(0, nil) })

	ch := c.getChunk()
	c.putChunk(ch)
	mustPanic("chunk record put twice", func() { c.putChunk(ch) })
	mustPanic("chunk record completed after put", func() { ch.ioDone(nil) })
	mustPanic("chunk record fired after put", func() { ch.Fire(fireAppend, 0) })

	b := c.getBatch()
	c.putBatch(b)
	mustPanic("batch record put twice", func() { c.putBatch(b) })
	mustPanic("batch record completed after put", func() { b.done(zns.WriteResult{}) })

	rd := c.getRead()
	rd.addBlock(pa{}, 0)
	c.putRead(rd)
	mustPanic("read record put twice", func() { c.putRead(rd) })
	mustPanic("read record completed after put", func() { rd.finishOne(nil) })
	mustPanic("read run completed after put", func() { rd.runs[0].complete(zns.ReadResult{}) })
	mustPanic("read record fired after put", func() { rd.Fire(0, 0) })

	se := c.getSE()
	st := c.getStripe()
	st.se = se
	se.holds++
	se.dead = true
	c.putStripe(st)
	mustPanic("stripe record put twice", func() { c.putStripe(st) })
	mustPanic("stripe record completed after put", func() { st.ioDone(nil) })
	mustPanic("SMT entry dropped after put", func() { c.dropSE(se) })
}

// chunkTally is a chunkParent that counts completions per block.
type chunkTally struct {
	done map[int64]int
	errs []error
}

func (p *chunkTally) chunkDone(lbn int64, err error) {
	p.done[lbn]++
	if err != nil {
		p.errs = append(p.errs, err)
	}
}

// TestParityRelocationFailureCompletesSynchronously is the regression test
// for the one completion that runs inside its own submission loop: when a
// stripe's parity slot has slid out of its ZRWA window and the relocation
// cannot allocate, issueParity completes that row on the spot. With one
// parity row the whole generation ends inside the loop and the waiting
// chunk hears the error before its data write has even been delivered;
// with two rows on a stripe sealed by this very chunk, the open-stripe
// record also retires inside the loop. Either way the Write must be
// acknowledged once, with the error, and every record must come home.
func TestParityRelocationFailureCompletesSynchronously(t *testing.T) {
	// wedge makes the stripe's parity rows relocate and fail: their slots
	// are pushed behind the device window, and their devices are left with
	// no zone to allocate from.
	wedge := func(c *Core, st *openStripe) {
		for _, ppa := range st.se.parity {
			pds := c.devs[ppa.dev]
			pds.zones[ppa.zone].maxSubmitted = ppa.off + c.zrwaBlocks
			for _, zs := range pds.groups[st.class] {
				zs.wpAlloc = c.zoneBlocks
			}
			pds.freeZones = nil
		}
	}
	run := func(t *testing.T, c *Core, fill int, write func(lba int64, n int) blockdev.WriteResult) {
		if r := write(0, fill); r.Err != nil {
			t.Fatal(r.Err)
		}
		st := c.open[ClassTrivial]
		if st == nil || st.count != fill {
			t.Fatalf("expected an open stripe holding %d chunks", fill)
		}
		sealing := fill+1 == c.nData
		wedge(c, st)
		r := write(int64(fill), 1)
		if r.Err == nil {
			t.Fatal("write acknowledged without error although its parity could not be placed")
		}
		if sealing && c.open[ClassTrivial] != nil {
			t.Fatal("stripe still open after its last chunk")
		}
		if !sealing && (c.open[ClassTrivial] != st || st.parityBusy || st.waitHead != nil) {
			t.Fatal("open stripe left busy or with waiters after the failed generation")
		}
		assertNoStrayRecords(t, c)
	}
	t.Run("raid5-open", func(t *testing.T) {
		eng, c, _ := newTestCore(t, nil)
		run(t, c, 1, func(lba int64, n int) blockdev.WriteResult {
			return blockdev.WriteSync(eng, c, lba, n, blockdev.Pattern(byte(lba), n*4096))
		})
	})
	t.Run("raid6-sealing", func(t *testing.T) {
		eng, c, _ := newCore6(t)
		run(t, c, c.nData-1, func(lba int64, n int) blockdev.WriteResult {
			return blockdev.WriteSync(eng, c, lba, n, blockdev.Pattern(byte(lba), n*4096))
		})
	})
}

// TestMemberDeathMidAppendAcksEachChunkOnce: a member dies while a burst
// of appends is in flight on it. The chunks it swallowed are acknowledged
// degraded (their content is in the stripe's parity), the others normally,
// and every chunk — failed data write or not, parity row lost or not —
// reports to its parent exactly once, without error.
func TestMemberDeathMidAppendAcksEachChunkOnce(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.DeviceDeath, Dev: 1, AfterOps: 3},
	}}, 11)
	const n = 60
	tally := &chunkTally{done: map[int64]int{}}
	for lbn := int64(0); lbn < n; lbn++ {
		ch := c.getChunk()
		ch.lbn, ch.payload, ch.class, ch.tag, ch.parent = lbn, blockdev.Pattern(byte(lbn), 4096), ClassTrivial, zns.TagUserData, tally
		c.writeChunk(ch)
	}
	eng.Run()
	if len(tally.errs) != 0 {
		t.Fatalf("chunk writes failed under a single member death: %v", tally.errs[0])
	}
	for lbn := int64(0); lbn < n; lbn++ {
		if tally.done[lbn] != 1 {
			t.Fatalf("chunk %d completed %d times, want exactly once", lbn, tally.done[lbn])
		}
	}
	if c.Health()[1] != MemberDegraded {
		t.Fatalf("member 1 not detected dead: %v", c.Health())
	}
	if c.DegradedWrites() == 0 {
		t.Fatal("no chunk was acknowledged degraded: the death missed the appends in flight")
	}
	assertNoStrayRecords(t, c)
	for lbn := int64(0); lbn < n; lbn++ {
		r := blockdev.ReadSync(eng, c, lbn, 1)
		if r.Err != nil || r.Data[0] != blockdev.Pattern(byte(lbn), 1)[0] {
			t.Fatalf("block %d after the death: err=%v", lbn, r.Err)
		}
	}
}
