package core

// The mapping tables cross-checked: the BMT, the SMT and every zone's
// reverse map hold the same placement three ways, and the zones' valid
// counts steer GC. checkTables is the net under the reverse map, which
// keeps only stripe numbers and leaves liveness to the SMT.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/pagetab"
	"biza/internal/sim"
	"biza/internal/zns"
)

// checkTables reports the first disagreement among the array's mapping
// tables, or nil. It checks four things:
//   - the BMT and the SMT agree on every live block: each chunk an SMT entry
//     holds live is its block's BMT mapping, in that stripe and at that
//     address, and the BMT maps no other block;
//   - every live block's slot names, in its zone's reverse map, the stripe
//     its BMT entry names;
//   - every data slot of a reverse map is in its stripe's chunk list, and
//     every parity slot in its stripe's parity list;
//   - each zone's valid count equals a recount: its parity slots plus its
//     data slots whose stripe holds them live.
//
// A slot may name a stripe the SMT no longer has: recovery drops a stripe
// that never wrote all its parity, and only its live slots are cleared.
func (c *Core) checkTables() error {
	var err error
	live := 0
	c.smt.Range(func(sn int64, se *smtEntry) bool {
		n := uint8(0)
		for i, lbn1 := range se.lbns() {
			if lbn1 == 0 {
				continue
			}
			lbn := int64(lbn1) - 1
			n++
			if e := c.bmt.Get(lbn); !e.mapped() || int64(e.sn) != sn || e.loc() != se.chunks()[i] {
				err = fmt.Errorf("stripe %d chunk %d carries block %d at %+v, but the BMT maps it to %+v in stripe %d",
					sn, i, lbn, se.chunks()[i], e.loc(), e.sn)
				return false
			}
		}
		if n != se.valid {
			err = fmt.Errorf("stripe %d holds %d live chunks and counts %d", sn, n, se.valid)
			return false
		}
		live += int(n)
		return true
	})
	if err != nil {
		return err
	}
	mapped := 0
	c.bmt.Range(func(lbn int64, e bmtEntry) bool {
		if !e.mapped() {
			return true
		}
		mapped++
		at := e.loc()
		if zs := c.devs[at.dev].zones[at.zone]; zs == nil || zs.stripeAt(int64(at.off)) != int64(e.sn) {
			err = fmt.Errorf("block %d is in stripe %d at %+v, whose slot names another stripe", lbn, e.sn, at)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if mapped != live {
		return fmt.Errorf("the BMT maps %d blocks and the SMT holds %d live chunks", mapped, live)
	}
	for _, ds := range c.devs {
		for _, zs := range ds.zones {
			if zs == nil {
				continue
			}
			at := pa{dev: int16(ds.id), zone: uint16(zs.id)}
			var valid int64
			for off := range zs.rmap {
				at.off = uint32(off)
				if sn := zs.parityAt(int64(off)); sn >= 0 {
					valid++
					if se := c.smt.Get(sn); se != nil && !slices.Contains(se.parity(), at) {
						return fmt.Errorf("%+v is a parity slot of stripe %d, whose parity is %+v", at, sn, se.parity())
					}
				}
				sn := zs.stripeAt(int64(off))
				se := c.smt.Get(sn)
				if sn < 0 || se == nil {
					continue
				}
				i := slices.Index(se.chunks(), at)
				if i < 0 {
					return fmt.Errorf("%+v is a data slot of stripe %d, whose chunks are %+v", at, sn, se.chunks())
				}
				if se.lbns()[i] != 0 {
					valid++
				}
			}
			if valid != zs.valid {
				return fmt.Errorf("device %d zone %d counts %d valid slots, recount %d", ds.id, zs.id, zs.valid, valid)
			}
		}
	}
	return nil
}

// assertTables fails the test at the first disagreement checkTables finds.
func assertTables(t *testing.T, c *Core) {
	t.Helper()
	if err := c.checkTables(); err != nil {
		t.Fatal(err)
	}
}

// TestSMTEntryBytesAllocFree holds a 3+1 stripe's SMT entry, its parity,
// chunk and block slots included, to 71 bytes of heap: a 24-byte entry,
// four 8-byte slots and three 4-byte blocks, 68 bytes, and the size
// classes' rounding of the slab's three arrays (70.2 measured). The SMT holds one per
// stripe written, so this is much of BIZA's live heap. The figure is what
// fresh entries allocate over many slabs; none of it is garbage.
func TestSMTEntryBytesAllocFree(t *testing.T) {
	if got := unsafe.Sizeof(smtEntry{}); got > 24 {
		t.Fatalf("an SMT entry is %d bytes, want at most 24", got)
	}
	_, c, _ := newTestCore(t, nil)
	if k, m := c.nData, c.cfg.Parity; k != 3 || m != 1 {
		t.Fatalf("test array is %d+%d, want 3+1", k, m)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100 * smtSlabLen
	ents := make([]*smtEntry, 0, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		ents = append(ents, c.getSE())
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.1f heap bytes per 3+1 stripe", per)
	if per > 71 {
		t.Fatalf("a 3+1 stripe's SMT entry costs %.1f heap bytes, want at most 71", per)
	}
	runtime.KeepAlive(ents)
}

// TestSMTSlabAllocFree: fresh SMT entries come a slab at a time, and a slab
// is three allocations (entries, slots, blocks), not one more for a header
// of its own.
func TestSMTSlabAllocFree(t *testing.T) {
	_, c, _ := newTestCore(t, nil)
	const slabs = 100
	ents := make([]*smtEntry, 0, slabs*smtSlabLen)
	allocs := testing.AllocsPerRun(1, func() {
		ents = ents[:0]
		for i := 0; i < slabs*smtSlabLen; i++ {
			ents = append(ents, c.getSE())
		}
	}) / slabs
	if allocs > 3 {
		t.Fatalf("a slab of %d SMT entries takes %.2f allocations, want at most 3", smtSlabLen, allocs)
	}
	runtime.KeepAlive(ents)
}

// TestBMTEntryBytesAllocFree holds the BMT to 12 bytes an entry and at
// most 12.5 bytes of heap a mapped block, page headers and size classes
// included: a 256-entry page is 3 072 bytes of entries in a 3 200-byte
// size class. The BMT holds one entry per logical block written, so on a
// large array it is the biggest table.
func TestBMTEntryBytesAllocFree(t *testing.T) {
	if got := unsafe.Sizeof(bmtEntry{}); got != 12 {
		t.Fatalf("a BMT entry is %d bytes, want 12", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var bmt pagetab.Table[bmtEntry]
	const n = 400 * pagetab.PageSize
	bmt.Set(n-1, bmtEntry{}) // the directory, at its full length
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for lbn := int64(0); lbn < n; lbn++ {
		bmt.Set(lbn, mapTo(pa{dev: 2, zone: 7, off: uint32(lbn)}, lbn))
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.2f heap bytes per mapped block", per)
	if per > 12.5 {
		t.Fatalf("the BMT costs %.2f heap bytes per mapped block, want at most 12.5", per)
	}
	runtime.KeepAlive(&bmt)
}

// TestStripeNumbersStopAtBound drives the next stripe number to maxSN:
// the stripe it opens is written and read back like any other, and the
// write after it, which needs stripe maxSN+1, fails with errStripeNumbers
// without disturbing what the array holds. Recovery adopts maxSN, and a
// record naming a stripe beyond it fails Recover with the same error.
func TestStripeNumbersStopAtBound(t *testing.T) {
	eng, c, devs := newTestCore(t, nil)
	c.nextSN = maxSN
	k := int64(c.nData)
	data := blockdev.Pattern(3, int(k)*4096)
	if r := blockdev.WriteSync(eng, c, 0, int(k), data); r.Err != nil {
		t.Fatalf("the stripe numbered maxSN: %v", r.Err)
	}
	if e := c.bmt.Get(0); int64(e.sn) != maxSN || c.smt.Get(maxSN) == nil {
		t.Fatalf("block 0 is in stripe %d, want maxSN = %d", e.sn, int64(maxSN))
	}
	r := blockdev.WriteSync(eng, c, k, 1, blockdev.Pattern(4, 4096))
	if !errors.Is(r.Err, errStripeNumbers) {
		t.Fatalf("a write past maxSN: %v, want %v", r.Err, errStripeNumbers)
	}
	eng.Run()
	if got := blockdev.ReadSync(eng, c, 0, int(k)); got.Err != nil || !bytes.Equal(got.Data, data) {
		t.Fatalf("the blocks in stripe maxSN read back wrong after the refused write (err %v)", got.Err)
	}
	if e := c.bmt.Get(k); e.mapped() {
		t.Fatalf("the refused block is mapped at %+v", e.loc())
	}
	assertTables(t, c)
	assertNoStrayRecords(t, c)

	recoverAll := func(seed uint64) (*Core, error) {
		t.Helper()
		var nq []*nvme.Queue
		for i, d := range devs {
			c.devs[i].q.Kill()
			d.PowerLoss()
			nq = append(nq, nvme.New(d, nvme.Config{Seed: seed + uint64(i)}))
		}
		var rc *Core
		var rerr error
		called := false
		Recover(nq, c.cfg, nil, func(n *Core, err error) { rc, rerr, called = n, err, true })
		eng.Run()
		if !called {
			t.Fatal("recovery did not complete")
		}
		return rc, rerr
	}
	rc, err := recoverAll(500)
	if err != nil {
		t.Fatal(err)
	}
	if rc.nextSN != maxSN+1 {
		t.Fatalf("recovered next stripe number %d, want %d", rc.nextSN, int64(maxSN)+1)
	}
	assertTables(t, rc)

	// A data record of stripe maxSN+1 in an empty zone, as a corrupt or
	// foreign member would hold: the zone scan finds it and Recover refuses
	// the array.
	c = rc
	z := 0
	for info, _ := devs[0].ZoneInfo(z); info.State != zns.ZoneEmpty; info, _ = devs[0].ZoneInfo(z) {
		z++
	}
	oob := c.encodeOOB(oobKindData, 0, maxSN+1, c.seq+1, 0)
	werr := errors.New("the record's write never completed")
	devs[0].Write(z, 0, 1, nil, [][]byte{oob}, zns.TagUserData, func(r zns.WriteResult) { werr = r.Err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	if _, err := recoverAll(600); !errors.Is(err, errStripeNumbers) {
		t.Fatalf("Recover over a record of stripe maxSN+1: %v, want %v", err, errStripeNumbers)
	}
}

// TestRecoverRefusesRecordOutsideArray: the SMT holds a chunk's block + 1
// in 32 bits and a stripe's chunks in a row of k, so a data record naming a
// block past the array or a chunk index past k, as a corrupt or foreign
// member would hold, fails Recover instead of wrapping or overrunning.
func TestRecoverRefusesRecordOutsideArray(t *testing.T) {
	tests := []struct {
		name string
		lbn  func(c *Core) int64
		idx  func(c *Core) int
	}{
		{"block past the array", func(c *Core) int64 { return c.Blocks() }, func(*Core) int { return 0 }},
		{"block 2^32 - 1", func(*Core) int64 { return 1<<32 - 1 }, func(*Core) int { return 0 }},
		{"chunk index k", func(*Core) int64 { return 0 }, func(c *Core) int { return c.nData }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng, c, devs := newTestCore(t, nil)
			oob := c.encodeOOB(oobKindData, tc.lbn(c), 0, 1, tc.idx(c))
			werr := errors.New("the record's write never completed")
			devs[0].Write(0, 0, 1, nil, [][]byte{oob}, zns.TagUserData, func(r zns.WriteResult) { werr = r.Err })
			eng.Run()
			if werr != nil {
				t.Fatal(werr)
			}
			var nq []*nvme.Queue
			for i, d := range devs {
				c.devs[i].q.Kill()
				d.PowerLoss()
				nq = append(nq, nvme.New(d, nvme.Config{Seed: uint64(i)}))
			}
			var rerr error
			called := false
			Recover(nq, c.cfg, nil, func(_ *Core, err error) { rerr, called = err, true })
			eng.Run()
			if !called || rerr == nil || !strings.Contains(rerr.Error(), "outside the array") {
				t.Fatalf("Recover over the record: %v (completed %v), want a refusal naming it outside the array", rerr, called)
			}
		})
	}
}

// TestRecoverDropsStripeMissingParity cuts power after a stripe's first
// chunk reached its member but before the stripe's parity did. Recovery
// must forget the chunk, which was never acknowledged, and count it out of
// its zone: the one place Recover clears a live slot, which a crash after
// a drain never reaches. A first identical run finds the parity member;
// the second delays that member's writes past the cut.
func TestRecoverDropsStripeMissingParity(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	mustWrite(t, eng, c, 0, 1, blockdev.Pattern(1, 4096))
	eng.Run()
	e := c.bmt.Get(0)
	pdev := int(c.smt.Get(int64(e.sn)).parity()[0].dev)

	eng, c, devs := newTestCore(t, nil)
	attachPlan(t, c, &fault.Spec{Rules: []fault.Rule{
		{Kind: fault.Latency, Dev: pdev, Op: fault.Write, Delay: 2 * sim.Millisecond},
	}}, 1)
	acked := false
	c.Write(0, 1, blockdev.Pattern(1, 4096), func(blockdev.WriteResult) { acked = true })
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if acked || c.bmt.Get(0) != e {
		t.Fatalf("before the cut: acked %v, block 0 at %+v, want unacknowledged at %+v", acked, c.bmt.Get(0), e)
	}
	var nq []*nvme.Queue
	for i, d := range devs {
		c.devs[i].q.Kill()
		d.PowerLoss()
		nq = append(nq, nvme.New(d, nvme.Config{Seed: uint64(i) + 300}))
	}
	var rc *Core
	Recover(nq, c.cfg, nil, func(n *Core, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rc = n
	})
	eng.Run()
	if rc == nil {
		t.Fatal("recovery did not complete")
	}
	at := e.loc()
	if got := rc.bmt.Get(0); got.mapped() || rc.smt.Get(int64(e.sn)) != nil {
		t.Fatalf("block 0 recovered at %+v in stripe %d, whose parity never landed", got.loc(), e.sn)
	}
	zs := rc.devs[at.dev].zones[at.zone]
	if zs == nil {
		t.Fatalf("no zone state at %+v, where the dropped chunk landed", at)
	}
	if zs.valid != 0 || zs.stripeAt(int64(at.off)) != -1 {
		t.Fatalf("the dropped chunk's zone counts %d valid slots and its slot names stripe %d, want 0 and -1",
			zs.valid, zs.stripeAt(int64(at.off)))
	}
	assertTables(t, rc)
}
