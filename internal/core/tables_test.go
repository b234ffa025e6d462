package core

// The mapping tables cross-checked: the BMT, the SMT and every zone's
// reverse map hold the same placement three ways, and the zones' valid
// counts steer GC. checkTables is the net under the reverse map, which
// keeps only stripe numbers and leaves liveness to the SMT.

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/nvme"
	"biza/internal/sim"
)

// checkTables reports the first disagreement among the array's mapping
// tables, or nil. It checks three things:
//   - the BMT and the SMT agree on every live block: each chunk an SMT entry
//     holds live is its block's BMT mapping, in that stripe and at that
//     address, and the BMT maps no other block;
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
		for i, lbn := range se.lbns {
			if lbn < 0 {
				continue
			}
			n++
			if e := c.bmt.Get(lbn); !e.mapped() || e.sn != sn || e.loc() != se.chunks[i] {
				err = fmt.Errorf("stripe %d chunk %d carries block %d at %+v, but the BMT maps it to %+v in stripe %d",
					sn, i, lbn, se.chunks[i], e.loc(), e.sn)
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
	c.bmt.Range(func(_ int64, e bmtEntry) bool {
		if e.mapped() {
			mapped++
		}
		return true
	})
	if mapped != live {
		return fmt.Errorf("the BMT maps %d blocks and the SMT holds %d live chunks", mapped, live)
	}
	for _, ds := range c.devs {
		for _, zs := range ds.zones {
			if zs == nil {
				continue
			}
			at := pa{dev: int32(ds.id), zone: int32(zs.id)}
			var valid int64
			for off := range zs.rmap {
				at.off = int64(off)
				if sn := zs.parityAt(at.off); sn >= 0 {
					valid++
					if se := c.smt.Get(sn); se != nil && !slices.Contains(se.parity, at) {
						return fmt.Errorf("%+v is a parity slot of stripe %d, whose parity is %+v", at, sn, se.parity)
					}
				}
				sn := zs.stripeAt(at.off)
				se := c.smt.Get(sn)
				if sn < 0 || se == nil {
					continue
				}
				i := slices.Index(se.chunks, at)
				if i < 0 {
					return fmt.Errorf("%+v is a data slot of stripe %d, whose chunks are %+v", at, sn, se.chunks)
				}
				if se.lbns[i] >= 0 {
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

// TestSMTEntryBytesAllocFree holds a 3+1 stripe's SMT entry, its chunk,
// parity and block slots included, to 192 bytes of heap. The SMT holds one
// per stripe written, so this is most of BIZA's live heap. The figure is
// what fresh entries allocate, slab arrays and size classes included, over
// many slabs; none of it is garbage.
func TestSMTEntryBytesAllocFree(t *testing.T) {
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
	if per > 192 {
		t.Fatalf("a 3+1 stripe's SMT entry costs %.1f heap bytes, want at most 192", per)
	}
	runtime.KeepAlive(ents)
}

// TestRecoverDropsStripeMissingParity cuts power after a stripe's first
// chunk reached its member but before the stripe's parity did. Recovery
// must forget the chunk, which was never acknowledged, and count it out of
// its zone: the one place Recover clears a live slot, which a crash after
// a drain never reaches. A first identical run finds the parity member;
// the second delays that member's writes past the cut.
func TestRecoverDropsStripeMissingParity(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	blockdev.WriteSync(eng, c, 0, 1, blockdev.Pattern(1, 4096))
	eng.Run()
	e := c.bmt.Get(0)
	pdev := int(c.smt.Get(e.sn).parity[0].dev)

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
	if got := rc.bmt.Get(0); got.mapped() || rc.smt.Get(e.sn) != nil {
		t.Fatalf("block 0 recovered at %+v in stripe %d, whose parity never landed", got.loc(), e.sn)
	}
	zs := rc.devs[at.dev].zones[at.zone]
	if zs == nil {
		t.Fatalf("no zone state at %+v, where the dropped chunk landed", at)
	}
	if zs.valid != 0 || zs.stripeAt(at.off) != -1 {
		t.Fatalf("the dropped chunk's zone counts %d valid slots and its slot names stripe %d, want 0 and -1",
			zs.valid, zs.stripeAt(at.off))
	}
	assertTables(t, rc)
}
