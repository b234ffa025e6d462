package core

import (
	"slices"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/zns"
)

// TestOOBOnlyWhereKept: a chunk append, a parity generation and an
// in-place rewrite carry an OOB record to a member only if the member keeps
// records (StoreData); a member that would drop them costs no record, and
// its commands carry no OOB vector. Writes without payloads draw nothing
// else from the array's pool, so its draws are exactly the records it
// encoded: none without StoreData, and on a mixed array the sum of what
// each keeping member draws on its own. Written with payloads (a buffered
// block without one reads back nothing, record included), every slot holds
// its record where its member keeps records and none elsewhere. Recovery
// from the records a StoreData array keeps is TestRecoveryRestoresData's
// and the model's.
func TestOOBOnlyWhereKept(t *testing.T) {
	const span = 48
	// run writes span blocks, then the first sixteen again, on an array
	// whose members in keep store data: appends and parity generations,
	// then rewrites in place. It returns the array's pool draws.
	run := func(t *testing.T, payloads bool, keep ...int) (*sim.Engine, *Core, int64) {
		t.Helper()
		eng, c, _ := newTestCore(t, func(_ *Config, dcfgs *[]zns.Config) {
			for i := range *dcfgs {
				(*dcfgs)[i].StoreData = slices.Contains(keep, i)
			}
		})
		data := func(seed byte) []byte {
			if !payloads {
				return nil
			}
			return blockdev.Pattern(seed, 16*c.blockSize)
		}
		for lba := int64(0); lba < span; lba += 16 {
			mustWrite(t, eng, c, lba, 16, data(byte(lba)))
		}
		hits := c.InPlaceHits()
		mustWrite(t, eng, c, 0, 16, data(99))
		if c.InPlaceHits() == hits {
			t.Fatal("no rewrite went in place")
		}
		assertNoStrayRecords(t, c)
		return eng, c, c.pool.Stats().Gets
	}
	// checkRecords reads back the record of every written slot, data and
	// parity: decoded where its member keeps records, absent elsewhere.
	checkRecords := func(t *testing.T, eng *sim.Engine, c *Core) {
		t.Helper()
		check := func(p pa, kind byte, lbn int64, sn int64) {
			var rec []byte
			c.devs[p.dev].q.Device().ReadInto(int(p.zone), int64(p.off), 1, nil, true, func(r zns.ReadResult) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if len(r.OOB) > 0 {
					rec = r.OOB[0]
				}
			})
			eng.Run()
			if !c.devs[p.dev].storeData {
				if rec != nil {
					t.Fatalf("member %d keeps no records, yet slot %+v holds one", p.dev, p)
				}
				return
			}
			k, l, s, _, _, ok := decodeOOB(rec)
			if !ok || k != kind || l != lbn || s != sn {
				t.Fatalf("slot %+v on member %d: record (%d, %d, %d, ok %v), want (%d, %d, %d)", p, p.dev, k, l, s, ok, kind, lbn, sn)
			}
		}
		for lbn := int64(0); lbn < span; lbn++ {
			e := c.bmt.Get(lbn)
			if !e.mapped() {
				t.Fatalf("block %d unmapped", lbn)
			}
			sn := int64(e.sn)
			check(e.loc(), oobKindData, lbn, sn)
			for r, p := range c.smt.Get(sn).parity() {
				check(p, oobKindParity, int64(r), sn)
			}
		}
	}

	t.Run("no member keeps records", func(t *testing.T) {
		_, c, gets := run(t, false)
		if gets != 0 {
			t.Fatalf("%d pool draws, want none", gets)
		}
		for _, b := range c.recs.batch {
			if cap(b.oob) != 0 {
				t.Fatal("a device command was handed an OOB vector")
			}
		}
	})
	t.Run("every member keeps records", func(t *testing.T) {
		if _, _, gets := run(t, false, 0, 1, 2, 3); gets == 0 {
			t.Fatal("no OOB record drawn")
		}
		eng, c, _ := run(t, true, 0, 1, 2, 3)
		checkRecords(t, eng, c)
	})
	t.Run("each member follows its own StoreData", func(t *testing.T) {
		var each [4]int64
		for i := range each {
			_, _, each[i] = run(t, false, i)
			if each[i] == 0 {
				t.Fatalf("member %d keeps records but drew none", i)
			}
		}
		if _, _, all := run(t, false, 0, 1, 2, 3); all != each[0]+each[1]+each[2]+each[3] {
			t.Fatalf("every member keeping records drew %d, the members alone %v", all, each)
		}
		if _, _, gets := run(t, false, 0, 2); gets != each[0]+each[2] {
			t.Fatalf("members 0 and 2 keeping records drew %d, each alone %d and %d", gets, each[0], each[2])
		}
		eng, c, _ := run(t, true, 0, 2)
		checkRecords(t, eng, c)
	})
}
