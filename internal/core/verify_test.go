package core

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
)

// TestVerifyStripesFindsCorruptParity: on a drained RAID 5 and RAID 6
// array, VerifyStripes checks every stripe, sealed and open, and finds
// nothing; once one byte of the open stripe's last parity chunk (P for
// RAID 5, Q for RAID 6) is flipped, it reports exactly that stripe, slot
// and byte.
func TestVerifyStripesFindsCorruptParity(t *testing.T) {
	for _, m := range []int{1, 2} {
		var eng *sim.Engine
		var c *Core
		if m == 1 {
			eng, c, _ = newTestCore(t, nil)
		} else {
			eng, c, _ = newCore6(t)
		}
		// 32 blocks: full stripes, then an open one.
		const n = 32
		if r := blockdev.WriteSync(eng, c, 0, n, blockdev.Pattern(3, n*c.blockSize)); r.Err != nil {
			t.Fatal(r.Err)
		}
		stripes := c.smt.Len()
		if stripes < 2 || c.open[ClassTrivial] == nil {
			t.Fatalf("RAID %d: %d stripes, open %v: want sealed ones and an open one", 4+m, stripes, c.open[ClassTrivial] != nil)
		}
		if checked := c.VerifyStripes(func(x StripeMismatch) {
			t.Fatalf("RAID %d: clean array reports %+v", 4+m, x)
		}); checked != stripes {
			t.Fatalf("RAID %d: checked %d of %d stripes", 4+m, checked, stripes)
		}
		sn, slot, at := c.open[ClassTrivial].sn, m-1, 5
		p := c.smt.Get(sn).parity()[slot]
		c.devs[p.dev].q.Device().Contents(int(p.zone), int64(p.off))[at] ^= 0x40
		var got []StripeMismatch
		c.VerifyStripes(func(x StripeMismatch) { got = append(got, x) })
		if want := (StripeMismatch{Stripe: sn, Slot: slot, Byte: at}); len(got) != 1 || got[0] != want {
			t.Fatalf("RAID %d: corrupt parity reported as %+v, want %+v", 4+m, got, want)
		}
	}
}
