package core

import (
	"bytes"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func TestReplaceDeviceRebuildsRedundancy(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	rng := sim.NewRNG(404)
	want := map[int64]byte{}
	for i := 0; i < 500; i++ {
		lba := rng.Int63n(c.Blocks() / 8)
		seed := byte(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(seed, 4096)); r.Err == nil {
			want[lba] = seed
		}
	}
	eng.Run()

	// Member 2 dies; hot-swap in a fresh device and rebuild.
	dc := devConfig()
	dc.Seed = 999
	nd, err := zns.New(eng, dc)
	if err != nil {
		t.Fatal(err)
	}
	nq := nvme.New(nd, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 444})
	var rerr error
	okR := false
	c.ReplaceDevicePaced(2, nq, RebuildControl{}, func(err error) { rerr = err; okR = true })
	eng.Run()
	if !okR || rerr != nil {
		t.Fatalf("rebuild ok=%v err=%v", okR, rerr)
	}
	assertTables(t, c)

	// All data intact, with no degraded flag set.
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("post-rebuild lba %d: %v", lba, r.Err)
		}
	}
	// Redundancy restored: any single member may fail and reads survive.
	for dev := 0; dev < 4; dev++ {
		c.SetDeviceFailed(dev, true)
		for lba, seed := range want {
			r := blockdev.ReadSync(eng, c, lba, 1)
			if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
				t.Fatalf("post-rebuild degraded (dev %d) lba %d: %v", dev, lba, r.Err)
			}
		}
		c.SetDeviceFailed(dev, false)
	}
	// The fresh member participates in new writes.
	for i := 0; i < 200; i++ {
		mustWrite(t, eng, c, int64(i), 1, blockdev.Pattern(byte(i), 4096))
	}
	eng.Run()
	if nd.Stats().TotalProgrammed() == 0 && nd.Stats().AbsorbedBytes == 0 {
		t.Fatal("replacement device received no traffic")
	}
	assertNoStrayRecords(t, c)
}

func TestReplaceDeviceGeometryMismatch(t *testing.T) {
	eng, c, _ := newTestCore(t, nil)
	dc := devConfig()
	dc.ZoneBlocks = 128 // wrong geometry
	nd, _ := zns.New(eng, dc)
	nq := nvme.New(nd, nvme.Config{})
	var rerr error
	c.ReplaceDevicePaced(0, nq, RebuildControl{}, func(err error) { rerr = err })
	eng.Run()
	if rerr == nil {
		t.Fatal("accepted mismatched replacement")
	}
	if err := c.SetDeviceFailed(9, true); err == nil {
		t.Fatal("accepted out-of-range device")
	}
	_ = blockdev.ErrOutOfRange
}
