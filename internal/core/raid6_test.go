package core

// RAID 6 (m = 2) coverage: the paper states the design extends beyond
// RAID 5; these tests exercise dual-parity stripes, double-failure
// reconstruction, in-place RS parity deltas, GC, and recovery.

import (
	"bytes"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func newCore6(t *testing.T) (*sim.Engine, *Core, []*zns.Device) {
	t.Helper()
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	var devs []*zns.Device
	for i := 0; i < 5; i++ {
		dc := devConfig()
		dc.Seed = uint64(i) + 60
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond, Seed: uint64(i) + 600,
		}))
	}
	cfg := DefaultConfig(devConfig().NumZones)
	cfg.Parity = 2
	c, err := New(queues, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, devs
}

func TestRAID6RoundTrip(t *testing.T) {
	eng, c, _ := newCore6(t)
	payload := blockdev.Pattern(4, 24*4096)
	if r := blockdev.WriteSync(eng, c, 0, 24, payload); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := blockdev.ReadSync(eng, c, 0, 24)
	if r.Err != nil || !bytes.Equal(r.Data, payload) {
		t.Fatalf("raid6 round trip: %v", r.Err)
	}
}

func TestRAID6SingleFailure(t *testing.T) {
	eng, c, _ := newCore6(t)
	payload := blockdev.Pattern(7, 12*4096)
	blockdev.WriteSync(eng, c, 0, 12, payload)
	eng.Run()
	for dev := 0; dev < 5; dev++ {
		c.SetDeviceFailed(dev, true)
		r := blockdev.ReadSync(eng, c, 0, 12)
		if r.Err != nil || !bytes.Equal(r.Data, payload) {
			t.Fatalf("dev %d failed: err=%v", dev, r.Err)
		}
		c.SetDeviceFailed(dev, false)
	}
}

func TestRAID6DoubleFailure(t *testing.T) {
	eng, c, _ := newCore6(t)
	payload := blockdev.Pattern(9, 12*4096)
	blockdev.WriteSync(eng, c, 0, 12, payload)
	eng.Run()
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			c.SetDeviceFailed(a, true)
			c.SetDeviceFailed(b, true)
			r := blockdev.ReadSync(eng, c, 0, 12)
			if r.Err != nil || !bytes.Equal(r.Data, payload) {
				t.Fatalf("devs %d+%d failed: err=%v", a, b, r.Err)
			}
			c.SetDeviceFailed(a, false)
			c.SetDeviceFailed(b, false)
		}
	}
}

func TestRAID6DoubleFailureAfterOverwrites(t *testing.T) {
	// In-place RS parity deltas must keep BOTH parities consistent.
	eng, c, _ := newCore6(t)
	for i := 0; i < 9; i++ {
		blockdev.WriteSync(eng, c, int64(i), 1, blockdev.Pattern(byte(i), 4096))
	}
	// Rewrite some blocks several times (in-place path).
	for round := 0; round < 5; round++ {
		blockdev.WriteSync(eng, c, 2, 1, blockdev.Pattern(byte(50+round), 4096))
		blockdev.WriteSync(eng, c, 5, 1, blockdev.Pattern(byte(80+round), 4096))
	}
	eng.Run()
	expect := map[int64]byte{0: 0, 1: 1, 2: 54, 3: 3, 4: 4, 5: 84, 6: 6, 7: 7, 8: 8}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			c.SetDeviceFailed(a, true)
			c.SetDeviceFailed(b, true)
			for lba, seed := range expect {
				r := blockdev.ReadSync(eng, c, lba, 1)
				if r.Err != nil {
					t.Fatalf("devs %d+%d, lba %d: %v", a, b, lba, r.Err)
				}
				if !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
					t.Fatalf("devs %d+%d, lba %d: wrong content", a, b, lba)
				}
			}
			c.SetDeviceFailed(a, false)
			c.SetDeviceFailed(b, false)
		}
	}
}

func TestRAID6GCPreservesData(t *testing.T) {
	eng, c, _ := newCore6(t)
	span := c.Blocks() / 5
	rng := sim.NewRNG(606)
	written := map[int64]bool{}
	for i := 0; i < int(span)*8; i++ {
		lba := rng.Int63n(span)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(byte(lba), 4096)); r.Err != nil {
			t.Fatalf("write: %v", r.Err)
		}
		written[lba] = true
	}
	eng.Run()
	if c.GCEvents() == 0 {
		t.Fatal("GC never ran on raid6 array")
	}
	for lba := int64(0); lba < span; lba += 11 {
		if !written[lba] {
			continue
		}
		r := blockdev.ReadSync(eng, c, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(byte(lba), 4096)) {
			t.Fatalf("lba %d corrupted after raid6 GC: %v", lba, r.Err)
		}
	}
}

func TestRAID6Recovery(t *testing.T) {
	eng, c, devs := newCore6(t)
	want := map[int64]byte{}
	rng := sim.NewRNG(77)
	for i := 0; i < 400; i++ {
		lba := rng.Int63n(c.Blocks() / 8)
		seed := byte(i)
		if r := blockdev.WriteSync(eng, c, lba, 1, blockdev.Pattern(seed, 4096)); r.Err == nil {
			want[lba] = seed
		}
	}
	eng.Run()
	var queues []*nvme.Queue
	for i, d := range devs {
		queues = append(queues, nvme.New(d, nvme.Config{Seed: uint64(i) + 900}))
	}
	cfg := DefaultConfig(devConfig().NumZones)
	cfg.Parity = 2
	var rc *Core
	var rerr error
	Recover(queues, cfg, nil, func(n *Core, err error) { rc, rerr = n, err })
	eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	assertTables(t, rc)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, rc, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("post-recovery lba %d: %v", lba, r.Err)
		}
	}
	// Degraded double-failure read on the RECOVERED array.
	rc.SetDeviceFailed(0, true)
	rc.SetDeviceFailed(3, true)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, rc, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("post-recovery degraded lba %d: %v", lba, r.Err)
		}
	}
}

func TestRAID6RejectsTooFewMembers(t *testing.T) {
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	for i := 0; i < 3; i++ {
		d, _ := zns.New(eng, devConfig())
		queues = append(queues, nvme.New(d, nvme.Config{}))
	}
	cfg := DefaultConfig(devConfig().NumZones)
	cfg.Parity = 2
	if _, err := New(queues, cfg, nil); err == nil {
		t.Fatal("accepted m=2 with 3 members")
	}
}

func TestRAID6StripeDevicesDistinct(t *testing.T) {
	eng, c, _ := newCore6(t)
	blockdev.WriteSync(eng, c, 0, 9, blockdev.Pattern(1, 9*4096)) // 3 full stripes (k=3)
	eng.Run()
	c.smt.Range(func(sn int64, se *smtEntry) bool {
		used := map[int32]bool{}
		for _, p := range se.chunks {
			if p.dev < 0 {
				continue
			}
			if used[p.dev] {
				t.Fatalf("stripe %d reuses device %d for data", sn, p.dev)
			}
			used[p.dev] = true
		}
		for _, p := range se.parity {
			if p.dev < 0 {
				continue
			}
			if used[p.dev] {
				t.Fatalf("stripe %d reuses device %d for parity", sn, p.dev)
			}
			used[p.dev] = true
		}
		return true
	})
	_ = blockdev.ErrOutOfRange
}
