package ftl

import (
	"testing"

	"biza/internal/blockdev"
	"biza/internal/sim"
)

func newDev(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(eng, TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

// TestEventsPerCommand pins the engine events a write and a read cost on an
// idle device, and their latency. The buffer latency rides the host link's
// completion event; each page program is a bus event and a die event. The
// counts do not depend on the host, so CI gates them (-run EventsPer).
func TestEventsPerCommand(t *testing.T) {
	eng, d := newDev(t)
	cfg := d.Config()
	const n = 2
	size := int64(n * cfg.BlockSize)
	for _, c := range []struct {
		name   string
		events int
		lat    sim.Time
		submit func(done func(sim.Time, error))
	}{
		{"write", 2 + 2*n, cfg.CmdOverhead + size*sim.Second/cfg.DeviceWriteBW + cfg.BufWriteLatency, func(done func(sim.Time, error)) {
			d.Write(0, n, nil, func(r blockdev.WriteResult) { done(r.Latency, r.Err) })
		}},
		{"read", 4, cfg.CmdOverhead + size*sim.Second/cfg.ChannelReadBW + cfg.DieReadLatency + size*sim.Second/cfg.DieReadBW + size*sim.Second/cfg.DeviceReadBW,
			func(done func(sim.Time, error)) {
				d.Read(0, n, func(r blockdev.ReadResult) { done(r.Latency, r.Err) })
			}},
	} {
		var lat sim.Time
		got := false
		c.submit(func(l sim.Time, err error) {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			lat, got = l, true
		})
		events := 0
		for eng.Step() {
			events++
		}
		if !got {
			t.Fatalf("%s never completed", c.name)
		}
		if events != c.events || lat != c.lat {
			t.Errorf("%s: %d events, latency %d ns; want %d events, %d ns", c.name, events, lat, c.events, c.lat)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := TestConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.GCHighWater = bad.GCLowWater
	if bad.Validate() == nil {
		t.Fatal("accepted bad watermarks")
	}
	bad = good
	bad.OverProvision = 0.95
	if bad.Validate() == nil {
		t.Fatal("accepted absurd over-provisioning")
	}
}

func TestCapacityReflectsOverProvision(t *testing.T) {
	_, d := newDev(t)
	cfg := d.Config()
	raw := int64(cfg.FlashBlocks) * int64(cfg.PagesPerBlock)
	want := int64(float64(raw) * (1 - cfg.OverProvision))
	if d.Blocks() != want {
		t.Fatalf("logical blocks = %d, want %d", d.Blocks(), want)
	}
}

func TestOverwritesTriggerGC(t *testing.T) {
	eng, d := newDev(t)
	// Hammer a working set larger than free-block slack so GC must run.
	span := d.Blocks() / 2
	for round := 0; round < 6; round++ {
		for lba := int64(0); lba < span; lba += 8 {
			blockdev.WriteSync(eng, d, lba, 8, nil)
		}
	}
	eng.Run()
	if d.GCEvents() == 0 {
		t.Fatal("no GC despite sustained overwrites")
	}
	if d.Erases() == 0 {
		t.Fatal("GC ran but erased nothing")
	}
	if d.FreeBlocks() == 0 {
		t.Fatal("device ran out of free blocks")
	}
}

func TestWriteAmpGrowsUnderRandomOverwrite(t *testing.T) {
	eng, d := newDev(t)
	rng := sim.NewRNG(3)
	span := d.Blocks() * 3 / 4
	for i := 0; i < 4000; i++ {
		blockdev.WriteSync(eng, d, rng.Int63n(span), 1, nil)
	}
	eng.Run()
	wa := d.WriteAmp()
	if wa.Factor() <= 1.0 {
		t.Fatalf("WA = %.2f under random overwrite, want > 1", wa.Factor())
	}
	if wa.GCMigratedBytes == 0 {
		t.Fatal("no migration accounted")
	}
}

func TestSequentialOverwriteLowWA(t *testing.T) {
	// Whole-device sequential rewrites invalidate entire blocks, so greedy
	// GC should migrate almost nothing: WA stays near 1.
	eng, d := newDev(t)
	span := d.Blocks() * 3 / 4
	for round := 0; round < 8; round++ {
		for lba := int64(0); lba+8 <= span; lba += 8 {
			blockdev.WriteSync(eng, d, lba, 8, nil)
		}
	}
	eng.Run()
	wa := d.WriteAmp()
	if wa.Factor() > 1.3 {
		t.Fatalf("sequential WA = %.2f, want near 1", wa.Factor())
	}
}

func TestTrimInvalidates(t *testing.T) {
	eng, d := newDev(t)
	blockdev.WriteSync(eng, d, 0, 8, blockdev.Pattern(9, 8*4096))
	d.Trim(0, 8)
	r := blockdev.ReadSync(eng, d, 0, 1)
	for _, b := range r.Data {
		if b != 0 {
			t.Fatal("trimmed data still readable")
		}
	}
	// Trimmed pages must not be migrated: fill the device and check GC
	// migrates little.
	span := d.Blocks() / 2
	for round := 0; round < 3; round++ {
		for lba := int64(0); lba < span; lba += 8 {
			blockdev.WriteSync(eng, d, lba, 8, nil)
			d.Trim(lba, 8)
		}
	}
	eng.Run()
	wa := d.WriteAmp()
	if wa.GCMigratedBytes > wa.UserBytes/4 {
		t.Fatalf("GC migrated %d bytes of trimmed data", wa.GCMigratedBytes)
	}
}

func TestGCLatencySpike(t *testing.T) {
	// Depth-1 write latency while GC is active should spike well above the
	// quiescent latency — the §2.3 tail-latency observation.
	quiet := func() int64 {
		eng, d := newDev(t)
		r := blockdev.WriteSync(eng, d, 0, 1, nil)
		return r.Latency
	}()
	eng, d := newDev(t)
	// Dirty the device so GC is running.
	rng := sim.NewRNG(7)
	span := d.Blocks() * 3 / 4
	for i := 0; i < 3000; i++ {
		d.Write(rng.Int63n(span), 1, nil, nil)
	}
	var worst int64
	for i := 0; i < 50; i++ {
		r := blockdev.WriteSync(eng, d, rng.Int63n(span), 1, nil)
		if r.Latency > worst {
			worst = r.Latency
		}
	}
	eng.Run()
	if worst < quiet*3 {
		t.Fatalf("no GC latency spike: worst %dns vs quiet %dns", worst, quiet)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, d := newDev(t)
		rng := sim.NewRNG(11)
		for i := 0; i < 2000; i++ {
			blockdev.WriteSync(eng, d, rng.Int63n(d.Blocks()/2), 1, nil)
		}
		eng.Run()
		wa := d.WriteAmp()
		return wa.FlashDataBytes, d.Erases()
	}
	p1, e1 := run()
	p2, e2 := run()
	if p1 != p2 || e1 != e2 {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", p1, e1, p2, e2)
	}
}
