package dmzap

import (
	"bytes"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/cpumodel"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
	"biza/internal/zoneapi"
)

func newAdapter(t *testing.T) (*sim.Engine, *Adapter, *zns.Device, *cpumodel.Accountant) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := zns.New(eng, zns.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := nvme.New(dev, nvme.Config{ReorderWindow: 5 * sim.Microsecond, Seed: 7})
	backend := zoneapi.SingleDevice{Q: q}
	acct := &cpumodel.Accountant{}
	a, err := New(backend, DefaultConfig(backend.Zones(), backend.MaxOpenZones()), acct)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, dev, acct
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	dev, _ := zns.New(eng, zns.TestConfig())
	backend := zoneapi.SingleDevice{Q: nvme.New(dev, nvme.Config{})}
	for _, bad := range []Config{
		{OpenZones: 0, GCLowWater: 1, GCHighWater: 2, OverProvisionZones: 2},
		{OpenZones: 100, GCLowWater: 1, GCHighWater: 2, OverProvisionZones: 2},
		{OpenZones: 2, GCLowWater: 2, GCHighWater: 2, OverProvisionZones: 2},
		{OpenZones: 2, GCLowWater: 1, GCHighWater: 2, OverProvisionZones: 0},
	} {
		if _, err := New(backend, bad, nil); err == nil {
			t.Fatalf("accepted bad config %+v", bad)
		}
	}
}

// TestNewRefusesWideGeometry: the zone log holds a logical block + 1 in 32
// bits, so New refuses a backend whose capacity would need more, before it
// opens a zone.
func TestNewRefusesWideGeometry(t *testing.T) {
	tests := []struct {
		name       string
		zoneBlocks int64
		want       string
	}{
		{name: "over 2^32 - 1 logical blocks", zoneBlocks: 1 << 27, want: "logical blocks, at most 4294967295"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := zns.TestConfig()
			cfg.ZoneBlocks = tc.zoneBlocks
			dev, err := zns.New(sim.NewEngine(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			backend := zoneapi.SingleDevice{Q: nvme.New(dev, nvme.Config{})}
			_, err = New(backend, DefaultConfig(backend.Zones(), backend.MaxOpenZones()), nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New over %d zones of %d blocks: %v, want a rejection naming %q", cfg.NumZones, tc.zoneBlocks, err, tc.want)
			}
		})
	}
}

func TestRandomWriteReadRoundTrip(t *testing.T) {
	eng, a, _, _ := newAdapter(t)
	// Random (non-sequential) LBAs — the whole point of the adapter.
	lbas := []int64{100, 5, 999, 42, 0, 512}
	for i, lba := range lbas {
		if r := blockdev.WriteSync(eng, a, lba, 1, blockdev.Pattern(byte(i+1), 4096)); r.Err != nil {
			t.Fatalf("write %d: %v", lba, r.Err)
		}
	}
	for i, lba := range lbas {
		r := blockdev.ReadSync(eng, a, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(byte(i+1), 4096)) {
			t.Fatalf("read %d mismatch (err=%v)", lba, r.Err)
		}
	}
}

func TestOneInFlightPerZoneNoReorderFailures(t *testing.T) {
	// Heavy concurrent writes through a reordering queue: the adapter's
	// serialization must prevent any ErrNotSequential failures.
	eng, a, _, _ := newAdapter(t)
	var failures int
	outstanding := 0
	for i := 0; i < 500; i++ {
		outstanding++
		a.Write(int64(i%200), 1, nil, func(r blockdev.WriteResult) {
			if r.Err != nil {
				failures++
			}
			outstanding--
		})
	}
	eng.Run()
	if outstanding != 0 {
		t.Fatalf("%d writes hung", outstanding)
	}
	if failures != 0 {
		t.Fatalf("%d write failures despite serialization", failures)
	}
}

func TestSpinLockCPUCharged(t *testing.T) {
	eng, a, _, acct := newAdapter(t)
	// Concurrent writes force queueing behind the per-zone lock.
	for i := 0; i < 200; i++ {
		a.Write(int64(i), 1, nil, nil)
	}
	eng.Run()
	if acct.Ticks(cpumodel.CompDmzap) == 0 {
		t.Fatal("no CPU charged to dmzap component")
	}
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	eng, a, _, _ := newAdapter(t)
	// Working set ~40% of logical space, overwritten repeatedly: forces GC.
	span := a.Blocks() * 2 / 5
	rng := sim.NewRNG(3)
	for i := 0; i < int(span)*6; i++ {
		lba := rng.Int63n(span)
		mustWrite(t, eng, a, lba, 1, blockdev.Pattern(byte(lba), 4096))
	}
	eng.Run()
	if a.gcEvents == 0 {
		t.Fatal("GC never ran")
	}
	// All data must survive migration.
	for lba := int64(0); lba < span; lba += 17 {
		r := blockdev.ReadSync(eng, a, lba, 1)
		if r.Err != nil {
			t.Fatalf("read %d after GC: %v", lba, r.Err)
		}
		if r.Data[0] != (blockdev.Pattern(byte(lba), 4096))[0] {
			t.Fatalf("data corrupted by GC at %d", lba)
		}
	}
	wa := a.WriteAmp()
	if wa.Factor() <= 1.0 {
		t.Fatalf("WA = %.2f after forced GC, want > 1", wa.Factor())
	}
}

func TestTrimPreventsMigration(t *testing.T) {
	eng, a, _, _ := newAdapter(t)
	span := a.Blocks() / 2
	for round := 0; round < 4; round++ {
		for lba := int64(0); lba < span; lba++ {
			mustWrite(t, eng, a, lba, 1, nil)
		}
		a.Trim(0, int(span))
	}
	eng.Run()
	wa := a.WriteAmp()
	if wa.GCMigratedBytes > wa.UserBytes/10 {
		t.Fatalf("GC migrated %d bytes of trimmed data (user %d)", wa.GCMigratedBytes, wa.UserBytes)
	}
}

func TestFlashAccountingMatchesBackend(t *testing.T) {
	eng, a, dev, _ := newAdapter(t)
	for i := 0; i < 64; i++ {
		mustWrite(t, eng, a, int64(i), 1, nil)
	}
	// Flush open zones so every block reaches flash.
	eng.Run()
	st := dev.Stats()
	if st.ProgrammedByTag(zns.TagUserData) == 0 {
		t.Fatal("no user bytes reached flash")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, a, _, _ := newAdapter(t)
		rng := sim.NewRNG(21)
		for i := 0; i < 1500; i++ {
			mustWrite(t, eng, a, rng.Int63n(a.Blocks()/3), 1, nil)
		}
		eng.Run()
		wa := a.WriteAmp()
		return wa.FlashDataBytes, a.gcEvents
	}
	a1, g1 := run()
	a2, g2 := run()
	if a1 != a2 || g1 != g2 {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", a1, g1, a2, g2)
	}
}

// mustWrite is blockdev.WriteSync for a write whose result the test does
// not read: any error fails the test, a hang (blockdev.ErrIncomplete)
// included.
func mustWrite(t testing.TB, eng *sim.Engine, d blockdev.Device, lba int64, n int, data []byte) {
	t.Helper()
	if r := blockdev.WriteSync(eng, d, lba, n, data); r.Err != nil {
		t.Fatalf("write %d+%d: %v", lba, n, r.Err)
	}
}
