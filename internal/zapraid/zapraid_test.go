package zapraid

import (
	"bytes"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func newArray(t *testing.T) (*sim.Engine, *Array, []*zns.Device) {
	t.Helper()
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	var devs []*zns.Device
	for i := 0; i < 4; i++ {
		dc := zns.TestConfig()
		dc.Seed = uint64(i) + 40
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond, Seed: uint64(i) + 400,
		}))
	}
	a, err := New(queues, DefaultConfig(dc(devs)))
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, devs
}

func dc(devs []*zns.Device) int { return devs[0].Config().NumZones }

// TestNewRefusesWideGeometry: the zone log holds a logical block + 1 in 32
// bits, so New refuses members whose capacity would need more, before it
// opens a zone.
func TestNewRefusesWideGeometry(t *testing.T) {
	tests := []struct {
		name       string
		zoneBlocks int64
		want       string
	}{
		{name: "over 2^32 - 1 logical blocks", zoneBlocks: 1 << 26, want: "logical blocks, at most 4294967295"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			var queues []*nvme.Queue
			for i := 0; i < 4; i++ {
				cfg := zns.TestConfig()
				cfg.ZoneBlocks = tc.zoneBlocks
				d, err := zns.New(eng, cfg)
				if err != nil {
					t.Fatal(err)
				}
				queues = append(queues, nvme.New(d, nvme.Config{}))
			}
			_, err := New(queues, DefaultConfig(queues[0].Device().Config().NumZones))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New over zones of %d blocks: %v, want a rejection naming %q", tc.zoneBlocks, err, tc.want)
			}
		})
	}
}

func TestRandomOverwrites(t *testing.T) {
	eng, a, _ := newArray(t)
	for i := 0; i < 6; i++ {
		mustWrite(t, eng, a, 9, 1, blockdev.Pattern(byte(i), 4096))
	}
	r := blockdev.ReadSync(eng, a, 9, 1)
	if !bytes.Equal(r.Data, blockdev.Pattern(5, 4096)) {
		t.Fatal("latest overwrite not visible")
	}
}

func TestNoAbsorptionEveryOverwriteHitsFlash(t *testing.T) {
	// The design contrast with BIZA: appends cannot absorb overwrites.
	eng, a, devs := newArray(t)
	for i := 0; i < 50; i++ {
		mustWrite(t, eng, a, 3, 1, nil)
	}
	eng.Run()
	var programmed, absorbed uint64
	for _, d := range devs {
		programmed += d.Stats().ProgrammedByTag(zns.TagUserData)
		absorbed += d.Stats().AbsorbedBytes
	}
	if absorbed != 0 {
		t.Fatalf("append path absorbed %d bytes", absorbed)
	}
	if programmed < 50*4096 {
		t.Fatalf("programmed %d < 50 blocks", programmed)
	}
}

func TestParityPerStripe(t *testing.T) {
	eng, a, devs := newArray(t)
	mustWrite(t, eng, a, 0, 9, nil) // 3 stripes (k=3)
	eng.Run()
	var parity uint64
	for _, d := range devs {
		parity += d.Stats().ProgrammedByTag(zns.TagParity)
	}
	if parity != 3*4096 {
		t.Fatalf("parity bytes = %d, want 3 blocks", parity)
	}
}

func TestGCReclaimsAndPreserves(t *testing.T) {
	eng, a, _ := newArray(t)
	span := a.Blocks() / 4
	rng := sim.NewRNG(5)
	written := map[int64]bool{}
	for i := 0; i < int(span)*5; i++ {
		lba := rng.Int63n(span)
		if r := blockdev.WriteSync(eng, a, lba, 1, blockdev.Pattern(byte(lba), 4096)); r.Err != nil {
			t.Fatalf("write: %v", r.Err)
		}
		written[lba] = true
	}
	eng.Run()
	if a.gcEvents == 0 {
		t.Fatal("GC never ran")
	}
	for lba := int64(0); lba < span; lba += 9 {
		if !written[lba] {
			continue
		}
		r := blockdev.ReadSync(eng, a, lba, 1)
		if r.Err != nil || !bytes.Equal(r.Data, blockdev.Pattern(byte(lba), 4096)) {
			t.Fatalf("lba %d corrupted: %v", lba, r.Err)
		}
	}
}

func TestConcurrentAppendsNoFailures(t *testing.T) {
	// The append path's selling point: deep concurrency without ordering
	// failures and without any host-side window bookkeeping.
	eng, a, _ := newArray(t)
	failures, completions := 0, 0
	for i := 0; i < 500; i++ {
		a.Write(int64(i%200), 1, nil, func(r blockdev.WriteResult) {
			completions++
			if r.Err != nil {
				failures++
			}
		})
	}
	eng.Run()
	if completions != 500 || failures != 0 {
		t.Fatalf("completions=%d failures=%d", completions, failures)
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
