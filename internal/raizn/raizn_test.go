package raizn

import (
	"biza/internal/blockdev"
	"bytes"
	"errors"
	"testing"

	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

func newArray(t *testing.T, cfg Config) (*sim.Engine, *Array, []*zns.Device) {
	t.Helper()
	eng := sim.NewEngine()
	var queues []*nvme.Queue
	var devs []*zns.Device
	for i := 0; i < 4; i++ {
		dc := zns.TestConfig()
		dc.Seed = uint64(i)
		d, err := zns.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		queues = append(queues, nvme.New(d, nvme.Config{
			ReorderWindow: 5 * sim.Microsecond,
			ZoneOrdered:   true,
			Seed:          uint64(i) + 100,
		}))
	}
	a, err := New(queues, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, devs
}

func wsync(eng *sim.Engine, a *Array, z int, lba int64, n int, data []byte) zns.WriteResult {
	var res zns.WriteResult
	ok := false
	a.Write(z, lba, n, data, zns.TagUserData, func(r zns.WriteResult) { res = r; ok = true })
	eng.Run()
	if !ok {
		panic("raizn write hung")
	}
	return res
}

func rsync(eng *sim.Engine, a *Array, z int, lba int64, n int) zns.ReadResult {
	var res zns.ReadResult
	ok := false
	a.Read(z, lba, n, func(r zns.ReadResult) { res = r; ok = true })
	eng.Run()
	if !ok {
		panic("raizn read hung")
	}
	return res
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, _ := zns.New(eng, zns.TestConfig())
	q := nvme.New(d, nvme.Config{})
	if _, err := New([]*nvme.Queue{q, q}, Config{}); err == nil {
		t.Fatal("accepted 2 members")
	}
}

func TestGeometry(t *testing.T) {
	_, a, _ := newArray(t, Config{})
	// 4 members, RAID5: logical zone = 3x physical zone capacity.
	if a.ZoneBlocks() != 3*256 {
		t.Fatalf("logical zone blocks = %d", a.ZoneBlocks())
	}
	if a.Zones() != 64-metaZonesReserved {
		t.Fatalf("logical zones = %d", a.Zones())
	}
	if a.MaxOpenZones() != 8-metaZonesReserved {
		t.Fatalf("max open = %d", a.MaxOpenZones())
	}
}

func TestSequentialWriteReadRoundTrip(t *testing.T) {
	eng, a, _ := newArray(t, Config{})
	payload := blockdev.Pattern(3, 48*4096)
	if r := wsync(eng, a, 0, 0, 48, payload); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := rsync(eng, a, 0, 0, 48)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Data, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestNonSequentialRejected(t *testing.T) {
	eng, a, _ := newArray(t, Config{})
	wsync(eng, a, 0, 0, 3, nil)
	if r := wsync(eng, a, 0, 10, 1, nil); !errors.Is(r.Err, zns.ErrNotSequential) {
		t.Fatalf("gap write err = %v", r.Err)
	}
	if r := wsync(eng, a, 1, 5, 1, nil); !errors.Is(r.Err, zns.ErrNotSequential) {
		t.Fatalf("nonzero first write err = %v", r.Err)
	}
}

func TestParityIsXOROfRow(t *testing.T) {
	eng, a, devs := newArray(t, Config{})
	// One full stripe row: 3 data blocks.
	payload := blockdev.Pattern(7, 3*4096)
	wsync(eng, a, 0, 0, 3, payload)
	// Row 0's parity lives on disk 3 (left-asymmetric), physical zone 2, offset 0.
	var parity []byte
	got := false
	devs[3].Read(2, 0, 1, func(r zns.ReadResult) { parity = r.Data; got = true })
	eng.Run()
	if !got {
		t.Fatal("parity read hung")
	}
	for i := 0; i < 4096; i++ {
		want := payload[i] ^ payload[4096+i] ^ payload[2*4096+i]
		if parity[i] != want {
			t.Fatalf("parity byte %d = %d, want %d", i, parity[i], want)
		}
	}
}

func TestDegradedReconstructionPossible(t *testing.T) {
	// Sanity: data + parity on the members suffice to rebuild a lost chunk.
	eng, a, devs := newArray(t, Config{})
	payload := blockdev.Pattern(9, 3*4096)
	wsync(eng, a, 0, 0, 3, payload)
	read := func(dev int) []byte {
		var out []byte
		devs[dev].Read(2, 0, 1, func(r zns.ReadResult) { out = r.Data })
		eng.Run()
		return out
	}
	d1, d2, p := read(1), read(2), read(3)
	rebuilt := make([]byte, 4096)
	for i := range rebuilt {
		rebuilt[i] = d1[i] ^ d2[i] ^ p[i]
	}
	if !bytes.Equal(rebuilt, payload[:4096]) {
		t.Fatal("XOR reconstruction of chunk 0 failed")
	}
}

func TestPartialWriteJournalsMetadata(t *testing.T) {
	eng, a, _ := newArray(t, Config{})
	// A single block leaves row 0 incomplete: one journal block expected.
	wsync(eng, a, 0, 0, 1, nil)
	if a.metaBytes != 4096 {
		t.Fatalf("meta bytes = %d, want 4096", a.metaBytes)
	}
	// Completing the row must not journal again.
	wsync(eng, a, 0, 1, 2, nil)
	if a.metaBytes != 4096 {
		t.Fatalf("meta bytes after completion = %d", a.metaBytes)
	}
	if a.parityBytes != 4096 {
		t.Fatalf("final parity bytes = %d", a.parityBytes)
	}
}

func TestJournalLandsOnCentralZone(t *testing.T) {
	eng, a, devs := newArray(t, Config{})
	for i := 0; i < 10; i++ {
		wsync(eng, a, i, 0, 1, nil) // 10 incomplete rows in 10 zones
	}
	st := devs[0].Stats()
	if st.ProgrammedByTag(zns.TagMeta) != 10*4096 {
		t.Fatalf("central device meta bytes = %d", st.ProgrammedByTag(zns.TagMeta))
	}
	for _, d := range devs[1:] {
		if d.Stats().ProgrammedByTag(zns.TagMeta) != 0 {
			t.Fatal("journal leaked to non-central member")
		}
	}
}

func TestJournalZoneRotation(t *testing.T) {
	eng, a, devs := newArray(t, Config{})
	// Force more journal blocks than one zone holds (256): write 300
	// single-block requests into distinct rows of distinct zones.
	count := 0
	for z := 0; z < a.Zones() && count < 300; z++ {
		for lba := int64(0); lba < a.ZoneBlocks() && count < 300; lba += 3 {
			if a.wp[z] != lba {
				break
			}
			wsync(eng, a, z, lba, 1, nil)
			// Leave the row incomplete forever: advance over it.
			wsync(eng, a, z, lba+1, 2, nil)
			count++
		}
	}
	if count < 300 {
		t.Fatalf("setup wrote only %d rows", count)
	}
	if a.metaBytes < 300*4096 {
		t.Fatalf("meta bytes = %d", a.metaBytes)
	}
	// Rotation happened: device 0 zone 0 or 1 was reset at least once.
	if devs[0].EraseCount(0)+devs[0].EraseCount(1) == 0 {
		t.Fatal("journal zones never rotated")
	}
}

func TestStripeCacheAbsorbsPartialParity(t *testing.T) {
	eng, a, _ := newArray(t, Config{StripeCacheBytes: 1 << 20})
	// Rows complete across two requests; with the cache, no journal writes.
	wsync(eng, a, 0, 0, 1, nil)
	wsync(eng, a, 0, 1, 2, nil)
	if a.metaBytes != 0 {
		t.Fatalf("cache failed to absorb partial parity: %d bytes", a.metaBytes)
	}
	if a.parityBytes == 0 {
		t.Fatal("final parity missing")
	}
}

func TestStripeCacheEvictionJournals(t *testing.T) {
	// A tiny cache (1 row) must journal evicted incomplete rows.
	eng, a, _ := newArray(t, Config{StripeCacheBytes: 4096})
	wsync(eng, a, 0, 0, 1, nil) // row 0 cached
	wsync(eng, a, 1, 0, 1, nil) // row (z1,0) cached, row (z0,0) evicted -> journaled
	if a.metaBytes != 4096 {
		t.Fatalf("meta bytes = %d, want 4096", a.metaBytes)
	}
}

func TestResetLogicalZone(t *testing.T) {
	eng, a, _ := newArray(t, Config{})
	payload := blockdev.Pattern(1, 6*4096)
	wsync(eng, a, 0, 0, 6, payload)
	var rerr error
	ok := false
	a.Reset(0, func(err error) { rerr = err; ok = true })
	eng.Run()
	if !ok || rerr != nil {
		t.Fatalf("reset ok=%v err=%v", ok, rerr)
	}
	// Zone writable from 0 again.
	if r := wsync(eng, a, 0, 0, 3, nil); r.Err != nil {
		t.Fatal(r.Err)
	}
}

func TestCentralJournalThroughputCap(t *testing.T) {
	// The §3.3 claim: with all partial parity funneling to one zone, array
	// write throughput caps well below the member aggregate. Sequential
	// 64 KiB writes at depth 32 across many logical zones.
	eng, a, _ := newArray(t, Config{})
	var doneBytes int64
	depthPerZone := 8
	zonesUsed := 4
	for lane := 0; lane < zonesUsed; lane++ {
		lane := lane
		zone := new(int)
		*zone = lane
		next := new(int64)
		var submit func()
		submit = func() {
			if *next+16 > a.ZoneBlocks() {
				// Lane's zone full: move to the next zone in its stripe of
				// the zone space (fresh capacity, still one lane).
				*zone += zonesUsed
				if *zone >= a.Zones() {
					return
				}
				*next = 0
			}
			lba := *next
			*next += 16
			z := *zone
			a.Write(z, lba, 16, nil, zns.TagUserData, func(r zns.WriteResult) {
				if r.Err != nil {
					return
				}
				doneBytes += 16 * 4096
				submit()
			})
		}
		for i := 0; i < depthPerZone; i++ {
			submit()
		}
	}
	eng.RunUntil(20 * sim.Millisecond)
	mbps := float64(doneBytes) / 1e6 / 0.02
	// Member aggregate would be ~4x2000=8000 MB/s ideal (6000 for data);
	// the journal zone's single channel (1000 MB/s) must cap user
	// throughput near 3x that (one journal block per 3 data blocks).
	if mbps > 4200 {
		t.Fatalf("throughput %.0f MB/s — central journal cap not modeled", mbps)
	}
	if mbps < 800 {
		t.Fatalf("throughput %.0f MB/s — array barely works", mbps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, a, _ := newArray(t, Config{})
		for z := 0; z < 8; z++ {
			for lba := int64(0); lba < 128; lba += 4 {
				wsync(eng, a, z, lba, 4, nil)
			}
		}
		return a.userBytes, a.metaBytes
	}
	u1, m1 := run()
	u2, m2 := run()
	if u1 != u2 || m1 != m2 {
		t.Fatalf("replay diverged")
	}
}
