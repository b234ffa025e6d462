package ftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/pagetab"
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

// checkMaps verifies what the device keeps in two places: l2p and p2l are
// mutual inverses, and each flash block's valid count is its live p2l
// pages. Mapping is synchronous, so it holds between any two events.
func (d *Device) checkMaps() error {
	var err error
	d.l2p.Range(func(lpn int64, ppn1 uint32) bool {
		if got := int64(d.p2l.Get(int64(ppn1)-1)) - 1; got != lpn {
			err = fmt.Errorf("logical page %d maps to physical page %d, which holds %d", lpn, int64(ppn1)-1, got)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// l2p is one-to-one into p2l, so equal sizes make p2l its inverse.
	if d.l2p.Len() != d.p2l.Len() {
		return fmt.Errorf("%d logical pages mapped, %d physical pages live", d.l2p.Len(), d.p2l.Len())
	}
	live := make([]int, len(d.blocks))
	d.p2l.Range(func(ppn int64, _ uint32) bool {
		live[ppn/int64(d.cfg.PagesPerBlock)]++
		return true
	})
	for b, fb := range d.blocks {
		if fb.valid != live[b] {
			return fmt.Errorf("flash block %d counts %d valid pages, p2l holds %d", b, fb.valid, live[b])
		}
	}
	return nil
}

// writeChecked is WriteSync followed by checkMaps on the drained device.
func writeChecked(t *testing.T, eng *sim.Engine, d *Device, lba int64, n int, data []byte) {
	t.Helper()
	if r := blockdev.WriteSync(eng, d, lba, n, data); r.Err != nil {
		t.Fatal(r.Err)
	}
	if err := d.checkMaps(); err != nil {
		t.Fatalf("after writing %d+%d: %v", lba, n, err)
	}
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

// TestNewRefusesPagesPast32Bits: l2p and p2l hold page numbers + 1 in 32
// bits, so New refuses a device of 2^32 pages before it allocates a block
// table. One of 2^32 - 1 pages (65 537 blocks of 65 535) is the largest it
// takes.
func TestNewRefusesPagesPast32Bits(t *testing.T) {
	tests := []struct {
		name                string
		blocks, pagesPerBlk int
		want                string // "" for accepted
	}{
		{name: "2^32 - 1 pages", blocks: 65537, pagesPerBlk: 65535},
		{name: "2^32 pages", blocks: 1 << 16, pagesPerBlk: 1 << 16, want: "4294967296 flash pages"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SN640(tc.blocks)
			cfg.PagesPerBlock = tc.pagesPerBlk
			d, err := New(sim.NewEngine(), cfg)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("New: %v, want a rejection naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Blocks() >= int64(tc.blocks)*int64(tc.pagesPerBlk) {
				t.Fatalf("%d logical pages on %d physical", d.Blocks(), tc.blocks*tc.pagesPerBlk)
			}
		})
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
			writeChecked(t, eng, d, lba, 8, nil)
		}
	}
	eng.Run()
	if d.gcEvents == 0 {
		t.Fatal("no GC despite sustained overwrites")
	}
	if d.erases == 0 {
		t.Fatal("GC ran but erased nothing")
	}
	if len(d.freeList) == 0 {
		t.Fatal("device ran out of free blocks")
	}
}

func TestWriteAmpGrowsUnderRandomOverwrite(t *testing.T) {
	eng, d := newDev(t)
	rng := sim.NewRNG(3)
	span := d.Blocks() * 3 / 4
	for i := 0; i < 4000; i++ {
		writeChecked(t, eng, d, rng.Int63n(span), 1, nil)
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
			mustWrite(t, eng, d, lba, 8, nil)
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
	writeChecked(t, eng, d, 0, 8, blockdev.Pattern(9, 8*4096))
	d.Trim(0, 8)
	if d.l2p.Len() != 0 {
		t.Fatalf("%d logical pages still mapped after trimming all", d.l2p.Len())
	}
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
			writeChecked(t, eng, d, lba, 8, nil)
			d.Trim(lba, 8)
			if err := d.checkMaps(); err != nil {
				t.Fatalf("after trimming %d+8: %v", lba, err)
			}
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
			mustWrite(t, eng, d, rng.Int63n(d.Blocks()/2), 1, nil)
		}
		eng.Run()
		wa := d.WriteAmp()
		return wa.FlashDataBytes, d.erases
	}
	p1, e1 := run()
	p2, e2 := run()
	if p1 != p2 || e1 != e2 {
		t.Fatalf("replay diverged: %d/%d vs %d/%d", p1, e1, p2, e2)
	}
}

// TestFTLMapsAllocFreeUntilWritten: New sizes no table by capacity. On the
// 2048-block SN640 a stack defaults to, the flat l2p and p2l were 7.9 MB
// filled with invalidPPN; New must now allocate under a tenth of that. After
// the first write, k scattered one-page writes allocate at most the table
// pages they touch, plus the directories: each grows by doubling, so all
// the arrays it ever had add up to under four pointers per page. A slot of
// either table is 4 bytes.
func TestFTLMapsAllocFreeUntilWritten(t *testing.T) {
	eng := sim.NewEngine()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, err := New(eng, SN640(2048))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	physical := int64(d.cfg.FlashBlocks * d.cfg.PagesPerBlock)
	flat := 8 * (d.Blocks() + physical)
	made := int64(m1.TotalAlloc - m0.TotalAlloc)
	if made >= flat/10 {
		t.Fatalf("New allocated %d bytes, want under a tenth of the %d two flat tables take", made, flat)
	}

	writeChecked(t, eng, d, 0, 1, nil) // the request record and the engine's queues
	const k = 64
	stride := d.Blocks() / k
	runtime.ReadMemStats(&m0)
	for i := int64(1); i < k; i++ {
		if r := blockdev.WriteSync(eng, d, i*stride, 1, nil); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	runtime.ReadMemStats(&m1)
	if err := d.checkMaps(); err != nil {
		t.Fatal(err)
	}
	pages, dirs := int64(0), int64(0)
	for _, tab := range []*pagetab.Table[uint32]{&d.l2p, &d.p2l} {
		seen, top := map[int64]bool{}, int64(0)
		tab.Range(func(key int64, _ uint32) bool {
			seen[key/pagetab.PageSize], top = true, key
			return true
		})
		pages, dirs = pages+int64(len(seen)), dirs+top/pagetab.PageSize+1
	}
	// A page is 256 uint32 slots and its occupancy bits: 1 064 bytes, which
	// the allocator serves from its 1 152-byte class.
	limit := pages*1152 + 4*8*dirs
	got := int64(m1.TotalAlloc - m0.TotalAlloc)
	if got > limit {
		t.Fatalf("%d scattered writes allocated %d bytes, want at most %d (%d table pages touched)", k-1, got, limit, pages)
	}
	t.Logf("New allocated %d bytes; %d scattered writes %d bytes over %d table pages (limit %d)", made, k-1, got, pages, limit)
}

// TestFTLStoreDataMatchesOracle makes random payload writes, nil-payload
// overwrites and trims over three quarters of the device until GC has
// migrated pages, checking the maps after each, then reads every block back
// against a map oracle: the payload lives at the physical page, so only
// reads through l2p and a collector that copies what it remaps return it.
func TestFTLStoreDataMatchesOracle(t *testing.T) {
	eng, d := newDev(t)
	bs := d.Config().BlockSize
	rng := rand.New(rand.NewSource(13))
	span := d.Blocks() * 3 / 4
	oracle := map[int64][]byte{}
	for i := 0; i < 3000 || d.WriteAmp().GCMigratedBytes == 0; i++ {
		lba := rng.Int63n(span)
		n := int(min(1+rng.Int63n(8), span-lba))
		switch rng.Intn(8) {
		case 0:
			d.Trim(lba, n)
			if err := d.checkMaps(); err != nil {
				t.Fatalf("after trimming %d+%d: %v", lba, n, err)
			}
			for b := lba; b < lba+int64(n); b++ {
				delete(oracle, b)
			}
		case 1:
			writeChecked(t, eng, d, lba, n, nil)
			for b := lba; b < lba+int64(n); b++ {
				delete(oracle, b)
			}
		default:
			data := make([]byte, n*bs)
			rng.Read(data)
			writeChecked(t, eng, d, lba, n, data)
			for k := 0; k < n; k++ {
				oracle[lba+int64(k)] = data[k*bs : (k+1)*bs]
			}
		}
	}
	if d.gcEvents == 0 || d.erases == 0 {
		t.Fatalf("GC ran %d times and erased %d blocks: exercised too little", d.gcEvents, d.erases)
	}
	for b := int64(0); b < d.Blocks(); b++ {
		r := blockdev.ReadSync(eng, d, b, 1)
		want := oracle[b]
		if want == nil {
			want = make([]byte, bs)
		}
		if r.Err != nil || !bytes.Equal(r.Data, want) {
			t.Fatalf("block %d reads %x..., want %x... (err %v)", b, r.Data[:8], want[:8], r.Err)
		}
	}
}

// TestFTLStoreDataAllocFree: once warm, payload overwrites through GC
// allocate nothing for their payloads. Random overwrites keep the collector
// migrating; they must allocate exactly what the same overwrites cost a
// device that keeps no payloads (the collector's own bookkeeping), so no
// page is copied into a fresh slice, and the stores of erased blocks refill
// from recycled extents.
func TestFTLStoreDataAllocFree(t *testing.T) {
	allocs := func(store bool) (float64, uint64) {
		cfg := TestConfig()
		cfg.StoreData = store
		eng := sim.NewEngine()
		d, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(5)
		span := d.Blocks() * 3 / 4
		data := blockdev.Pattern(1, cfg.BlockSize)
		pass := func() {
			for i := 0; i < 1000; i++ {
				d.Write(rng.Int63n(span), 1, data, nil)
			}
			eng.Run()
		}
		for i := 0; i < 5; i++ {
			pass()
		}
		moved := d.WriteAmp().GCMigratedBytes
		a := testing.AllocsPerRun(5, pass)
		return a, d.WriteAmp().GCMigratedBytes - moved
	}
	bare, _ := allocs(false)
	got, moved := allocs(true)
	if moved == 0 {
		t.Fatal("the collector migrated nothing while measured")
	}
	if got != bare {
		t.Fatalf("1000 payload overwrites allocate %.0f objects, %.0f without StoreData: want no more", got, bare)
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
