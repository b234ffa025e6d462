package mdraid

import (
	"bytes"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/ftl"
	"biza/internal/sim"
)

func newArray(t *testing.T, cfg Config) (*sim.Engine, *Array, []*ftl.Device) {
	t.Helper()
	eng := sim.NewEngine()
	var members []blockdev.Device
	var devs []*ftl.Device
	for i := 0; i < 4; i++ {
		dc := ftl.TestConfig()
		dc.Seed = uint64(i)
		d, err := ftl.New(eng, dc)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		members = append(members, d)
	}
	a, err := New(eng, members, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, devs
}

func testCfg() Config {
	c := DefaultConfig()
	c.ChunkBlocks = 4
	c.StripeCacheBytes = 1 << 20
	c.FlushInterval = 2 * sim.Millisecond
	return c
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	d, _ := ftl.New(eng, ftl.TestConfig())
	if _, err := New(eng, []blockdev.Device{d, d}, DefaultConfig(), nil); err == nil {
		t.Fatal("accepted 2 members")
	}
	cfg := DefaultConfig()
	cfg.ChunkBlocks = 0
	if _, err := New(eng, []blockdev.Device{d, d, d}, cfg, nil); err == nil {
		t.Fatal("accepted zero chunk")
	}
}

func TestFullStripeRoundTrip(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	// One full stripe: 3 data chunks x 4 blocks.
	payload := blockdev.Pattern(5, 12*4096)
	if r := blockdev.WriteSync(eng, a, 0, 12, payload); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := blockdev.ReadSync(eng, a, 0, 12)
	if r.Err != nil || !bytes.Equal(r.Data, payload) {
		t.Fatalf("round trip mismatch err=%v", r.Err)
	}
}

func TestPartialWriteRoundTripThroughCacheAndFlush(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	payload := blockdev.Pattern(9, 2*4096)
	mustWrite(t, eng, a, 5, 2, payload)
	// Read while dirty (served from cache).
	r := blockdev.ReadSync(eng, a, 5, 2)
	if !bytes.Equal(r.Data, payload) {
		t.Fatal("cache read mismatch")
	}
	// Run past the flush timer, then read from members.
	eng.RunUntil(eng.Now() + 20*sim.Millisecond)
	r = blockdev.ReadSync(eng, a, 5, 2)
	if !bytes.Equal(r.Data, payload) {
		t.Fatal("post-flush read mismatch")
	}
}

func TestRandomOverwriteRoundTrip(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	rng := sim.NewRNG(5)
	want := map[int64]byte{}
	for i := 0; i < 500; i++ {
		lba := rng.Int63n(a.Blocks())
		seed := byte(i)
		mustWrite(t, eng, a, lba, 1, blockdev.Pattern(seed, 4096))
		want[lba] = seed
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	for lba, seed := range want {
		r := blockdev.ReadSync(eng, a, lba, 1)
		if !bytes.Equal(r.Data, blockdev.Pattern(seed, 4096)) {
			t.Fatalf("lba %d mismatch", lba)
		}
	}
}

func TestFullStripeAvoidsRMW(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	mustWrite(t, eng, a, 0, 12, blockdev.Pattern(1, 12*4096)) // exactly one full stripe
	eng.Run()
	if a.rmwReads != 0 {
		t.Fatalf("full-stripe write incurred %d RMW read bytes", a.rmwReads)
	}
	wa := a.WriteAmp()
	if wa.FlashParityBytes != 4*4096 {
		t.Fatalf("parity out = %d, want one chunk", wa.FlashParityBytes)
	}
}

func TestPartialStripeIncursRMW(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	mustWrite(t, eng, a, 0, 1, blockdev.Pattern(1, 4096))
	eng.RunUntil(eng.Now() + 20*sim.Millisecond) // timer flush
	if a.rmwReads == 0 {
		t.Fatal("partial flush did not read-modify-write")
	}
}

func TestVolatileBufferTimerFlushes(t *testing.T) {
	eng, a, _ := newArray(t, testCfg())
	a.Write(3, 1, nil, nil)
	eng.RunUntil(1 * sim.Millisecond) // before the 2 ms flush timer
	if wa := a.WriteAmp(); wa.FlashDataBytes != 0 {
		t.Fatal("data flushed before timer")
	}
	eng.RunUntil(20 * sim.Millisecond)
	if wa := a.WriteAmp(); wa.FlashDataBytes == 0 {
		t.Fatal("timer never flushed the volatile buffer")
	}
}

func TestCachePressureEvicts(t *testing.T) {
	cfg := testCfg()
	cfg.StripeCacheBytes = 12 * 4096 // exactly one stripe
	cfg.FlushInterval = 0
	eng, a, _ := newArray(t, cfg)
	mustWrite(t, eng, a, 0, 1, nil)   // stripe 0 dirty
	mustWrite(t, eng, a, 100, 1, nil) // stripe far away: evicts stripe 0
	eng.Run()
	wa := a.WriteAmp()
	if wa.FlashDataBytes == 0 {
		t.Fatal("pressure eviction did not flush")
	}
}

func TestWriteMergingBenefitsSequential(t *testing.T) {
	// Sequential full stripes produce large coalesced member writes; the
	// engine-level data-out equals user bytes (no RMW, no re-writes).
	eng, a, _ := newArray(t, testCfg())
	for lba := int64(0); lba < 480; lba += 12 {
		mustWrite(t, eng, a, lba, 12, nil)
	}
	eng.Run()
	wa := a.WriteAmp()
	if wa.FlashDataBytes != wa.UserBytes {
		t.Fatalf("sequential data out %d != user %d", wa.FlashDataBytes, wa.UserBytes)
	}
	// Parity adds exactly 1/3 of user volume.
	if wa.FlashParityBytes*3 != wa.UserBytes {
		t.Fatalf("parity %d not 1/3 of user %d", wa.FlashParityBytes, wa.UserBytes)
	}
}

func TestThroughputCappedByHeadStage(t *testing.T) {
	cfg := testCfg()
	cfg.PageCost = 10 * sim.Microsecond // absurdly slow head for the test
	eng, a, _ := newArray(t, cfg)
	var doneBytes int64
	next := new(int64)
	var submit func()
	submit = func() {
		lba := *next
		*next += 12
		if lba+12 > a.Blocks() {
			*next = 12
			lba = 0
		}
		a.Write(lba, 12, nil, func(r blockdev.WriteResult) {
			if r.Err == nil {
				doneBytes += 12 * 4096
			}
			submit()
		})
	}
	for i := 0; i < 32; i++ {
		submit()
	}
	eng.RunUntil(20 * sim.Millisecond)
	mbps := float64(doneBytes) / 1e6 / 0.02
	// 10us per 4KB page => ~400 MB/s cap.
	if mbps > 500 {
		t.Fatalf("throughput %.0f MB/s exceeds head-stage cap", mbps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		eng, a, _ := newArray(t, testCfg())
		rng := sim.NewRNG(77)
		for i := 0; i < 800; i++ {
			mustWrite(t, eng, a, rng.Int63n(a.Blocks()/2), 2, nil)
		}
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
		wa := a.WriteAmp()
		return wa.FlashDataBytes, wa.FlashParityBytes
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Fatal("replay diverged")
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
