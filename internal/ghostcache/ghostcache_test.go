package ghostcache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func testCfg() Config {
	return Config{
		LRUEntries:       64,
		HREntries:        16,
		HPEntries:        4,
		RevenueThreshold: 3,
		ProfitThreshold:  1000,
		Alpha:            0.5,
	}
}

func TestConfigValidation(t *testing.T) {
	good := testCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.LRUEntries = 0 },
		func(c *Config) { c.RevenueThreshold = 0 },
		func(c *Config) { c.ProfitThreshold = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
	} {
		c := testCfg()
		mod(&c)
		if c.Validate() == nil {
			t.Fatalf("accepted bad config %+v", c)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig(56 << 20) // 56 MB total ZRWA (4 x 14 x 1 MB)
	if c.LRUEntries != 1048576 || c.HREntries != 262144 || c.HPEntries != 16384 {
		t.Fatalf("capacities %d/%d/%d", c.LRUEntries, c.HREntries, c.HPEntries)
	}
	if c.RevenueThreshold != 3 {
		t.Fatal("revenue threshold not 3")
	}
	if c.ProfitThreshold != 2*(56<<20) {
		t.Fatal("profit threshold not 2x ZRWA")
	}
}

func TestFirstAccessLandsInLRU(t *testing.T) {
	c := New(testCfg())
	if lvl := c.Access(1, 0); lvl != LevelLRU {
		t.Fatalf("first access level = %v", lvl)
	}
	if c.Level(1) != LevelLRU {
		t.Fatal("peek disagrees")
	}
	if c.Level(2) != LevelNone {
		t.Fatal("unknown key not none")
	}
}

func TestPromotionToHRAfterThreshold(t *testing.T) {
	c := New(testCfg())
	clock := uint64(0)
	c.Access(1, clock)
	clock += 5000 // reuse distances above profit threshold keep it out of HP
	if lvl := c.Access(1, clock); lvl != LevelLRU {
		t.Fatalf("after 1 reaccess: %v", lvl)
	}
	clock += 5000
	if lvl := c.Access(1, clock); lvl != LevelLRU {
		t.Fatalf("after 2 reaccesses: %v", lvl)
	}
	clock += 5000
	if lvl := c.Access(1, clock); lvl != LevelHR {
		t.Fatalf("after 3 reaccesses: %v", lvl)
	}
}

func TestPromotionToHPWithShortReuseDistance(t *testing.T) {
	c := New(testCfg())
	clock := uint64(0)
	for i := 0; i < 4; i++ {
		c.Access(1, clock)
		clock += 100 // far below the 1000-byte profit threshold
	}
	if lvl := c.Level(1); lvl != LevelHP {
		t.Fatalf("hot short-distance chunk level = %v, want hp", lvl)
	}
}

func TestHighRevenueLongDistanceStaysHR(t *testing.T) {
	c := New(testCfg())
	clock := uint64(0)
	for i := 0; i < 10; i++ {
		c.Access(2, clock)
		clock += 100000
	}
	if lvl := c.Level(2); lvl != LevelHR {
		t.Fatalf("long-distance chunk level = %v, want hr", lvl)
	}
}

func TestDemotionFromHPWhenDistanceGrows(t *testing.T) {
	c := New(testCfg())
	clock := uint64(0)
	for i := 0; i < 4; i++ {
		c.Access(1, clock)
		clock += 50
	}
	if c.Level(1) != LevelHP {
		t.Fatal("setup: not in HP")
	}
	// Long gaps grow the WMA beyond the threshold.
	for i := 0; i < 6; i++ {
		clock += 1 << 20
		c.Access(1, clock)
	}
	if lvl := c.Level(1); lvl != LevelHR {
		t.Fatalf("grown-distance chunk level = %v, want hr", lvl)
	}
}

func TestLRUEvictionDropsCold(t *testing.T) {
	cfg := testCfg()
	cfg.LRUEntries = 4
	c := New(cfg)
	for k := uint64(0); k < 8; k++ {
		c.Access(k, k*10)
	}
	// Keys 0..3 evicted, 4..7 tracked.
	for k := uint64(0); k < 4; k++ {
		if c.Level(k) != LevelNone {
			t.Fatalf("key %d not evicted", k)
		}
	}
	for k := uint64(4); k < 8; k++ {
		if c.Level(k) != LevelLRU {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestHREvictsLeastReaccessed(t *testing.T) {
	cfg := testCfg()
	cfg.HREntries = 2
	c := New(cfg)
	clock := uint64(0)
	hot := func(key uint64, hits int) {
		for i := 0; i < hits; i++ {
			c.Access(key, clock)
			clock += 5000
		}
	}
	hot(1, 6) // reaccess 5
	hot(2, 5) // reaccess 4
	hot(3, 4) // reaccess 3 -> promoting 3 overflows HR, evicting it (min)
	if c.Level(1) != LevelHR || c.Level(2) != LevelHR {
		t.Fatalf("high-revenue keys demoted: %v %v", c.Level(1), c.Level(2))
	}
	if c.Level(3) != LevelLRU {
		t.Fatalf("least-reaccessed key level = %v, want lru", c.Level(3))
	}
}

func TestHPEvictsLongestDistance(t *testing.T) {
	cfg := testCfg()
	cfg.HPEntries = 2
	c := New(cfg)
	clock := uint64(0)
	burst := func(key uint64, gap uint64) {
		for i := 0; i < 4; i++ {
			c.Access(key, clock)
			clock += gap
		}
	}
	burst(1, 10)
	burst(2, 100)
	burst(3, 500) // longest predicted distance; HP holds 2, so 3 overflows
	inHP := 0
	for _, k := range []uint64{1, 2, 3} {
		if c.Level(k) == LevelHP {
			inHP++
		}
	}
	if inHP != 2 {
		t.Fatalf("HP holds %d keys, want 2", inHP)
	}
	if c.Level(3) != LevelHR {
		t.Fatalf("longest-distance key level = %v, want hr", c.Level(3))
	}
}

func TestPredictedReuseDistanceWMA(t *testing.T) {
	c := New(testCfg())
	c.Access(1, 0)
	c.Access(1, 100) // first observed rd = 100
	e := c.at(c.entries.Get(1))
	if e.reaccess != 1 || e.predRD != 100 {
		t.Fatalf("pred = %v after %d re-accesses, want 100", e.predRD, e.reaccess)
	}
	c.Access(1, 300) // rd 200 -> wma 0.5*200+0.5*100 = 150
	if e.predRD != 150 {
		t.Fatalf("wma = %v, want 150", e.predRD)
	}
}

func TestHitRate(t *testing.T) {
	c := New(testCfg())
	c.Access(1, 0)
	c.Access(1, 10)
	c.Access(2, 20)
	if hr := c.HitRate(); hr < 0.3 || hr > 0.4 {
		t.Fatalf("hit rate = %v, want 1/3", hr)
	}
}

func TestCapacityInvariantsQuick(t *testing.T) {
	// Property: under arbitrary access streams the per-level sizes never
	// exceed capacity and every tracked key reports a consistent level.
	cfg := Config{LRUEntries: 8, HREntries: 4, HPEntries: 2,
		RevenueThreshold: 2, ProfitThreshold: 64, Alpha: 0.5}
	f := func(keys []uint8, gaps []uint8) bool {
		c := New(cfg)
		clock := uint64(0)
		for i, k := range keys {
			g := uint64(1)
			if i < len(gaps) {
				g = uint64(gaps[i]) + 1
			}
			clock += g
			c.Access(uint64(k%16), clock)
			l, h, p := c.lruLen, len(c.hr), len(c.hp)
			if l > cfg.LRUEntries || h > cfg.HREntries || p > cfg.HPEntries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScanResistance(t *testing.T) {
	// A one-pass scan (no reuse) must never promote anything beyond LRU.
	c := New(testCfg())
	for k := uint64(0); k < 1000; k++ {
		if lvl := c.Access(k, k*4096); lvl != LevelLRU {
			t.Fatalf("scan promoted key %d to %v", k, lvl)
		}
	}
	hr, hp := len(c.hr), len(c.hp)
	if hr != 0 || hp != 0 {
		t.Fatalf("scan polluted hr=%d hp=%d", hr, hp)
	}
}

// TestMissAtCapacityAllocFree: once the LRU level is full, a miss reuses
// the entry it evicts, so a scan of never-seen keys costs no allocation
// (it used to cost an entry and a list element per miss).
func TestMissAtCapacityAllocFree(t *testing.T) {
	cfg := testCfg()
	c := New(cfg)
	key, clock := uint64(0), uint64(0)
	miss := func() {
		key++
		clock += 4096
		if lvl := c.Access(key, clock); lvl != LevelLRU {
			t.Fatalf("first access of key %d classified %v", key, lvl)
		}
	}
	for i := 0; i < 4*cfg.LRUEntries; i++ {
		miss()
	}
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("miss at capacity allocates %.1f, want 0", allocs)
	}
	if lru := c.lruLen; lru != cfg.LRUEntries {
		t.Fatalf("LRU level holds %d entries, want its capacity %d", lru, cfg.LRUEntries)
	}
}

// TestArenaMatchesPointerCache drives Cache and the pointer-linked cache
// it replaced (oracle_test.go) with the same accesses: 20 random
// configurations, 200 000 accesses each. The keys mix a hot set, a warm
// range a few times the LRU level, and never-seen scan keys; the clock
// advances by one to eight blocks a step, so reuse distances straddle the
// profit threshold. Every access must classify the same, and Len, HitRate
// and the Level of probed keys must agree throughout; HR and HP must end
// full in at least three configurations each, and checkHeaps must hold
// every 97 accesses. -short takes 20 000 accesses per configuration.
func TestArenaMatchesPointerCache(t *testing.T) {
	accesses := 200000
	if testing.Short() {
		accesses = 20000
	}
	rng := rand.New(rand.NewSource(13))
	hrFull, hpFull := 0, 0
	for cfgN := 0; cfgN < 20; cfgN++ {
		cfg := Config{
			LRUEntries:       1 + rng.Intn(512),
			HREntries:        1 + rng.Intn(128),
			HPEntries:        1 + rng.Intn(32),
			RevenueThreshold: uint32(1 + rng.Intn(5)),
			ProfitThreshold:  uint64(4096) << rng.Intn(12),
			Alpha:            []float64{0.25, 0.5, 0.75, 1, rng.Float64()*0.99 + 0.01}[rng.Intn(5)],
		}
		c, o := New(cfg), newPtrCache(cfg)
		hot := uint64(1 + rng.Intn(64))
		warm := uint64(cfg.LRUEntries * (1 + rng.Intn(4)))
		scan, clock := hot+warm, uint64(0)
		for i := 0; i < accesses; i++ {
			var key uint64
			switch r := rng.Intn(10); {
			case r < 5:
				key = uint64(rng.Int63n(int64(hot)))
			case r < 9:
				key = hot + uint64(rng.Int63n(int64(warm)))
			default:
				scan++
				key = scan
			}
			clock += 4096 * uint64(1+rng.Intn(8))
			if got, want := c.Access(key, clock), o.Access(key, clock); got != want {
				t.Fatalf("config %d %+v, access %d: key %d classified %v, want %v", cfgN, cfg, i, key, got, want)
			}
			if i%97 == 0 {
				if err := checkHeaps(c); err != nil {
					t.Fatalf("config %d, access %d: %v", cfgN, i, err)
				}
				probe := uint64(rng.Int63n(int64(hot + warm)))
				if got, want := c.Level(probe), o.Level(probe); got != want {
					t.Fatalf("config %d, access %d: Level(%d) = %v, want %v", cfgN, i, probe, got, want)
				}
				gl, gr, gp := c.lruLen, len(c.hr), len(c.hp)
				wl, wr, wp := o.Len()
				if gl != wl || gr != wr || gp != wp {
					t.Fatalf("config %d, access %d: Len = %d/%d/%d, want %d/%d/%d", cfgN, i, gl, gr, gp, wl, wr, wp)
				}
			}
		}
		if hr, hp := len(c.hr), len(c.hp); hr == cfg.HREntries {
			hrFull++
			if hp == cfg.HPEntries {
				hpFull++
			}
		}
		if got, want := c.HitRate(), o.HitRate(); got != want {
			t.Fatalf("config %d: HitRate = %v, want %v", cfgN, got, want)
		}
		for k := uint64(0); k < hot+warm; k++ {
			if got, want := c.Level(k), o.Level(k); got != want {
				t.Fatalf("config %d, end: Level(%d) = %v, want %v", cfgN, k, got, want)
			}
		}
	}
	if hrFull < 3 || hpFull < 3 {
		t.Fatalf("HR ended full in %d configurations and HP in %d, want at least 3 each", hrFull, hpFull)
	}
}

// checkHeaps reports the first slot of the HR or HP heap that disagrees
// with its entry: a key other than the entry's reaccess (HR) or -predRD
// (HP), a prev that names another slot, or a level read from next other
// than the slot's heap.
func checkHeaps(c *Cache) error {
	for j, s := range c.hr {
		if e := c.at(s.i); s.key != e.reaccess || int(e.prev) != j || e.level() != LevelHR {
			return fmt.Errorf("HR slot %d: key %d, entry %d has reaccess %d, prev %d, level %v", j, s.key, s.i, e.reaccess, e.prev, e.level())
		}
	}
	for j, s := range c.hp {
		if e := c.at(s.i); s.key != -e.predRD || int(e.prev) != j || e.level() != LevelHP {
			return fmt.Errorf("HP slot %d: key %v, entry %d has predRD %v, prev %d, level %v", j, s.key, s.i, e.predRD, e.prev, e.level())
		}
	}
	return nil
}

// TestTrackedBlockBytesAllocFree holds a tracked block to 40 bytes of live
// heap: its arena entry and its slot of the key index, the tables' pages
// and directories included.
func TestTrackedBlockBytesAllocFree(t *testing.T) {
	const n = 1 << 16
	cfg := testCfg()
	cfg.LRUEntries = n
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := heapBytes()
	c := New(cfg)
	for k := uint64(0); k < n; k++ {
		c.Access(k, k*4096)
	}
	after := heapBytes()
	if lru := c.lruLen; lru != n {
		t.Fatalf("LRU level holds %d blocks, want %d", lru, n)
	}
	per := float64(after-before) / n
	t.Logf("%.1f heap bytes per tracked block", per)
	if per > 40 {
		t.Fatalf("a tracked block costs %.1f heap bytes, want at most 40", per)
	}
	runtime.KeepAlive(c)
}

// heapBytes reports the live heap after two full collections (the second
// frees what sync.Pool victim caches held through the first).
func heapBytes() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkAccessHRHeavy times Access at DefaultConfig on zipf(1.1) keys
// over 512 Ki blocks, offset by 4096 ranks so the head is wide: a warm-up
// of 2 Mi accesses leaves over 100 000 entries in HR, whose sifts then
// walk a heap 17 levels deep.
func BenchmarkAccessHRHeavy(b *testing.B) {
	c := New(DefaultConfig(56 << 20))
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 4096, 1<<19-1)
	keys := make([]uint64, 1<<21)
	for i := range keys {
		keys[i] = zipf.Uint64()
	}
	var clock uint64
	for _, k := range keys {
		clock += 4096
		c.Access(k, clock)
	}
	if hr := len(c.hr); hr < 100000 {
		b.Fatalf("HR holds %d entries after warm-up, want over 100 000", hr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock += 4096
		c.Access(keys[i&(len(keys)-1)], clock)
	}
}
