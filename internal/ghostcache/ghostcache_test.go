package ghostcache

import (
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
	e := c.entries.Get(1)
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
			l, h, p := c.Len()
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
	_, hr, hp := c.Len()
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
	if lru, _, _ := c.Len(); lru != cfg.LRUEntries {
		t.Fatalf("LRU level holds %d entries, want its capacity %d", lru, cfg.LRUEntries)
	}
}
