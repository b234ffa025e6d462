// Package ghostcache implements BIZA's chunk-classification hierarchy
// (§4.2): ghost caches that store only access attributes — predicted
// reaccess count ("revenue") and predicted reuse distance ("cost") — and
// sort chunks into three classes that drive zone-group selection:
//
//	LRU cache  — recently touched chunks, filtering out poor locality;
//	HR cache   — high-revenue chunks (reaccessed >= threshold), priority
//	             queue evicting the least-reaccessed back to LRU;
//	HP cache   — high-profit chunks (high revenue AND short predicted
//	             reuse distance), priority queue evicting the longest
//	             reuse distance back to HR.
//
// Reuse distance follows the paper's §3.1 definition: bytes written
// between two consecutive accesses to the same address, so callers pass a
// cumulative bytes-written clock to Access. Predictions use the
// accumulated reaccess count and a weighted moving average of past reuse
// distances, as §4.2 specifies.
package ghostcache

import (
	"container/heap"
	"fmt"

	"biza/internal/pagetab"
)

// Level is a chunk's current classification.
type Level uint8

// Classification levels, in increasing profitability.
const (
	LevelNone Level = iota // not tracked (cold or never seen)
	LevelLRU               // recently seen, revenue unproven
	LevelHR                // high revenue, long reuse distance
	LevelHP                // high revenue, short reuse distance
)

func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelLRU:
		return "lru"
	case LevelHR:
		return "hr"
	case LevelHP:
		return "hp"
	}
	return "unknown"
}

// Config sizes the hierarchy. The paper's evaluation uses 1048576 / 262144
// / 16384 entries, a revenue threshold of 3 reaccesses, and a profit
// threshold of twice the total ZRWA size.
type Config struct {
	LRUEntries int
	HREntries  int
	HPEntries  int
	// RevenueThreshold is the accumulated reaccess count that promotes a
	// chunk from LRU to HR.
	RevenueThreshold uint32
	// ProfitThreshold is the predicted reuse distance (bytes) below which
	// an HR chunk is promoted to HP.
	ProfitThreshold uint64
	// Alpha weighs the newest reuse-distance observation in the moving
	// average; (0,1], default 0.5.
	Alpha float64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.LRUEntries < 1 || c.HREntries < 1 || c.HPEntries < 1 {
		return fmt.Errorf("ghostcache: non-positive capacity %+v", *c)
	}
	if c.RevenueThreshold < 1 {
		return fmt.Errorf("ghostcache: revenue threshold %d", c.RevenueThreshold)
	}
	if c.ProfitThreshold < 1 {
		return fmt.Errorf("ghostcache: profit threshold %d", c.ProfitThreshold)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("ghostcache: alpha %v", c.Alpha)
	}
	return nil
}

// DefaultConfig returns the paper's evaluation settings for a given total
// ZRWA capacity in bytes.
func DefaultConfig(totalZRWABytes uint64) Config {
	return Config{
		LRUEntries:       1 << 20,
		HREntries:        1 << 18,
		HPEntries:        1 << 14,
		RevenueThreshold: 3,
		ProfitThreshold:  2 * totalZRWABytes,
		Alpha:            0.5,
	}
}

type entry struct {
	key        uint64
	lastSeen   uint64  // bytes-written clock at last access
	reaccess   uint32  // accumulated reaccess count (revenue)
	predRD     float64 // weighted moving average reuse distance (cost)
	level      Level
	prev, next *entry // LRU ring links when level == LevelLRU; next chains the free list
	heapIdx    int    // when level == LevelHR or LevelHP
}

// hrHeap orders by reaccess ascending: the least-revenue entry evicts first.
type hrHeap []*entry

func (h hrHeap) Len() int           { return len(h) }
func (h hrHeap) Less(i, j int) bool { return h[i].reaccess < h[j].reaccess }
func (h hrHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *hrHeap) Push(x any)        { e := x.(*entry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *hrHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// hpHeap orders by predicted reuse distance descending: the costliest
// entry evicts first.
type hpHeap []*entry

func (h hpHeap) Len() int           { return len(h) }
func (h hpHeap) Less(i, j int) bool { return h[i].predRD > h[j].predRD }
func (h hpHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *hpHeap) Push(x any)        { e := x.(*entry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *hpHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Cache is the three-level ghost-cache hierarchy. Keys are logical block
// numbers: the index is a direct-indexed table, so its memory follows the
// largest key seen. Not safe for concurrent use; the simulation is
// single-goroutine.
type Cache struct {
	cfg     Config
	entries pagetab.Table[*entry]
	lru     entry // ring sentinel of the intrusive LRU list: lru.next = MRU, lru.prev = LRU
	lruLen  int
	hr      hrHeap
	hp      hpHeap

	// Entries evicted from the LRU level are reused for later misses, and
	// fresh ones are carved from slabs, so a miss costs no allocation of
	// its own once the hierarchy is full (and 1/entrySlab before that).
	free *entry
	slab []entry

	hits, misses uint64
}

const entrySlab = 256

// New builds the hierarchy; panics on invalid config (programmer error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Len reports tracked entries per level (lru, hr, hp).
func (c *Cache) Len() (lru, hr, hp int) {
	return c.lruLen, len(c.hr), len(c.hp)
}

// newEntry returns a zeroed entry: an evicted one if any, else the next of
// the current slab.
func (c *Cache) newEntry() *entry {
	if e := c.free; e != nil {
		c.free = e.next
		*e = entry{}
		return e
	}
	if len(c.slab) == 0 {
		c.slab = make([]entry, entrySlab)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	return e
}

// lruPushFront links e in as the most recently used LRU-level entry.
func (c *Cache) lruPushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
	c.lruLen++
}

// lruRemove unlinks e from the LRU ring.
func (c *Cache) lruRemove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.lruLen--
}

// HitRate reports the fraction of accesses that found the key tracked.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Level reports the key's current classification without recording an
// access.
func (c *Cache) Level(key uint64) Level {
	if e := c.entries.Get(int64(key)); e != nil {
		return e.level
	}
	return LevelNone
}

// Access records a write access to key at the given cumulative
// bytes-written clock and returns the classification AFTER the update —
// the level the zone-group selector should place this chunk by.
func (c *Cache) Access(key uint64, clock uint64) Level {
	e := c.entries.Get(int64(key))
	if e == nil {
		c.misses++
		e = c.newEntry()
		e.key, e.lastSeen, e.level = key, clock, LevelLRU
		c.entries.Set(int64(key), e)
		c.lruPushFront(e)
		c.enforceLRUCap()
		return LevelLRU
	}
	c.hits++
	rd := float64(clock - e.lastSeen)
	e.lastSeen = clock
	e.reaccess++
	if e.reaccess == 1 {
		e.predRD = rd
	} else {
		e.predRD = c.cfg.Alpha*rd + (1-c.cfg.Alpha)*e.predRD
	}
	switch e.level {
	case LevelLRU:
		c.lruRemove(e)
		if e.reaccess >= c.cfg.RevenueThreshold {
			c.promoteToHR(e)
		} else {
			c.lruPushFront(e)
		}
	case LevelHR:
		heap.Fix(&c.hr, e.heapIdx)
		if e.predRD < float64(c.cfg.ProfitThreshold) {
			heap.Remove(&c.hr, e.heapIdx)
			c.promoteToHP(e)
		}
	case LevelHP:
		heap.Fix(&c.hp, e.heapIdx)
		if e.predRD >= float64(c.cfg.ProfitThreshold) {
			// Cost grew: no longer profitable, demote to HR.
			heap.Remove(&c.hp, e.heapIdx)
			c.promoteToHR(e)
		}
	}
	return e.level
}

func (c *Cache) promoteToHR(e *entry) {
	e.level = LevelHR
	heap.Push(&c.hr, e)
	if e.predRD < float64(c.cfg.ProfitThreshold) && e.reaccess >= c.cfg.RevenueThreshold {
		heap.Remove(&c.hr, e.heapIdx)
		c.promoteToHP(e)
		return
	}
	c.enforceHRCap()
}

func (c *Cache) promoteToHP(e *entry) {
	e.level = LevelHP
	heap.Push(&c.hp, e)
	c.enforceHPCap()
}

func (c *Cache) enforceLRUCap() {
	for c.lruLen > c.cfg.LRUEntries {
		e := c.lru.prev
		c.lruRemove(e)
		c.entries.Delete(int64(e.key))
		e.next, c.free = c.free, e
	}
}

func (c *Cache) enforceHRCap() {
	for len(c.hr) > c.cfg.HREntries {
		e := heap.Pop(&c.hr).(*entry)
		e.level = LevelLRU
		c.lruPushFront(e)
		c.enforceLRUCap()
	}
}

func (c *Cache) enforceHPCap() {
	for len(c.hp) > c.cfg.HPEntries {
		e := heap.Pop(&c.hp).(*entry)
		e.level = LevelHR
		heap.Push(&c.hr, e)
		c.enforceHRCap()
	}
}
