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
	"fmt"
	"math"

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
	if c.LRUEntries+c.HREntries+c.HPEntries >= math.MaxInt32 {
		return fmt.Errorf("ghostcache: %d entries overflow the arena's int32 index", c.LRUEntries+c.HREntries+c.HPEntries)
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

// entry is one tracked block: 40 bytes in the arena, plus a 4-byte index
// slot. Links are arena indices. At LevelLRU the entry sits on the LRU ring
// through prev and next; at LevelHR or LevelHP it is off the ring and prev
// holds its slot in that level's heap; an evicted entry chains the free
// list through next.
type entry struct {
	key        uint64
	lastSeen   uint64  // bytes-written clock at last access
	predRD     float64 // weighted moving average reuse distance (cost)
	reaccess   uint32  // accumulated reaccess count (revenue)
	prev, next int32
	level      Level
}

// The arena grows in chunks of arenaChunk entries that never move, so an
// *entry stays valid while the entry is in use. Index 0 is the LRU ring's
// sentinel, which also makes 0 the index table's "absent".
const (
	arenaShift = 8
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// Cache is the three-level ghost-cache hierarchy. Keys are logical block
// numbers: the index is a direct-indexed table of arena indices, so its
// memory follows the largest key seen. Not safe for concurrent use; the
// simulation is single-goroutine.
type Cache struct {
	cfg     Config
	entries pagetab.Table[int32]
	arena   []*[arenaChunk]entry
	used    int32 // arena indices handed out, the sentinel's included
	lruLen  int
	hr, hp  []int32 // heaps of arena indices; see less

	// Entries evicted from the LRU level are reused for later misses, so a
	// miss costs no allocation of its own once the hierarchy is full (and
	// 1/arenaChunk before that).
	free int32

	hits, misses uint64
}

// New builds the hierarchy; panics on invalid config (programmer error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{cfg: cfg}
}

// at returns the arena entry at index i.
func (c *Cache) at(i int32) *entry { return &c.arena[i>>arenaShift][i&arenaMask] }

// Len reports tracked entries per level (lru, hr, hp).
func (c *Cache) Len() (lru, hr, hp int) {
	return c.lruLen, len(c.hr), len(c.hp)
}

// newEntry returns the index of a zeroed entry: an evicted one if any, else
// the next of the arena, which the first call opens with the sentinel.
func (c *Cache) newEntry() int32 {
	if i := c.free; i != 0 {
		e := c.at(i)
		c.free = e.next
		*e = entry{}
		return i
	}
	if c.used == 0 {
		c.arena = append(c.arena, new([arenaChunk]entry))
		c.used = 1 // the sentinel: an empty ring links to itself
	}
	if int(c.used) == len(c.arena)*arenaChunk {
		c.arena = append(c.arena, new([arenaChunk]entry))
	}
	i := c.used
	c.used++
	return i
}

// lruPushFront links i in as the most recently used LRU-level entry.
func (c *Cache) lruPushFront(i int32) {
	s := c.at(0)
	e, first := c.at(i), s.next
	e.prev, e.next = 0, first
	s.next, c.at(first).prev = i, i
	c.lruLen++
}

// lruRemove unlinks i from the LRU ring.
func (c *Cache) lruRemove(i int32) {
	e := c.at(i)
	c.at(e.prev).next, c.at(e.next).prev = e.next, e.prev
	e.prev, e.next = 0, 0
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
	if i := c.entries.Get(int64(key)); i != 0 {
		return c.at(i).level
	}
	return LevelNone
}

// Access records a write access to key at the given cumulative
// bytes-written clock and returns the classification AFTER the update —
// the level the zone-group selector should place this chunk by.
func (c *Cache) Access(key uint64, clock uint64) Level {
	i := c.entries.Get(int64(key))
	if i == 0 {
		c.misses++
		i = c.newEntry()
		e := c.at(i)
		e.key, e.lastSeen, e.level = key, clock, LevelLRU
		c.entries.Set(int64(key), i)
		c.lruPushFront(i)
		c.enforceLRUCap()
		return LevelLRU
	}
	c.hits++
	e := c.at(i)
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
		c.lruRemove(i)
		if e.reaccess >= c.cfg.RevenueThreshold {
			c.promoteToHR(i)
		} else {
			c.lruPushFront(i)
		}
	case LevelHR:
		c.fix(&c.hr, int(e.prev))
		if e.predRD < float64(c.cfg.ProfitThreshold) {
			c.remove(&c.hr, int(e.prev))
			c.promoteToHP(i)
		}
	case LevelHP:
		c.fix(&c.hp, int(e.prev))
		if e.predRD >= float64(c.cfg.ProfitThreshold) {
			// Cost grew: no longer profitable, demote to HR.
			c.remove(&c.hp, int(e.prev))
			c.promoteToHR(i)
		}
	}
	return e.level
}

func (c *Cache) promoteToHR(i int32) {
	e := c.at(i)
	e.level = LevelHR
	c.push(&c.hr, i)
	if e.predRD < float64(c.cfg.ProfitThreshold) && e.reaccess >= c.cfg.RevenueThreshold {
		c.remove(&c.hr, int(e.prev))
		c.promoteToHP(i)
		return
	}
	c.enforceHRCap()
}

func (c *Cache) promoteToHP(i int32) {
	c.at(i).level = LevelHP
	c.push(&c.hp, i)
	c.enforceHPCap()
}

func (c *Cache) enforceLRUCap() {
	for c.lruLen > c.cfg.LRUEntries {
		i := c.at(0).prev
		c.lruRemove(i)
		e := c.at(i)
		c.entries.Delete(int64(e.key))
		e.next, c.free = c.free, i
	}
}

func (c *Cache) enforceHRCap() {
	for len(c.hr) > c.cfg.HREntries {
		i := c.pop(&c.hr)
		c.at(i).level = LevelLRU
		c.lruPushFront(i)
		c.enforceLRUCap()
	}
}

func (c *Cache) enforceHPCap() {
	for len(c.hp) > c.cfg.HPEntries {
		i := c.pop(&c.hp)
		c.at(i).level = LevelHR
		c.push(&c.hr, i)
		c.enforceHRCap()
	}
}

// The two levels' priority queues are binary heaps of arena indices, sifted
// step for step as container/heap sifts them, so entries that tie leave in
// the order they always have. HR orders by reaccess ascending (the
// least-revenue entry evicts first), HP by predicted reuse distance
// descending (the costliest evicts first). An entry's slot is its prev.

// less reports whether heap h's slot a orders before slot b.
func (c *Cache) less(h *[]int32, a, b int) bool {
	x, y := c.at((*h)[a]), c.at((*h)[b])
	if h == &c.hp {
		return x.predRD > y.predRD
	}
	return x.reaccess < y.reaccess
}

func (c *Cache) swap(h *[]int32, a, b int) {
	s := *h
	s[a], s[b] = s[b], s[a]
	c.at(s[a]).prev, c.at(s[b]).prev = int32(a), int32(b)
}

func (c *Cache) push(h *[]int32, i int32) {
	c.at(i).prev = int32(len(*h))
	*h = append(*h, i)
	c.up(h, len(*h)-1)
}

func (c *Cache) pop(h *[]int32) int32 {
	n := len(*h) - 1
	c.swap(h, 0, n)
	c.down(h, 0, n)
	return c.truncate(h)
}

func (c *Cache) remove(h *[]int32, j int) {
	if n := len(*h) - 1; n != j {
		c.swap(h, j, n)
		if !c.down(h, j, n) {
			c.up(h, j)
		}
	}
	c.truncate(h)
}

func (c *Cache) fix(h *[]int32, j int) {
	if !c.down(h, j, len(*h)) {
		c.up(h, j)
	}
}

// truncate drops and returns the heap's last index.
func (c *Cache) truncate(h *[]int32) int32 {
	n := len(*h) - 1
	i := (*h)[n]
	*h = (*h)[:n]
	return i
}

func (c *Cache) up(h *[]int32, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !c.less(h, j, i) {
			break
		}
		c.swap(h, i, j)
		j = i
	}
}

func (c *Cache) down(h *[]int32, i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && c.less(h, j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !c.less(h, j, i) {
			break
		}
		c.swap(h, i, j)
		i = j
	}
	return i > i0
}
