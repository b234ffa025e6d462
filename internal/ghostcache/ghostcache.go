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

// entry is one tracked block: 32 bytes in the arena, plus a 4-byte index
// slot. Links are arena indices. At LevelLRU the entry sits on the LRU ring
// through prev and next; at LevelHR or LevelHP it is off the ring, next
// holds that level's sentinel (offHR, offHP) and prev its slot in the
// level's heap; an evicted entry chains the free list through next.
type entry struct {
	lastSeen   uint64  // bytes-written clock at last access
	predRD     float64 // weighted moving average reuse distance (cost)
	key        uint32
	reaccess   uint32 // accumulated reaccess count (revenue)
	prev, next int32
}

// An off-ring entry's next names its level, negated; an entry on the ring
// (next >= 0) is at LevelLRU.
const (
	offHR = -int32(LevelHR)
	offHP = -int32(LevelHP)
)

func (e *entry) level() Level { return Level(max(-e.next, int32(LevelLRU))) }

// The arena grows in chunks of arenaChunk entries that never move, so an
// *entry stays valid while the entry is in use. Index 0 is the LRU ring's
// sentinel, which also makes 0 the index table's "absent".
const (
	arenaShift = 8
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// Cache is the three-level ghost-cache hierarchy. Keys are logical block
// numbers below 2^32: the index is a direct-indexed table of arena
// indices, so its memory follows the largest key seen. Not safe for
// concurrent use; the simulation is single-goroutine.
type Cache struct {
	cfg     Config
	entries pagetab.Table[int32]
	arena   []*[arenaChunk]entry
	used    int32 // arena indices handed out, the sentinel's included
	lruLen  int
	hr      levelHeap[uint32]  // reaccess ascending: the least revenue evicts first
	hp      levelHeap[float64] // -predRD ascending: the costliest evicts first

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
		return c.at(i).level()
	}
	return LevelNone
}

// Access records a write access to key at the given cumulative
// bytes-written clock and returns the classification AFTER the update —
// the level the zone-group selector should place this chunk by.
func (c *Cache) Access(key uint64, clock uint64) Level {
	i := c.entries.Get(int64(key))
	if i == 0 {
		if key > math.MaxUint32 {
			panic(fmt.Sprintf("ghostcache: key %d past 32 bits", key))
		}
		c.misses++
		i = c.newEntry()
		e := c.at(i)
		e.key, e.lastSeen = uint32(key), clock
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
	switch e.next {
	case offHR:
		c.hr.fix(c, int(e.prev), e.reaccess)
		if e.predRD < float64(c.cfg.ProfitThreshold) {
			c.hr.remove(c, int(e.prev))
			c.promoteToHP(i)
		}
	case offHP:
		c.hp.fix(c, int(e.prev), -e.predRD)
		if e.predRD >= float64(c.cfg.ProfitThreshold) {
			// Cost grew: no longer profitable, demote to HR.
			c.hp.remove(c, int(e.prev))
			c.promoteToHR(i)
		}
	default:
		c.lruRemove(i)
		if e.reaccess >= c.cfg.RevenueThreshold {
			c.promoteToHR(i)
		} else {
			c.lruPushFront(i)
		}
	}
	return e.level()
}

func (c *Cache) promoteToHR(i int32) {
	e := c.at(i)
	e.next = offHR
	c.hr.push(c, i, e.reaccess)
	if e.predRD < float64(c.cfg.ProfitThreshold) && e.reaccess >= c.cfg.RevenueThreshold {
		c.hr.remove(c, int(e.prev))
		c.promoteToHP(i)
		return
	}
	c.enforceHRCap()
}

func (c *Cache) promoteToHP(i int32) {
	e := c.at(i)
	e.next = offHP
	c.hp.push(c, i, -e.predRD)
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
		i := c.hr[0].i
		c.hr.remove(c, 0)
		c.lruPushFront(i)
		c.enforceLRUCap()
	}
}

func (c *Cache) enforceHPCap() {
	for len(c.hp) > c.cfg.HPEntries {
		i := c.hp[0].i
		c.hp.remove(c, 0)
		e := c.at(i)
		e.next = offHR
		c.hr.push(c, i, e.reaccess)
		c.enforceHRCap()
	}
}

// levelHeap is a level's binary min-heap of slots that carry their entry's
// sort key, so a sift reads no entry and writes only moved entries' prev.
// It compares step for step as container/heap does (holding the moving
// slot aside instead of swapping), so tied entries leave in the same order.
type levelHeap[K uint32 | float64] []slot[K]

type slot[K uint32 | float64] struct {
	key K
	i   int32 // arena index
}

func (h levelHeap[K]) put(c *Cache, j int, s slot[K]) {
	h[j] = s
	c.at(s.i).prev = int32(j)
}

func (h *levelHeap[K]) push(c *Cache, i int32, key K) {
	*h = append(*h, slot[K]{key, i})
	h.up(c, len(*h)-1)
}

func (h *levelHeap[K]) remove(c *Cache, j int) {
	s := *h
	if n := len(s) - 1; n != j {
		s.put(c, j, s[n])
		if !s[:n].down(c, j) {
			s.up(c, j)
		}
	}
	*h = s[:len(s)-1]
}

// fix gives slot j a new key and restores the order.
func (h levelHeap[K]) fix(c *Cache, j int, key K) {
	if h[j].key = key; !h.down(c, j) {
		h.up(c, j)
	}
}

func (h levelHeap[K]) up(c *Cache, j int) {
	s := h[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(s.key < h[i].key) {
			break
		}
		h.put(c, j, h[i])
		j = i
	}
	h.put(c, j, s)
}

func (h levelHeap[K]) down(c *Cache, i0 int) bool {
	s, i, n := h[i0], i0, len(h)
	for {
		j := 2*i + 1         // left child
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h[j2].key < h[j].key {
			j = j2 // right child
		}
		if !(h[j].key < s.key) {
			break
		}
		h.put(c, i, h[j])
		i = j
	}
	h.put(c, i, s)
	return i > i0
}
