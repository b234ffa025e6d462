package ghostcache

// The pointer-linked ghost cache that Cache replaced, kept verbatim but for
// its names as the oracle of TestArenaMatchesPointerCache: 64-byte entries
// on *entry links and an index of pointers. Cache must classify every
// access exactly as it does.

import (
	"container/heap"

	"biza/internal/pagetab"
)

type ptrEntry struct {
	key        uint64
	lastSeen   uint64  // bytes-written clock at last access
	reaccess   uint32  // accumulated reaccess count (revenue)
	predRD     float64 // weighted moving average reuse distance (cost)
	level      Level
	prev, next *ptrEntry // LRU ring links when level == LevelLRU; next chains the free list
	heapIdx    int       // when level == LevelHR or LevelHP
}

// ptrHR orders by reaccess ascending: the least-revenue entry evicts first.
type ptrHR []*ptrEntry

func (h ptrHR) Len() int           { return len(h) }
func (h ptrHR) Less(i, j int) bool { return h[i].reaccess < h[j].reaccess }
func (h ptrHR) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *ptrHR) Push(x any)        { e := x.(*ptrEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *ptrHR) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// ptrHP orders by predicted reuse distance descending: the costliest
// entry evicts first.
type ptrHP []*ptrEntry

func (h ptrHP) Len() int           { return len(h) }
func (h ptrHP) Less(i, j int) bool { return h[i].predRD > h[j].predRD }
func (h ptrHP) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *ptrHP) Push(x any)        { e := x.(*ptrEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *ptrHP) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// ptrCache is the hierarchy as it was before its entries moved into an
// arena: every entry its own slab slot, linked and indexed by pointer.
type ptrCache struct {
	cfg     Config
	entries pagetab.Table[*ptrEntry]
	lru     ptrEntry // ring sentinel of the intrusive LRU list: lru.next = MRU, lru.prev = LRU
	lruLen  int
	hr      ptrHR
	hp      ptrHP

	// Entries evicted from the LRU level are reused for later misses, and
	// fresh ones are carved from slabs, so a miss costs no allocation of
	// its own once the hierarchy is full (and 1/ptrSlab before that).
	free *ptrEntry
	slab []ptrEntry

	hits, misses uint64
}

const ptrSlab = 256

func newPtrCache(cfg Config) *ptrCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &ptrCache{cfg: cfg}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Len reports tracked entries per level (lru, hr, hp).
func (c *ptrCache) Len() (lru, hr, hp int) {
	return c.lruLen, len(c.hr), len(c.hp)
}

// newEntry returns a zeroed entry: an evicted one if any, else the next of
// the current slab.
func (c *ptrCache) newEntry() *ptrEntry {
	if e := c.free; e != nil {
		c.free = e.next
		*e = ptrEntry{}
		return e
	}
	if len(c.slab) == 0 {
		c.slab = make([]ptrEntry, ptrSlab)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	return e
}

// lruPushFront links e in as the most recently used LRU-level entry.
func (c *ptrCache) lruPushFront(e *ptrEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
	c.lruLen++
}

// lruRemove unlinks e from the LRU ring.
func (c *ptrCache) lruRemove(e *ptrEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	c.lruLen--
}

// HitRate reports the fraction of accesses that found the key tracked.
func (c *ptrCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Level reports the key's current classification without recording an
// access.
func (c *ptrCache) Level(key uint64) Level {
	if e := c.entries.Get(int64(key)); e != nil {
		return e.level
	}
	return LevelNone
}

// Access records a write access to key at the given cumulative
// bytes-written clock and returns the classification AFTER the update —
// the level the zone-group selector should place this chunk by.
func (c *ptrCache) Access(key uint64, clock uint64) Level {
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

func (c *ptrCache) promoteToHR(e *ptrEntry) {
	e.level = LevelHR
	heap.Push(&c.hr, e)
	if e.predRD < float64(c.cfg.ProfitThreshold) && e.reaccess >= c.cfg.RevenueThreshold {
		heap.Remove(&c.hr, e.heapIdx)
		c.promoteToHP(e)
		return
	}
	c.enforceHRCap()
}

func (c *ptrCache) promoteToHP(e *ptrEntry) {
	e.level = LevelHP
	heap.Push(&c.hp, e)
	c.enforceHPCap()
}

func (c *ptrCache) enforceLRUCap() {
	for c.lruLen > c.cfg.LRUEntries {
		e := c.lru.prev
		c.lruRemove(e)
		c.entries.Delete(int64(e.key))
		e.next, c.free = c.free, e
	}
}

func (c *ptrCache) enforceHRCap() {
	for len(c.hr) > c.cfg.HREntries {
		e := heap.Pop(&c.hr).(*ptrEntry)
		e.level = LevelLRU
		c.lruPushFront(e)
		c.enforceLRUCap()
	}
}

func (c *ptrCache) enforceHPCap() {
	for len(c.hp) > c.cfg.HPEntries {
		e := heap.Pop(&c.hp).(*ptrEntry)
		e.level = LevelHR
		heap.Push(&c.hr, e)
		c.enforceHRCap()
	}
}
