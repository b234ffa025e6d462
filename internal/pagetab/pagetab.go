// Package pagetab provides the one table shape the simulator's mapping
// state needs: a value per small non-negative integer key (a logical block,
// a stripe number, a block offset within a zone), looked up far more often
// than it is inserted.
//
// A Go map hashes such keys, probes, and rehashes every entry each time it
// grows. Table indexes instead: the key's high bits select a page from a
// directory, its low bits a slot in the page. Pages are allocated when
// first touched and go back to a free list when their last entry is
// deleted, so a sparse or sliding key range (stripe numbers only ever
// grow; a zone's write buffer is a moving window) costs memory for the
// pages in use, not for the range spanned. The directory itself is one
// pointer per PageSize keys up to the highest key ever set.
package pagetab

import "math/bits"

// PageSize is the number of slots per page. 256 keeps a page of pointers
// at 2 KiB and a page of three-word values at 6 KiB — small enough that a
// table holding a handful of entries (one array of a 48-array fleet, one
// zone's write buffer) wastes little, large enough that the directory of
// a million-block table is 4 Ki pointers.
const PageSize = 1 << pageShift

const (
	pageShift = 8
	pageMask  = PageSize - 1
)

type page[V any] struct {
	vals [PageSize]V
	set  [PageSize / 64]uint64 // which slots hold an entry
	n    int
}

// Pool is a free list of emptied pages. A Table made by Pool.Table shares
// it with its siblings (the zones of one device recycle each other's
// pages); any other Table has one of its own. The zero value is ready.
type Pool[V any] struct {
	free []*page[V]
}

// Table returns an empty table that draws its pages from p.
func (p *Pool[V]) Table() Table[V] { return Table[V]{pool: p} }

// Table maps non-negative int64 keys to values. A key that holds no entry
// reads as V's zero value. The zero Table is empty and ready to use. Not
// safe for concurrent use.
type Table[V any] struct {
	dir  []*page[V]
	n    int
	pool *Pool[V]
}

// Len reports the number of entries.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value at k, or the zero value when k holds no entry
// (negative keys never do).
func (t *Table[V]) Get(k int64) (v V) {
	if i := uint64(k) >> pageShift; i < uint64(len(t.dir)) {
		if p := t.dir[i]; p != nil {
			return p.vals[k&pageMask]
		}
	}
	return v
}

// Set stores v at k, which must not be negative. Memory grows with the
// largest key set, so keys must come from a bounded or slowly advancing
// range.
func (t *Table[V]) Set(k int64, v V) { *t.Ptr(k) = v }

// Ptr returns the address of the value at k, which must not be negative,
// first setting a zero-valued entry there if k holds none: a
// read-modify-write of an entry in one lookup. The address is good until
// the entry is deleted or the table cleared.
func (t *Table[V]) Ptr(k int64) *V {
	i := int(k >> pageShift)
	if i >= len(t.dir) {
		t.growDir(i + 1)
	}
	p := t.dir[i]
	if p == nil {
		p = t.newPage()
		t.dir[i] = p
	}
	s := k & pageMask
	if bit := uint64(1) << (s & 63); p.set[s>>6]&bit == 0 {
		p.set[s>>6] |= bit
		p.n++
		t.n++
	}
	return &p.vals[s]
}

// Delete removes the entry at k, if any.
func (t *Table[V]) Delete(k int64) {
	i := uint64(k) >> pageShift
	if i >= uint64(len(t.dir)) || t.dir[i] == nil {
		return
	}
	p, s := t.dir[i], k&pageMask
	bit := uint64(1) << (s & 63)
	if p.set[s>>6]&bit == 0 {
		return
	}
	var zero V
	p.vals[s] = zero
	p.set[s>>6] &^= bit
	p.n--
	t.n--
	if p.n == 0 {
		t.dir[i] = nil
		t.pool.free = append(t.pool.free, p)
	}
}

// Range calls fn for every entry in ascending key order until fn returns
// false. fn may delete the entry it was called with and no other, and must
// not set any.
func (t *Table[V]) Range(fn func(k int64, v V) bool) {
	for i := 0; i < len(t.dir); i++ {
		p := t.dir[i]
		if p == nil {
			continue
		}
		for w := 0; w < len(p.set) && t.dir[i] == p; w++ {
			// The word is read once: bits fn clears are its own entry's.
			for m := p.set[w]; m != 0 && t.dir[i] == p; m &= m - 1 {
				s := w<<6 + bits.TrailingZeros64(m)
				if !fn(int64(i)<<pageShift+int64(s), p.vals[s]) {
					return
				}
			}
		}
	}
}

// Clear removes every entry, returns the pages to the pool and drops the
// directory: a cleared table holds no memory.
func (t *Table[V]) Clear() {
	for _, p := range t.dir {
		if p != nil {
			*p = page[V]{}
			t.pool.free = append(t.pool.free, p)
		}
	}
	t.dir, t.n = nil, 0
}

// growDir extends the directory to n entries, doubling its capacity when
// it runs out. Entries past the old length are nil: nothing writes beyond
// the length, and Clear drops the array.
func (t *Table[V]) growDir(n int) {
	if n > cap(t.dir) {
		dir := make([]*page[V], len(t.dir), max(n, 2*cap(t.dir)))
		copy(dir, t.dir)
		t.dir = dir
	}
	t.dir = t.dir[:n]
}

// newPage takes an empty page from the pool, or allocates one.
func (t *Table[V]) newPage() *page[V] {
	if t.pool == nil {
		t.pool = &Pool[V]{}
	}
	if n := len(t.pool.free); n > 0 {
		p := t.pool.free[n-1]
		t.pool.free[n-1] = nil
		t.pool.free = t.pool.free[:n-1]
		return p
	}
	return &page[V]{}
}
