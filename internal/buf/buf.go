// Package buf provides the refcounted, size-class-segregated buffer pool
// behind every recycled []byte on the data path (workload → core →
// erasure → nvme → zns). A refcounted Buf travels unchanged across layer
// boundaries: layers take references instead of copying payloads, and the
// flash model's defensive copy becomes a refcount hold. Scratch that
// never crosses a boundary (block copies, OOB records, parity
// accumulators) uses the raw Alloc/Free side of the same pool.
//
// Ownership protocol (move semantics): a payload is a (view []byte,
// own *Buf) pair. Passing `own` to a callee transfers exactly one
// reference; the callee must Release it on every path (success, error,
// drop) or Retain before fanning out. Callers that keep using the buffer
// after handing it off must Retain first. A nil *Buf is always legal and
// means "caller-owned bytes, copy if you must keep them".
//
// Layout: each Buf fronts one pooled slab laid out as [ data | OOB ].
//
// Pools are single-goroutine by design (one per simulation shard /
// platform, plus a private one inside each device model), so reference
// counts are plain integers: no atomics on the hot path.
package buf

import (
	"fmt"
	"math/bits"
)

const (
	minClassShift = 6  // smallest slab: 64 B (OOB records, metadata)
	maxClassShift = 20 // largest slab: 1 MiB (coalesced batch payloads)
	numClasses    = maxClassShift - minClassShift + 1

	poisonByte = 0xDB
)

// Stats is the pool's cumulative accounting. All counters are
// deterministic: pools are driven only from simulation goroutines.
type Stats struct {
	Gets        int64 // buffers handed out (Get/Alloc)
	Hits        int64 // ... of which were served from a free list
	Misses      int64 // ... of which heap-allocated (cold pool or oversize)
	Copies      int64 // payload copies noted by layers via NoteCopy
	CopiedBytes int64 // bytes covered by those copies
}

// Pool is a size-class-segregated buffer pool. The zero value is NOT
// ready; use NewPool. Not safe for concurrent use — one pool per
// simulation shard.
type Pool struct {
	free    [numClasses][]*Buf
	rawFree [numClasses][][]byte
	recFree []*Buf // spare Buf records (slab detached)
	stats   Stats
	live    int64 // outstanding refcounted buffers
	rawLive int64 // outstanding raw slabs
	poison  bool
}

// NewPool returns an empty pool. Slabs are allocated lazily on first
// miss per class and recycled forever after.
func NewPool() *Pool { return &Pool{} }

// SetPoison enables pool poisoning: released buffers are filled with
// 0xDB and verified intact on reuse, so a write through a stale
// reference panics with a diagnostic at the next Get instead of silently
// corrupting an unrelated I/O. Test hook — poisoning touches every byte
// of every recycled slab, so it stays off in benchmarks.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Stats returns a snapshot of the pool's cumulative counters.
func (p *Pool) Stats() Stats { return p.stats }

// Live reports the number of refcounted buffers currently held by the
// data path (refs > 0). Zero after a drained run means no leaks.
func (p *Pool) Live() int64 { return p.live }

// RawLive reports outstanding raw slabs from Alloc not yet Freed.
func (p *Pool) RawLive() int64 { return p.rawLive }

// NoteCopy records a payload copy of n bytes performed by a layer. The
// zero-copy gates assert this stays flat across steady-state writes.
func (p *Pool) NoteCopy(n int) {
	p.stats.Copies++
	p.stats.CopiedBytes += int64(n)
}

// classFor returns the smallest class whose slab holds total bytes, or
// -1 when total exceeds the largest class (oversize: plain heap alloc).
// Branch-free on the hot path: class = ceil(log2(total)) - minClassShift.
func classFor(total int) int {
	if total <= 1<<minClassShift {
		return 0
	}
	if total > 1<<maxClassShift {
		return -1
	}
	return bits.Len(uint(total-1)) - minClassShift
}

// Buf is one refcounted buffer. Access the payload with Bytes; the
// out-of-band area Get reserves follows it in the slab. Created with one
// reference.
type Buf struct {
	pool  *Pool
	mem   []byte // whole slab: data, then OOB
	n     int    // data length
	refs  int32
	class int16 // -1: oversize, slab not recycled
}

// Get returns a buffer with n data bytes and an oob-byte out-of-band
// area, with one reference. Contents are unspecified (pooled memory is
// recycled, not rezeroed).
func (p *Pool) Get(n, oob int) *Buf {
	if n < 0 || oob < 0 {
		panic(fmt.Sprintf("buf: Get(%d, %d): negative size", n, oob))
	}
	total := n + oob
	class := classFor(total)
	p.stats.Gets++
	var b *Buf
	if class >= 0 {
		if l := p.free[class]; len(l) > 0 {
			b = l[len(l)-1]
			l[len(l)-1] = nil
			p.free[class] = l[:len(l)-1]
			p.stats.Hits++
			if p.poison {
				b.checkPoison()
			}
		}
	}
	if b == nil {
		p.stats.Misses++
		size := total
		if class >= 0 {
			size = 1 << (minClassShift + class)
		}
		b = p.newRecord()
		b.mem = make([]byte, size)
	}
	b.pool = p
	b.n = n
	b.refs = 1
	b.class = int16(class)
	p.live++
	return b
}

func (p *Pool) newRecord() *Buf {
	if l := p.recFree; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.recFree = l[:len(l)-1]
		return b
	}
	return &Buf{}
}

// Alloc returns a raw pooled []byte of exactly n bytes (contents
// unspecified), for scratch that does not need refcounts: flash-store
// block copies, read-gather buffers, OOB records. Return it with Free.
func (p *Pool) Alloc(n int) []byte {
	p.stats.Gets++
	class := classFor(n)
	if class >= 0 {
		if l := p.rawFree[class]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			p.rawFree[class] = l[:len(l)-1]
			p.stats.Hits++
			p.rawLive++
			return s[:n]
		}
	}
	p.stats.Misses++
	p.rawLive++
	if class >= 0 {
		return make([]byte, 1<<(minClassShift+class))[:n]
	}
	return make([]byte, n)
}

// AllocZero is Alloc with the returned bytes zeroed.
func (p *Pool) AllocZero(n int) []byte {
	s := p.Alloc(n)
	clear(s)
	return s
}

// Free recycles a slab obtained from Alloc; nil-safe. Slabs recycle by
// capacity: an Alloc(26) slab has cap 64 and must go back to the class it
// can serve. An oversize slab (no class has its capacity) is left to the
// GC.
func (p *Pool) Free(s []byte) {
	if s == nil {
		return
	}
	p.rawLive--
	c := cap(s)
	if c >= 1<<minClassShift && c <= 1<<maxClassShift && c&(c-1) == 0 {
		class := classFor(c)
		p.rawFree[class] = append(p.rawFree[class], s[:c])
	}
}

// Retain adds a reference. Panics if the buffer has already been fully
// released — holding a stale pointer is a bug, not a recoverable state.
func (b *Buf) Retain() {
	if b.refs <= 0 {
		panic(fmt.Sprintf("buf: Retain on released buffer (refs=%d, len=%d): use-after-release", b.refs, b.n))
	}
	b.refs++
}

// Release drops one reference; the last release recycles the slab.
// Panics on double release.
func (b *Buf) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic(fmt.Sprintf("buf: Release on released buffer (refs=%d, len=%d): double free", b.refs, b.n))
	}
	p := b.pool
	p.live--
	if b.class < 0 {
		// Oversize: slab goes to the GC, record is recycled.
		b.mem = nil
		p.recFree = append(p.recFree, b)
		return
	}
	if p.poison {
		for i := range b.mem {
			b.mem[i] = poisonByte
		}
	}
	p.free[b.class] = append(p.free[b.class], b)
}

func (b *Buf) checkPoison() {
	for i, v := range b.mem {
		if v != poisonByte {
			panic(fmt.Sprintf("buf: poisoned slab byte %d is 0x%02x, want 0x%02x: write through a released buffer (use-after-release)", i, v, poisonByte))
		}
	}
}

// Bytes returns the data area. The slice stays valid until the final
// Release.
func (b *Buf) Bytes() []byte { return b.mem[:b.n] }

// Retain on a nil receiver is a no-op, so code holding an optional
// ownership pointer can fan out without nil checks.
func Retain(b *Buf) {
	if b != nil {
		b.Retain()
	}
}

// Release on a nil pointer is a no-op; see Retain.
func Release(b *Buf) {
	if b != nil {
		b.Release()
	}
}
