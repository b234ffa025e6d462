// Package flash holds what the simulated SSDs have programmed when they
// retain payloads: the media behind one zone of the ZNS model or one erase
// block of the conventional FTL. Both models keep their bytes in the same
// recycled extents, so an erase hands them to the next block to fill.
package flash

// ExtentBlocks is the store's allocation unit. A zone or erase block being
// filled holds at most one partly filled extent, so the unit bounds what a
// store keeps beyond the bytes programmed: at 64 4 KiB blocks that is under
// 256 KiB per open zone, and a store's extent vector is one pointer per
// 256 KiB. (256 blocks measured +4 % live heap on the payload benchmark.)
const ExtentBlocks = 64

// extent is the media behind ExtentBlocks consecutive blocks of one store:
// a data slab, a record slab of the pool's record size per block, which
// blocks hold data, and how long each block's record is (0 = none). Slab
// bytes outside those marks are stale and never read.
type extent struct {
	data    []byte
	rec     []byte
	hasData uint64
	recLen  [ExtentBlocks]uint16
}

// Pool is one device's supply of extents: the geometry they are cut to and
// the free list its stores share. A nil *Pool is a device that keeps no
// payloads: its stores hold nothing.
type Pool struct {
	blockSize  int
	recordSize int
	free       []*extent
	inUse      int
}

// NewPool returns a pool of extents of ExtentBlocks blocks of blockSize
// bytes, each with a record of up to recordSize bytes.
func NewPool(blockSize, recordSize int) *Pool {
	return &Pool{blockSize: blockSize, recordSize: recordSize}
}

// InUse reports how many extents the pool's stores hold.
func (p *Pool) InUse() int { return p.inUse }

// Store returns an empty store drawing on p.
func (p *Pool) Store() Store { return Store{pool: p} }

// get takes an extent off the free list, or allocates one: both slabs in
// one allocation.
func (p *Pool) get() *extent {
	p.inUse++
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		x.hasData, x.recLen = 0, [ExtentBlocks]uint16{}
		return x
	}
	nd := ExtentBlocks * p.blockSize
	mem := make([]byte, nd+ExtentBlocks*p.recordSize)
	return &extent{data: mem[:nd:nd], rec: mem[nd:]}
}

// Store is the media behind one zone or erase block: extent i holds blocks
// [i*ExtentBlocks, (i+1)*ExtentBlocks), nil until one of them is programmed.
type Store struct {
	pool *Pool
	ext  []*extent
}

// Put programs block b: one copy per part into the block's slot, the
// record cut to the pool's record size. A nil part leaves what the slot
// holds.
func (s *Store) Put(b int64, data, rec []byte) {
	p := s.pool
	if p == nil || data == nil && len(rec) == 0 {
		return
	}
	i, k := int(b/ExtentBlocks), int(b%ExtentBlocks)
	for i >= len(s.ext) {
		s.ext = append(s.ext, nil)
	}
	x := s.ext[i]
	if x == nil {
		x = p.get()
		s.ext[i] = x
	}
	if data != nil {
		copy(x.data[k*p.blockSize:(k+1)*p.blockSize], data)
		x.hasData |= 1 << k
	}
	if len(rec) > 0 {
		x.recLen[k] = uint16(copy(x.rec[k*p.recordSize:(k+1)*p.recordSize], rec))
	}
}

// Get returns what block b holds, as views into its extent: nil for a part
// never programmed since the last Erase.
func (s *Store) Get(b int64) (data, rec []byte) {
	i, k := int(b/ExtentBlocks), int(b%ExtentBlocks)
	if i >= len(s.ext) || s.ext[i] == nil {
		return nil, nil
	}
	x, p := s.ext[i], s.pool
	if x.hasData&(1<<k) != 0 {
		data = x.data[k*p.blockSize : (k+1)*p.blockSize]
	}
	if n := int(x.recLen[k]); n > 0 {
		rec = x.rec[k*p.recordSize:][:n]
	}
	return data, rec
}

// Erase empties the store, handing its extents back to the pool. The store
// keeps its extent vector for the refill.
func (s *Store) Erase() {
	for i, x := range s.ext {
		if x != nil {
			s.pool.free = append(s.pool.free, x)
			s.pool.inUse--
			s.ext[i] = nil
		}
	}
	s.ext = s.ext[:0]
}
