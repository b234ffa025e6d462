package core

// Hot-path recycling. Block scratch, OOB records, and coalesced batch
// payloads all draw from the array's buf.Pool (c.pool), which counts hits,
// misses (the pool_miss probe), and payload copies; buffers it never
// handed out — device read results, which the ZNS model allocates fresh —
// re-enter it through Donate so the outstanding-slab count stays
// balanced. Vectors and records keep small free lists below. The
// simulation is single-goroutine, so no locking anywhere.
//
// Ownership discipline: a raw buffer handed to the device layer may be
// recycled in the write-done callback, because the ZNS model copies
// payload and OOB bytes into its own pooled scratch at submission
// (setData/setOOB) or before completion (storeDirect). Refcounted
// payloads (schedOp.own) skip that copy entirely: the device holds
// references instead — see zones.go.

// copyBuf returns a pooled block-size buffer holding a copy of src,
// counted in the pool's copy stats.
func (c *Core) copyBuf(src []byte) []byte {
	b := c.pool.Alloc(c.blockSize)
	copy(b, src)
	c.pool.NoteCopy(len(src))
	return b
}

// getVec returns an n-element nil-filled [][]byte (per-batch OOB vectors,
// parity accumulators, old-parity scratch).
func (c *Core) getVec(n int) [][]byte {
	if l := len(c.vecFree); l > 0 {
		v := c.vecFree[l-1]
		c.vecFree = c.vecFree[:l-1]
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([][]byte, n)
}

// putVec recycles a [][]byte vector, dropping its element references so
// pooled vectors do not pin block buffers; nil-safe.
func (c *Core) putVec(v [][]byte) {
	if v == nil {
		return
	}
	for i := range v {
		v[i] = nil
	}
	c.vecFree = append(c.vecFree, v[:0])
}

// getOps returns an empty schedOp slice with pooled capacity.
func (c *Core) getOps() []schedOp {
	if n := len(c.opsFree); n > 0 {
		s := c.opsFree[n-1]
		c.opsFree = c.opsFree[:n-1]
		return s
	}
	return nil
}

// putOps recycles a batch's op slice, clearing records so closures and
// payload references do not linger.
func (c *Core) putOps(s []schedOp) {
	for i := range s {
		s[i] = schedOp{}
	}
	c.opsFree = append(c.opsFree, s[:0])
}

// getAB returns a pooled appendBatch record.
func (c *Core) getAB() *appendBatch {
	if n := len(c.abFree); n > 0 {
		b := c.abFree[n-1]
		c.abFree = c.abFree[:n-1]
		return b
	}
	return &appendBatch{}
}

// putAB recycles an appendBatch record (the ops slice is recycled
// separately after dispatch completes); nil-safe.
func (c *Core) putAB(b *appendBatch) {
	if b == nil {
		return
	}
	b.ops = nil
	c.abFree = append(c.abFree, b)
}
