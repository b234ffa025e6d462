package core

// Hot-path recycling. Block scratch, OOB records, coalesced batch payloads
// and the destinations of device reads all draw from the array's buf.Pool
// (c.pool), which counts hits, misses (the pool_miss probe), and payload
// copies. The simulation is single-goroutine, so no locking anywhere.
//
// The write path's control state lives in six recycled records instead
// of per-chunk closures, each on a plain-slice free list below, the
// engine's but for the SMT entries', which follow the array's geometry:
//
//   - writeRec (write.go): one block-interface Write; its chunks report
//     to it, and it is put back after the caller's callback returns.
//   - chunkRec (write.go): one chunk from writeCommon or a GC migration to
//     its completion. It is the completion target of its own device ops,
//     the entry parked on stalled/allocWaiters/ipq, and its stripe's
//     parity waiter; put back after its parent's chunkDone returns.
//   - openStripe (core.go): a stripe's append-side state and its one
//     in-flight parity generation; put back when the final generation of
//     a sealed stripe has run its waiters, which is decided before they
//     run (one may seal and finish the stripe re-entrantly).
//   - smtEntry (core.go): put back when the stripe has left the SMT and its
//     last asynchronous holder (open stripe, in-place update, parked
//     retry) has let go.
//   - appendBatch (zones.go): one device command, staged through
//     completion; keeps its op and OOB slices across reuse.
//   - stageRound (zones.go): one zero-delay event flushing the zones
//     staged at an instant; put back when it has flushed them, keeping its
//     zone slice.
//
// The read path has one: readRec (read.go), a block-interface Read owning a
// vector of run slots, one per device command, each with its blocks' buffer
// indices and a completion callback bound once. It is put back before the
// caller's callback runs, so a Read issued from inside may take it; the
// block-by-block fallback when a member dies under a run, which can end the
// read midway, therefore loops over a copy of the slot's indices. That
// fallback, degraded blocks, GC's migration reads and the recovery scan keep
// their closures: no fault-free user read reaches them.
//
// Every record carries a live flag: putting one back twice, or completing
// through one that is already back, panics instead of corrupting whatever
// write the record was handed to next. liveRecs counts records out per
// kind, so a drained array can be checked for strays.
//
// Ownership discipline: a raw buffer handed to the device layer may be
// recycled in the write-done callback, because the ZNS model keeps none of
// it past that point. With StoreData it copies payload and OOB bytes into
// its own pooled scratch at submission (setData/setOOB) or before
// completion (storeDirect); without, it keeps no payload or OOB bytes at
// all. Refcounted payloads (schedOp.own) skip the StoreData copy: the
// device holds references instead — see zones.go.

// readBuf returns pool scratch for an n-block device read to gather into,
// to be Freed by whoever consumes the read; nil in performance mode, where
// the devices hold no payloads and a read moves none.
func (c *Core) readBuf(n int) []byte {
	if !c.StoresData() {
		return nil
	}
	return c.pool.Alloc(n * c.blockSize)
}

// copyBuf returns a pooled block-size buffer holding a copy of src,
// counted in the pool's copy stats.
func (c *Core) copyBuf(src []byte) []byte {
	b := c.pool.Alloc(c.blockSize)
	copy(b, src)
	c.pool.NoteCopy(len(src))
	return b
}

// getVec returns an n-element nil-filled [][]byte (parity accumulators,
// old-parity scratch).
func (c *Core) getVec(n int) [][]byte {
	if l := len(c.recs.vec); l > 0 {
		v := c.recs.vec[l-1]
		c.recs.vec = c.recs.vec[:l-1]
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
	c.recs.vec = append(c.recs.vec, v[:0])
}

// recs are an engine's record free lists (sim.Local): every array on one
// engine draws from them, so a fleet holds records for the engine's peak of
// work in flight rather than the sum of each array's. A get sets the
// record's array, whichever array put it back.
type recs struct {
	vec    [][][]byte
	write  []*writeRec
	chunk  []*chunkRec
	stripe []*openStripe
	batch  []*appendBatch
	read   []*readRec
	round  []*stageRound
}

// recCounts is the number of records an array has out of the free lists.
type recCounts struct{ write, chunk, stripe, smt, batch, read, round int }

func (c *Core) getWrite() *writeRec {
	c.liveRecs.write++
	var w *writeRec
	if n := len(c.recs.write); n > 0 {
		w = c.recs.write[n-1]
		c.recs.write = c.recs.write[:n-1]
	} else {
		w = &writeRec{}
	}
	w.c, w.live = c, true
	return w
}

func (c *Core) putWrite(w *writeRec) {
	if !w.live {
		panic("core: write record put twice")
	}
	*w = writeRec{c: c}
	c.liveRecs.write--
	c.recs.write = append(c.recs.write, w)
}

func (c *Core) getRead() *readRec {
	c.liveRecs.read++
	var rd *readRec
	if n := len(c.recs.read); n > 0 {
		rd = c.recs.read[n-1]
		c.recs.read = c.recs.read[:n-1]
	} else {
		rd = &readRec{}
	}
	rd.c, rd.live = c, true
	return rd
}

// putRead recycles a read record, keeping its run slots and its degraded
// list for their capacity.
func (c *Core) putRead(rd *readRec) {
	if !rd.live {
		panic("core: read record put twice")
	}
	*rd = readRec{c: c, runs: rd.runs, degraded: rd.degraded[:0]}
	c.liveRecs.read--
	c.recs.read = append(c.recs.read, rd)
}

func (c *Core) getChunk() *chunkRec {
	c.liveRecs.chunk++
	var ch *chunkRec
	if n := len(c.recs.chunk); n > 0 {
		ch = c.recs.chunk[n-1]
		c.recs.chunk = c.recs.chunk[:n-1]
	} else {
		ch = &chunkRec{}
	}
	ch.c, ch.live = c, true
	return ch
}

// putChunk recycles a chunk record, keeping only its read callbacks (bound
// once per record). The record is zeroed where it lies and the three kept
// words written back, not overwritten with a temporary built beside it.
func (c *Core) putChunk(ch *chunkRec) {
	if !ch.live {
		panic("core: chunk record put twice")
	}
	onOldData, onOldParity := ch.onOldData, ch.onOldParity
	*ch = chunkRec{}
	ch.c, ch.onOldData, ch.onOldParity = c, onOldData, onOldParity
	c.liveRecs.chunk--
	c.recs.chunk = append(c.recs.chunk, ch)
}

func (c *Core) getStripe() *openStripe {
	c.liveRecs.stripe++
	var st *openStripe
	if n := len(c.recs.stripe); n > 0 {
		st = c.recs.stripe[n-1]
		c.recs.stripe = c.recs.stripe[:n-1]
	} else {
		st = &openStripe{}
	}
	st.c, st.live = c, true
	return st
}

// putStripe retires an open-stripe record and drops its hold on the SMT
// entry, freeing any accumulators still attached (a stripe sealed short by
// GC with no parity generation in flight).
func (c *Core) putStripe(st *openStripe) {
	if !st.live {
		panic("core: stripe record put twice")
	}
	for _, acc := range st.accs {
		c.pool.Free(acc)
	}
	c.putVec(st.accs)
	se := st.se
	*st = openStripe{c: c}
	c.liveRecs.stripe--
	c.recs.stripe = append(c.recs.stripe, st)
	c.dropSE(se)
}

// getSE returns an empty SMT entry whose slab row has room for a full
// stripe, so filling it never allocates. The SMT grows by one entry per
// stripe until the array has been written once (after that, releases feed
// the free list), so fresh entries come smtSlabLen at a time.
func (c *Core) getSE() *smtEntry {
	c.liveRecs.smt++
	var se *smtEntry
	if n := len(c.smtFree); n > 0 {
		se = c.smtFree[n-1]
		c.smtFree = c.smtFree[:n-1]
	} else {
		if len(c.smtSlab) == 0 {
			c.smtSlab = c.newSMTSlab()
		}
		se = &c.smtSlab[0]
		c.smtSlab = c.smtSlab[1:]
	}
	se.live = true
	return se
}

// smtSlab holds smtSlabLen SMT entries and the rows of slots and blocks
// they view: three allocations, the entries with the slices' headers.
type smtSlab struct {
	slots []pa     // per row: m parity slots, then k chunk slots
	lbns  []uint32 // per row: k logical blocks + 1, 0 when stale
	m, k  int32
	ents  [smtSlabLen]smtEntry
}

// smtSlabLen is 62: an entry is 32 bytes, so the slab is 2 040 bytes, and
// as it holds pointers the allocator adds an 8-byte header, which fills
// the 2 KiB size class exactly; 63 would take the next one up, 2 304 bytes.
const smtSlabLen = 62

func (c *Core) newSMTSlab() []smtEntry {
	k, m := c.nData, c.cfg.Parity
	s := &smtSlab{
		slots: make([]pa, smtSlabLen*(m+k)),
		lbns:  make([]uint32, smtSlabLen*k),
		m:     int32(m),
		k:     int32(k),
	}
	for i := range s.ents {
		s.ents[i] = smtEntry{slab: s, row: uint8(i)}
	}
	return s.ents[:]
}

// dropSE releases one asynchronous hold on an SMT entry; the entry is
// recycled once it has also left the SMT.
func (c *Core) dropSE(se *smtEntry) {
	if !se.live || se.holds <= 0 {
		panic("core: SMT entry dropped without a hold")
	}
	se.holds--
	c.maybePutSE(se)
}

// retireSE takes an entry that has just left the SMT (or never entered
// it) out of service; it is recycled at once if nothing holds it.
func (c *Core) retireSE(se *smtEntry) {
	se.dead = true
	c.maybePutSE(se)
}

// maybePutSE recycles an entry that is out of the SMT and unheld.
func (c *Core) maybePutSE(se *smtEntry) {
	if !se.dead || se.holds > 0 {
		return
	}
	*se = smtEntry{slab: se.slab, row: se.row}
	c.liveRecs.smt--
	c.smtFree = append(c.smtFree, se)
}

func (c *Core) getBatch() *appendBatch {
	c.liveRecs.batch++
	var b *appendBatch
	if n := len(c.recs.batch); n > 0 {
		b = c.recs.batch[n-1]
		c.recs.batch = c.recs.batch[:n-1]
	} else {
		b = &appendBatch{}
		b.done = b.complete
	}
	b.live = true
	return b
}

// putBatch recycles a device-command record, clearing its op and OOB
// slices (kept for their capacity) so payload references do not linger.
func (c *Core) putBatch(b *appendBatch) {
	if !b.live {
		panic("core: batch record put twice")
	}
	clear(b.ops)
	clear(b.oob)
	ops, oob, done := b.ops[:0], b.oob[:0], b.done
	*b = appendBatch{}
	b.ops, b.oob, b.done = ops, oob, done
	c.liveRecs.batch--
	c.recs.batch = append(c.recs.batch, b)
}

func (c *Core) getRound() *stageRound {
	c.liveRecs.round++
	var r *stageRound
	if n := len(c.recs.round); n > 0 {
		r = c.recs.round[n-1]
		c.recs.round = c.recs.round[:n-1]
	} else {
		r = &stageRound{}
	}
	r.c, r.live = c, true
	return r
}

// putRound recycles a staging round, keeping its zone slice for its
// capacity.
func (c *Core) putRound(r *stageRound) {
	if !r.live {
		panic("core: staging round put twice")
	}
	clear(r.zones)
	*r = stageRound{zones: r.zones[:0]}
	c.liveRecs.round--
	c.recs.round = append(c.recs.round, r)
}
