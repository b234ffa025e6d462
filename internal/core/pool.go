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
//   - smtEntry (core.go): put back when the SMT and every asynchronous
//     holder (open stripe, in-place update, parked retry) have let go,
//     its state byte having walked core.go's stripeMoves.
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
// read midway, therefore loops over a copy of the slot's indices.
//
// The collector has two (gc.go): dissolve, one stripe's dissolution, put
// back just before its done callback runs, and migrationRead, one live
// chunk's read off its member, its completion bound once; each device's
// gcRun, in its devState, collects its victims on callbacks bound once.
// Closures stay only where no fault-free Read or collection goes: the read
// fallback above, degraded blocks and migrations (reconstructChunk), the
// rebuild's per-stripe callback and the recovery scan.
//
// Every record carries a live flag (an SMT entry, its hold count): putting
// one back twice, or completing through one that is already back, panics
// instead of corrupting whatever write the record was handed to next.
// liveRecs counts records out per kind, so a drained array can be checked
// for strays.
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

// take pops a record off a free list, or makes one (fresh), and counts it
// out of the lists in *out; give pushes one back, reset.
func take[T any](free *[]*T, out *int) (r *T, fresh bool) {
	*out++
	if n := len(*free); n > 0 {
		r = (*free)[n-1]
		*free = (*free)[:n-1]
		return r, false
	}
	return new(T), true
}

func give[T any](free *[]*T, r *T, out *int) {
	*out--
	*free = append(*free, r)
}

// mustBeLive panics unless a record is out of its free list: one put back
// twice would go to two users at once, one used after its put to another.
func mustBeLive(live bool, misuse string) {
	if !live {
		panic("core: " + misuse)
	}
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
	dis    []*dissolve
	mig    []*migrationRead
}

// recCounts is the number of records an array has out of the free lists.
type recCounts struct{ write, chunk, stripe, smt, batch, read, round, dis, mig int }

func (c *Core) getWrite() *writeRec {
	w, _ := take(&c.recs.write, &c.liveRecs.write)
	w.c, w.live = c, true
	return w
}

func (c *Core) putWrite(w *writeRec) {
	mustBeLive(w.live, "write record put twice")
	*w = writeRec{c: c}
	give(&c.recs.write, w, &c.liveRecs.write)
}

func (c *Core) getRead() *readRec {
	rd, _ := take(&c.recs.read, &c.liveRecs.read)
	rd.c, rd.live = c, true
	return rd
}

// putRead recycles a read record, keeping its run slots and its degraded
// list for their capacity.
func (c *Core) putRead(rd *readRec) {
	mustBeLive(rd.live, "read record put twice")
	*rd = readRec{c: c, runs: rd.runs, degraded: rd.degraded[:0]}
	give(&c.recs.read, rd, &c.liveRecs.read)
}

func (c *Core) getChunk() *chunkRec {
	ch, _ := take(&c.recs.chunk, &c.liveRecs.chunk)
	ch.c, ch.live = c, true
	return ch
}

// putChunk recycles a chunk record, keeping only its read callbacks (bound
// once per record). The record is zeroed where it lies and the three kept
// words written back, not overwritten with a temporary built beside it.
func (c *Core) putChunk(ch *chunkRec) {
	mustBeLive(ch.live, "chunk record put twice")
	onOldData, onOldParity := ch.onOldData, ch.onOldParity
	*ch = chunkRec{}
	ch.c, ch.onOldData, ch.onOldParity = c, onOldData, onOldParity
	give(&c.recs.chunk, ch, &c.liveRecs.chunk)
}

func (c *Core) getStripe() *openStripe {
	st, _ := take(&c.recs.stripe, &c.liveRecs.stripe)
	st.c, st.live = c, true
	return st
}

// putStripe retires an open-stripe record and drops its hold on the SMT
// entry, freeing any accumulators still attached (a stripe sealed short by
// GC with no parity generation in flight).
func (c *Core) putStripe(st *openStripe) {
	mustBeLive(st.live, "stripe record put twice")
	for _, acc := range st.accs {
		c.pool.Free(acc)
	}
	c.putVec(st.accs)
	se := st.se
	*st = openStripe{c: c}
	give(&c.recs.stripe, st, &c.liveRecs.stripe)
	c.dropSE(se)
}

// getSE returns an empty SMT entry held by its taker, its slab row room for
// a full stripe, so filling it never allocates. The SMT grows by one entry
// per stripe until the array has been written once (then releases feed the
// free list), so fresh entries come smtSlabLen at a time.
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
	se.holds = 1
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

// smtSlabLen is 82: an entry is 24 bytes, so the slab is 2 024 bytes, and
// as it holds pointers the allocator adds an 8-byte header, which fits the
// 2 KiB size class; 83 would take the next one up, 2 304 bytes.
const smtSlabLen = 82

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

// dropSE releases one hold on an SMT entry, the SMT's (its taker's until
// the stripe enters it) or an asynchronous user's; the last recycles it.
func (c *Core) dropSE(se *smtEntry) {
	if se.holds <= 0 {
		panic("core: SMT entry dropped without a hold")
	}
	if se.holds--; se.holds > 0 {
		return
	}
	c.setState(se, stripeFree)
	*se = smtEntry{slab: se.slab, row: se.row}
	c.liveRecs.smt--
	c.smtFree = append(c.smtFree, se)
}

func (c *Core) getBatch() *appendBatch {
	b, fresh := take(&c.recs.batch, &c.liveRecs.batch)
	if fresh {
		b.done = b.complete
	}
	b.live = true
	return b
}

// putBatch recycles a device-command record, clearing its op and OOB
// slices (kept for their capacity) so payload references do not linger.
func (c *Core) putBatch(b *appendBatch) {
	mustBeLive(b.live, "batch record put twice")
	clear(b.ops)
	clear(b.oob)
	ops, oob, done := b.ops[:0], b.oob[:0], b.done
	*b = appendBatch{}
	b.ops, b.oob, b.done = ops, oob, done
	give(&c.recs.batch, b, &c.liveRecs.batch)
}

func (c *Core) getRound() *stageRound {
	r, _ := take(&c.recs.round, &c.liveRecs.round)
	r.c, r.live = c, true
	return r
}

// putRound recycles a staging round, keeping its zone slice for its
// capacity.
func (c *Core) putRound(r *stageRound) {
	mustBeLive(r.live, "staging round put twice")
	clear(r.zones)
	*r = stageRound{zones: r.zones[:0]}
	give(&c.recs.round, r, &c.liveRecs.round)
}

func (c *Core) getDissolve(sn int64, done func()) *dissolve {
	d, _ := take(&c.recs.dis, &c.liveRecs.dis)
	d.c, d.live, d.sn, d.done = c, true, sn, done
	return d
}

// putDissolve recycles a finished dissolution, then calls its done
// callback, which may take the record again.
func (c *Core) putDissolve(d *dissolve) {
	mustBeLive(d.live, "dissolution put twice")
	done := d.done
	*d = dissolve{}
	give(&c.recs.dis, d, &c.liveRecs.dis)
	done()
}

func (c *Core) getMigrationRead(d *dissolve, lbn int64, p pa, dst []byte) *migrationRead {
	m, fresh := take(&c.recs.mig, &c.liveRecs.mig)
	if fresh {
		m.onDone = m.complete
	}
	m.d, m.live, m.lbn, m.p, m.dst = d, true, lbn, p, dst
	return m
}

// putMigrationRead recycles a migration read, keeping its callback.
func (c *Core) putMigrationRead(m *migrationRead) {
	mustBeLive(m.live, "migration read put twice")
	*m = migrationRead{onDone: m.onDone}
	give(&c.recs.mig, m, &c.liveRecs.mig)
}
