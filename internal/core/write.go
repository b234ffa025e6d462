package core

import (
	"encoding/binary"
	"errors"
	"slices"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/erasure"
	"biza/internal/fifo"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// OOB record layout: kind(1) | lbn(8) | sn(8) | seq(8) | idx(1) = 26
// bytes, well inside the 64 B / 4 KiB quota (§4.1 uses 72 bits by omitting
// what this simulation cannot: the physical address is implicit on real
// flash, and the sequence number replaces the paper's implied write
// ordering). idx is the chunk's index within its stripe for data records
// (it selects the erasure-code coefficients on recovery) and the parity
// row for parity records.
const (
	oobKindData   = 1
	oobKindParity = 2
	oobLen        = 26
)

// encodeOOB fills a pooled record (recycled by the dispatch-done callbacks
// in zones.go once the device has copied it).
func (c *Core) encodeOOB(kind byte, lbn, sn int64, seq uint64, idx int) []byte {
	b := c.pool.Alloc(oobLen)
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], uint64(lbn))
	binary.LittleEndian.PutUint64(b[9:], uint64(sn))
	binary.LittleEndian.PutUint64(b[17:], seq)
	b[25] = byte(idx)
	return b
}

// oob is the member's OOB record for a block about to be written to it:
// encodeOOB's record where the member keeps records (StoreData), and nil
// where it would drop them, so such a member costs no record and its
// commands carry no OOB vector.
func (ds *devState) oob(kind byte, lbn, sn int64, seq uint64, idx int) []byte {
	if !ds.storeData {
		return nil
	}
	return ds.c.encodeOOB(kind, lbn, sn, seq, idx)
}

func decodeOOB(b []byte) (kind byte, lbn, sn int64, seq uint64, idx int, ok bool) {
	if len(b) < oobLen {
		return 0, 0, 0, 0, 0, false
	}
	kind = b[0]
	if kind != oobKindData && kind != oobKindParity {
		return 0, 0, 0, 0, 0, false
	}
	lbn = int64(binary.LittleEndian.Uint64(b[1:]))
	sn = int64(binary.LittleEndian.Uint64(b[9:]))
	seq = binary.LittleEndian.Uint64(b[17:])
	idx = int(b[25])
	return kind, lbn, sn, seq, idx, true
}

// Write implements blockdev.Device: the §4.1 write path. Each 4 KiB block
// is one chunk; parity is computed per dynamically formed stripe, with
// partial parity held and updated in place in the parity slot's ZRWA.
func (c *Core) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	c.writeCommon(lba, nblocks, data, nil, done)
}

// WriteBuf is Write for refcounted payloads drawn from Pool(): b.Bytes()
// must hold nblocks full blocks, and the call transfers exactly one
// reference. Every layer below takes references instead of copying, so
// the payload reaches the flash model's write buffer with zero copies.
// The caller must not mutate the buffer after submission — the device may
// read it until the last flash program retires, which is after the write
// acknowledgment.
func (c *Core) WriteBuf(lba int64, nblocks int, b *buf.Buf, done func(blockdev.WriteResult)) {
	c.writeCommon(lba, nblocks, b.Bytes(), b, done)
}

// chunkParent is told when a chunk write has completed: the Write the
// chunk belongs to, or the stripe dissolution migrating it.
type chunkParent interface {
	chunkDone(lbn int64, err error)
}

// completer is the completion target of a scheduled device write: the
// chunk record for its data op and its in-place updates, the open stripe
// for the rows of a parity generation.
type completer interface {
	ioDone(err error)
}

// writeRec is one block-interface Write in flight: its chunks report here
// and the last one acknowledges the caller.
type writeRec struct {
	c         *Core
	live      bool
	remaining int
	firstErr  error
	start     sim.Time
	span      obs.SpanID
	done      func(blockdev.WriteResult)
}

func (w *writeRec) chunkDone(_ int64, err error) {
	mustBeLive(w.live, "write record used after put")
	if err != nil && w.firstErr == nil {
		w.firstErr = err
	}
	w.remaining--
	if w.remaining > 0 {
		return
	}
	c := w.c
	now := c.eng.Now()
	c.tr.SpanEnd(w.span, int64(now), w.firstErr != nil)
	if w.done != nil {
		w.done(blockdev.WriteResult{Err: w.firstErr, Latency: now - w.start})
	}
	c.putWrite(w)
}

// chunkRec carries one chunk through the write flow. It is the completion
// target of the chunk's own device ops, the thing parked while the chunk
// waits (free-zone cliff, open-slot exhaustion, a busy stripe), and its
// stripe's parity waiter, so no step of the flow allocates a callback.
type chunkRec struct {
	c       *Core
	live    bool
	lbn     int64
	payload []byte
	own     *buf.Buf // one transferred reference pinning payload, or nil
	pooled  bool     // payload is pool scratch the chunk owns (a migration's read)
	class   Class
	tag     zns.WriteTag
	parent  chunkParent

	pending  int   // completions outstanding: data + parity
	firstErr error // first of them to fail
	// se is the stripe the chunk joined (append), is updating in place, or
	// is parked on (ipq).
	se         *smtEntry
	nextWaiter *chunkRec // next chunk waiting on the same parity generation

	// In-place update state (tryInPlace). zs is the data slot's zone as
	// resolved at admission; a device replacement must not re-route it.
	inplace   bool
	e         bmtEntry
	zs        *zoneState
	idx       int    // chunk index within the stripe: the parity coefficients
	seq       uint64 // OOB sequence of the update
	oldData   []byte
	oldParity [][]byte
	reads     int
	readErr   error
	// Read callbacks of the payload read-modify-write, bound once per
	// record and kept across reuse.
	onOldData   func(zns.ReadResult)
	onOldParity []func(zns.ReadResult)
}

// Event arguments for a chunk record parked and then rescheduled.
const (
	fireRewrite sim.Time = iota // from a stripe's ipq: retry writeChunk
	fireAppend                  // from allocWaiters: retry appendChunk
)

// Fire implements sim.Handler for a parked chunk whose turn has come.
func (ch *chunkRec) Fire(kind, _ sim.Time) {
	mustBeLive(ch.live, "chunk record used after put")
	c := ch.c
	if kind == fireAppend {
		c.appendChunk(ch)
		return
	}
	se := ch.se
	ch.se = nil
	c.writeChunk(ch)
	c.ipNext(se)
	c.dropSE(se)
}

// ioDone implements completer: one of the chunk's own device writes
// finished. A write whose member died underneath still counts — the
// content was folded into the stripe's parity host-side (append) or is
// covered by the surviving slots (in place), so the chunk remains
// reconstructable and the write is acknowledged degraded.
func (ch *chunkRec) ioDone(err error) {
	mustBeLive(ch.live, "chunk record used after put")
	if !ch.inplace {
		ch.se.pending--
	}
	if err != nil && storerr.Reconstructable(err) && ch.c.degradedOK() {
		ch.c.degradedWrites++
		err = nil
	}
	ch.finish(err)
}

// finish counts one completion (device write or parity generation) and,
// on the last, hands the chunk's result to its parent and recycles it.
func (ch *chunkRec) finish(err error) {
	if err != nil && ch.firstErr == nil {
		ch.firstErr = err
	}
	ch.pending--
	if ch.pending > 0 {
		return
	}
	c := ch.c
	if ch.inplace {
		if ch.payload != nil {
			c.updateDone(ch.se)
		}
		c.dropSE(ch.se)
	}
	ch.parent.chunkDone(ch.lbn, ch.firstErr)
	if ch.pooled {
		c.pool.Free(ch.payload)
	}
	c.putChunk(ch)
}

// writeCommon is the shared §4.1 write path. own, if non-nil, carries one
// transferred reference pinning data; each chunk takes a reference of its
// own before the original is dropped.
func (c *Core) writeCommon(lba int64, nblocks int, data []byte, own *buf.Buf, done func(blockdev.WriteResult)) {
	if !blockdev.CheckWrite(c.eng, lba, nblocks, c.Blocks(), done) {
		buf.Release(own)
		return
	}
	start := c.eng.Now()
	bs := c.chunkBytes()
	c.userBytes += uint64(nblocks) * uint64(bs)
	w := c.getWrite()
	w.remaining, w.start, w.done = nblocks, start, done
	w.span = c.tr.SpanBegin(int64(start), obs.LayerBIZA, obs.OpWrite, -1, -1, lba, int64(nblocks))
	for i := 0; i < nblocks; i++ {
		ch := c.getChunk()
		ch.lbn = lba + int64(i)
		if data != nil {
			ch.payload = data[int64(i)*bs : (int64(i)+1)*bs]
		}
		c.clock += uint64(bs)
		ch.class = c.classify(ch.lbn)
		ch.tag, ch.parent = zns.TagUserData, w
		buf.Retain(own) // one reference per chunk, consumed by writeChunk
		ch.own = own
		c.writeChunk(ch)
	}
	buf.Release(own) // drop the caller's transferred reference
}

// writeChunk stores one chunk. If the current copy still sits inside its
// zone's ZRWA window (and is not pinned by GC), it is updated in place —
// the paper's endurance fast path. Otherwise a new slot is allocated from
// the class's zone group and the chunk joins the class's open stripe.
// ch.own, if non-nil, is one transferred reference pinning the payload;
// every path through the write flow consumes it exactly once.
func (c *Core) writeChunk(ch *chunkRec) {
	if e := c.bmt.Get(ch.lbn); e.mapped() && !e.pinned && c.tryInPlace(ch, e) {
		return
	}
	c.appendChunk(ch)
}

// tryInPlace updates a chunk and its stripe's parity inside their ZRWA
// windows. Only chunks of sealed stripes qualify: an open stripe's parity
// slot is owned by the append flow's accumulator. Returns false when
// either slot has been committed to flash. In-place read-modify-write of
// a stripe's parity serializes per stripe (lost-delta and same-slot
// reorder protection).
func (c *Core) tryInPlace(ch *chunkRec, e bmtEntry) bool {
	at := e.loc()
	if c.failed[at.dev] {
		return false // degraded member: append a fresh copy elsewhere
	}
	ds := c.devs[at.dev]
	zs := ds.zones[at.zone]
	if zs == nil || zs.sealedF || int64(at.off) < zs.devWP(c.zrwaBlocks) || !zs.slotDone(int64(at.off)) {
		return false
	}
	se := c.smt.Get(int64(e.sn))
	if se == nil || se.state < stripeSealing || se.state > stripeUpdating {
		return false
	}
	// Every parity slot must still be in its window with its append done.
	parity := se.parity()
	for _, ppa := range parity {
		if ppa.dev < 0 || c.failed[ppa.dev] {
			return false
		}
		pzs := c.devs[ppa.dev].zones[ppa.zone]
		if pzs == nil || pzs.sealedF || int64(ppa.off) < pzs.devWP(c.zrwaBlocks) || !pzs.slotDone(int64(ppa.off)) {
			return false
		}
	}
	// The chunk's index within the stripe selects the parity coefficients.
	chunkIdx := slices.Index(se.chunks(), at)
	if chunkIdx < 0 {
		return false
	}
	if ch.payload != nil {
		if se.state == stripeUpdating {
			// The parked record keeps the chunk's reference and re-enters
			// writeChunk when the queue drains.
			ch.se = se
			c.park(se, ch)
			return true
		}
		c.setState(se, stripeUpdating)
	}
	c.inplaceHits++
	c.seq++
	m := len(parity)
	ch.inplace, ch.se, ch.e, ch.zs, ch.idx, ch.seq = true, se, e, zs, chunkIdx, c.seq
	ch.pending = 1 + m
	se.holds++
	// Pin every slot NOW: the payload path reads before writing, and the
	// window must not slide past any of these offsets in the meantime.
	zs.pin(int64(at.off))
	for _, ppa := range parity {
		c.devs[ppa.dev].zones[ppa.zone].pin(int64(ppa.off))
	}
	if ch.payload == nil {
		// Performance mode: traffic without content.
		ch.writeData()
		for r := 0; r < m; r++ {
			ch.writeParity(r, nil)
		}
		return true
	}
	// Parity deltas need the old chunk and the old parities — all buffered
	// reads, since every slot is inside a ZRWA window, gathered into pool
	// scratch that goes back once folded.
	if ch.onOldData == nil {
		ch.onOldData = func(r zns.ReadResult) { ch.oldRead(-1, r) }
	}
	// A record that served an array with fewer parity rows binds the rest.
	if have := len(ch.onOldParity); have < m {
		ch.onOldParity = append(ch.onOldParity, make([]func(zns.ReadResult), m-have)...)
		for r := have; r < m; r++ {
			ch.onOldParity[r] = func(res zns.ReadResult) { ch.oldRead(r, res) }
		}
	}
	ch.oldParity = c.getVec(m)
	ch.reads = 1 + m
	ch.oldData = c.readBuf(1)
	ds.q.ReadInto(int(at.zone), int64(at.off), 1, ch.oldData, false, ch.onOldData)
	for r, ppa := range parity {
		ch.oldParity[r] = c.readBuf(1)
		c.devs[ppa.dev].q.ReadInto(int(ppa.zone), int64(ppa.off), 1, ch.oldParity[r], false, ch.onOldParity[r])
	}
	return true
}

// writeData issues the in-place rewrite of the chunk's data slot.
func (ch *chunkRec) writeData() {
	ds := ch.zs.ds
	ds.submitChunk(ch.zs, &schedOp{
		off: int64(ch.e.off), inplace: true, reserved: true, data: ch.payload, own: ch.own,
		oob: ds.oob(oobKindData, ch.lbn, int64(ch.e.sn), ch.seq, ch.idx), tag: ch.tag,
		done: ch,
	})
}

// writeParity issues the in-place rewrite of parity row r.
func (ch *chunkRec) writeParity(r int, parityData []byte) {
	c := ch.c
	ppa := ch.se.parity()[r]
	pds := c.devs[ppa.dev]
	c.parityBytes += uint64(c.blockSize)
	pds.submitChunk(pds.zones[ppa.zone], &schedOp{
		off: int64(ppa.off), inplace: true, reserved: true, data: parityData,
		ownData: parityData != nil,
		oob:     pds.oob(oobKindParity, int64(r), int64(ch.e.sn), ch.seq, r), tag: zns.TagParity,
		done: ch,
	})
}

// oldRead collects one read of the payload read-modify-write: the old data
// chunk (r < 0) or old parity row r, gathered into ch.oldData and
// ch.oldParity[r]. The last one folds the deltas and issues the writes.
func (ch *chunkRec) oldRead(r int, res zns.ReadResult) {
	mustBeLive(ch.live, "chunk record used after put")
	c, se := ch.c, ch.se
	dev := int(ch.e.loc().dev)
	if r >= 0 {
		dev = int(se.parity()[r].dev)
	}
	if res.Err != nil {
		c.noteIOError(dev, res.Err)
		if ch.readErr == nil {
			ch.readErr = res.Err
		}
	}
	ch.reads--
	if ch.reads > 0 {
		return
	}
	m := len(se.parity())
	oldData, oldParity := ch.oldData, ch.oldParity
	ch.oldData, ch.oldParity = nil, nil
	if ch.readErr != nil {
		// The old content is unreadable (member death mid-update);
		// folding unknown deltas would corrupt the surviving parity.
		// Unwind the in-place attempt and re-home the chunk through
		// the append path instead.
		c.pool.Free(oldData)
		for r := 0; r < m; r++ {
			c.pool.Free(oldParity[r])
		}
		c.putVec(oldParity)
		c.unpin(ch.e.loc())
		for _, ppa := range se.parity() {
			c.unpin(ppa)
		}
		c.updateDone(se)
		ch.inplace, ch.se, ch.zs, ch.readErr = false, nil, nil, nil
		c.dropSE(se)
		c.appendChunk(ch)
		return
	}
	ch.writeData()
	// Fused single-pass kernels: delta = old ^ new in one XOR, then each
	// parity row reads old parity and writes new parity in one sweep
	// (DeltaRow) — no intermediate copy of either operand.
	delta := c.pool.Alloc(c.blockSize)
	if oldData != nil {
		erasure.XOR(delta, oldData, ch.payload)
		c.pool.Free(oldData)
	} else {
		copy(delta, ch.payload)
	}
	for r := 0; r < m; r++ {
		var np []byte
		if oldParity[r] != nil {
			np = c.pool.Alloc(c.blockSize)
			c.coder.DeltaRow(r, ch.idx, delta, oldParity[r], np)
			c.pool.Free(oldParity[r])
		} else {
			np = c.pool.AllocZero(c.blockSize)
			erasure.MulXor(c.coder.Coeff(r, ch.idx), delta, np)
		}
		c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize))
		ch.writeParity(r, np)
	}
	c.pool.Free(delta)
	c.putVec(oldParity)
}

// updateDone ends se's payload in-place update and lets its queue go on.
func (c *Core) updateDone(se *smtEntry) {
	next := stripeSealed
	if se.state == stripeDissolvingUpdate {
		next = stripeDissolving
	}
	c.setState(se, next)
	c.ipNext(se)
}

// ipNext drains a stripe's queued rewrites. Each popped entry either takes
// the in-place path again (its completion resumes the drain) or falls
// through to an append (which never pops), so the drain continues until an
// update is in flight or the queue is empty — queued writes can never
// strand behind a path change (slot flushed, stripe dissolving). The
// entry's own Fire calls ipNext again after its retry.
func (c *Core) ipNext(se *smtEntry) {
	if se.state.updating() || se.ipq == 0 {
		return
	}
	q := &c.ipqs[se.ipq-1]
	h := q.Pop()
	if q.Len() == 0 {
		c.ipqFree = append(c.ipqFree, se.ipq)
		se.ipq = 0
	}
	c.eng.AfterEvent(0, h, fireRewrite, 0)
}

// park queues h behind the stripe's in-place update in flight, holding the
// stripe until ipNext fires it. Only a stripe with something parked owns a
// queue; an emptied one goes back to the core for the next.
func (c *Core) park(se *smtEntry, h sim.Handler) {
	if se.ipq == 0 {
		if n := len(c.ipqFree); n > 0 {
			se.ipq = c.ipqFree[n-1]
			c.ipqFree = c.ipqFree[:n-1]
		} else {
			c.ipqs = append(c.ipqs, fifo.Queue[sim.Handler]{})
			se.ipq = int32(len(c.ipqs))
		}
	}
	se.holds++
	c.ipqs[se.ipq-1].Push(h)
}

// appendChunk allocates a fresh slot for the chunk, joins it to the open
// stripe of its class, and updates the partial parity in place. A chunk
// that cannot proceed parks its record (with the payload reference it
// carries) until the blocker clears.
func (c *Core) appendChunk(ch *chunkRec) {
	class := ch.class
	// Free-zone cliff: park user work while GC needs headroom; GC's own
	// migrations (classGC) bypass.
	if class != classGC {
		for _, ds := range c.devs {
			if len(ds.freeZones) <= c.stallFloor() && ds.pickVictim() >= 0 {
				ds.stalled.Push(ch)
				c.maybeStartGC(ds)
				return
			}
		}
	}
	st := c.open[class]
	if st == nil || st.count >= c.nData {
		ns, err := c.newStripe(class)
		if errors.Is(err, errStripeNumbers) && class != classGC {
			// Not transient: the write fails and the block keeps its copy.
			// A GC migration parks below instead, so its victim is never
			// reset under a chunk it could not move.
			buf.Release(ch.own)
			ch.own, ch.pending = nil, 1
			ch.finish(err)
			return
		}
		if err != nil {
			// Transient: open-zone slots exhausted while retired zones
			// drain. Park and retry when a slot frees.
			c.allocWaiters = append(c.allocWaiters, ch)
			return
		}
		st = ns
		c.open[class] = st
	}
	// Data device: skip the stripe's parity devices, rotating through the
	// remainder by chunk index so stripe members stay distinct.
	dev := c.stripeDataDevice(st, st.count)
	ds := c.devs[dev]
	zs, off, err := ds.alloc(class)
	if err != nil {
		c.allocWaiters = append(c.allocWaiters, ch)
		return
	}
	// Invalidate the previous copy; a GC pin outlives the remapping.
	lbn := ch.lbn
	old := c.bmt.Get(lbn)
	c.invalidate(lbn, old)

	sn, se := st.sn, st.se
	at := pa{dev: int16(dev), zone: uint16(zs.id), off: uint32(off)}
	se.addChunk(at, lbn)
	se.valid++
	se.pending++
	e := mapTo(at, sn)
	e.pinned = old.pinned
	c.bmt.Set(lbn, e)
	zs.setStripe(off, sn)
	zs.valid++
	c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostMapUpdate)

	c.seq++
	seq := c.seq
	ch.se = se
	ch.pending = 2 // the data write and the stripe's parity generation
	ds.submitChunk(zs, &schedOp{
		off: off, data: ch.payload, own: ch.own,
		oob: ds.oob(oobKindData, lbn, sn, seq, st.count), tag: ch.tag,
		done: ch,
	})

	// Partial parity: fold the chunk into every row's accumulator and
	// rewrite the parity slots in place (§4.2: partial parities always own
	// ZRWA). The first write of each slot is its append; later updates are
	// in-place and absorbed by the device buffer. A slot flushed out of
	// its window (stripe lingered) is relocated.
	if ch.payload != nil {
		if st.accs == nil {
			st.accs = c.getVec(c.cfg.Parity)
			for r := range st.accs {
				st.accs[r] = c.pool.AllocZero(c.blockSize)
			}
		}
		for r := range st.accs {
			erasure.MulXor(c.coder.Coeff(r, st.count), ch.payload, st.accs[r])
		}
		c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize)*int64(c.cfg.Parity))
	}
	st.count++
	if st.count >= c.nData {
		c.setState(se, stripeSealing)
		c.open[class] = nil
	}
	c.writeStripeParity(st, seq, ch)
}

// writeStripeParity schedules a rewrite of the stripe's parity slot with
// the current accumulator, and queues ch to hear how it went. Only one
// parity write per stripe is in flight: concurrent chunk appends coalesce
// onto the next write (same-slot delivery reordering would otherwise leave
// a stale accumulator final).
func (c *Core) writeStripeParity(st *openStripe, seq uint64, ch *chunkRec) {
	if st.waitTail == nil {
		st.waitHead = ch
	} else {
		st.waitTail.nextWaiter = ch
	}
	st.waitTail = ch
	if st.gen >= genBusy {
		st.gen = genDirty
		return
	}
	c.issueParity(st, seq)
}

// issueParity starts a parity generation: one write per row, completing
// through st.ioDone. A row whose relocation cannot allocate completes
// synchronously, inside the loop.
func (c *Core) issueParity(st *openStripe, seq uint64) {
	se := st.se
	wasWritten := st.gen != genUnwritten
	st.gen = genBusy
	parity := se.parity()
	st.remaining, st.firstErr = len(parity), nil
	// A sealed stripe takes no further appends, so this is the final parity
	// generation: move the accumulators into the dispatch instead of
	// copying them (ioDone's retirement sweep skips the nil slots).
	final := se.state.isSealed()
	if se.state == stripeSealing {
		c.setState(se, stripeSealed)
	}
	for r, ppa := range parity {
		pds := c.devs[ppa.dev]
		pzs := pds.zones[ppa.zone]
		var parityData []byte
		if st.accs != nil {
			if final {
				parityData, st.accs[r] = st.accs[r], nil
			} else {
				parityData = c.copyBuf(st.accs[r])
			}
		}
		c.parityBytes += uint64(c.blockSize)
		// The slot must still belong to this stripe: a device replacement
		// swaps in a fresh devState whose zones know nothing of slots
		// handed out before the swap, and an in-place write through such a
		// stale placement would corrupt the fresh zone's write pointer.
		off := int64(ppa.off)
		inWindow := pzs != nil && !pzs.sealedF && pzs.parityAt(off) == st.sn &&
			off >= pzs.devWP(c.zrwaBlocks)
		if inWindow {
			pds.submitChunk(pzs, &schedOp{
				off: off, inplace: wasWritten, data: parityData,
				ownData: parityData != nil,
				oob:     pds.oob(oobKindParity, int64(r), st.sn, seq, r), tag: zns.TagParity,
				done: st,
			})
			continue
		}
		// Relocate: free the stale slot and append the full partial parity
		// to a fresh slot on the same device (member distinctness holds).
		c.dropParity(ppa, st.sn)
		nzs, noff, err := pds.alloc(st.class)
		if err != nil {
			c.pool.Free(parityData)
			st.ioDone(err)
			continue
		}
		parity[r] = pa{dev: ppa.dev, zone: uint16(nzs.id), off: uint32(noff)}
		nzs.setParity(noff, st.sn)
		nzs.valid++
		pds.submitChunk(nzs, &schedOp{
			off: noff, data: parityData, ownData: parityData != nil,
			oob: pds.oob(oobKindParity, int64(r), st.sn, seq, r), tag: zns.TagParity,
			done: st,
		})
	}
}

// ioDone implements completer: one row of the stripe's parity generation
// finished. The last row either starts the next generation (appends
// arrived meanwhile) or reports to every waiting chunk; a sealed stripe's
// record retires after that.
func (st *openStripe) ioDone(err error) {
	mustBeLive(st.live, "stripe record used after put")
	c := st.c
	if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
		// A parity member died: this row is missing, but the data
		// chunks (and any surviving rows) keep the stripe within its
		// fault budget.
		c.degradedWrites++
		err = nil
	}
	if err != nil && st.firstErr == nil {
		st.firstErr = err
	}
	st.remaining--
	if st.remaining > 0 {
		return
	}
	if st.gen == genDirty {
		c.issueParity(st, c.seq)
		return
	}
	st.gen = genIdle
	// A sealed stripe takes no more appends, and the last parity copy
	// is on its way to the device — the accumulators retire here, and the
	// record once the waiters have heard. (An unsealed stripe may be
	// appended to, and even sealed and finished, from inside a waiter's
	// callback, so nothing below touches st unless it retires here.)
	retire := st.se.state.isSealed()
	if retire && st.accs != nil {
		for r := range st.accs {
			c.pool.Free(st.accs[r])
		}
		c.putVec(st.accs)
		st.accs = nil
	}
	err = st.firstErr
	w := st.waitHead
	st.waitHead, st.waitTail = nil, nil
	for w != nil {
		next := w.nextWaiter
		w.nextWaiter = nil
		w.finish(err)
		w = next
	}
	if retire {
		c.putStripe(st)
	}
}

// stripeDataDevice maps a chunk index to a member: the ones after the run
// of consecutive members newStripe gave the stripe's parity rows.
func (c *Core) stripeDataDevice(st *openStripe, idx int) int {
	parity := st.se.parity()
	return (int(parity[0].dev) + len(parity) + idx) % len(c.devs)
}

// newStripe opens a stripe for a class: rotates the parity devices and
// allocates one parity slot from each of their class groups.
func (c *Core) newStripe(class Class) (*openStripe, error) {
	sn := c.nextSN
	if sn > maxSN {
		return nil, errStripeNumbers
	}
	base := c.parityRot % len(c.devs)
	c.parityRot++
	se := c.getSE()
	parity := se.parity()
	for r := range parity {
		pdev := (base + r) % len(c.devs)
		pds := c.devs[pdev]
		pzs, poff, err := pds.alloc(class)
		if err != nil {
			// Roll back the rows' claims; their slots stay taken.
			for _, q := range parity[:r] {
				c.dropParity(q, sn)
			}
			c.dropSE(se)
			return nil, err
		}
		parity[r] = pa{dev: int16(pdev), zone: uint16(pzs.id), off: uint32(poff)}
		pzs.setParity(poff, sn)
		pzs.valid++
		c.setState(se, stripeClaiming)
	}
	c.nextSN++
	st := c.getStripe()
	st.sn, st.se, st.class = sn, se, class
	c.setState(se, stripeOpen)
	se.holds++ // the open stripe's
	c.smt.Set(sn, se)
	return st, nil
}

// invalidate drops the copy of a logical block that e, its BMT entry, maps:
// clears its stripe membership and counts it out of its zone; fully dead
// sealed stripes release their parity slots and vanish. The caller
// rewrites the BMT slot.
func (c *Core) invalidate(lbn int64, e bmtEntry) {
	if !e.mapped() {
		return
	}
	sn := int64(e.sn)
	se := c.smt.Get(sn)
	if se == nil {
		return
	}
	at := e.loc()
	lbns := se.lbns()
	for i, p := range se.chunks() {
		if p == at && lbns[i] == uint32(lbn+1) {
			// Keep the slot address: its content still feeds the stripe's
			// parity for reconstruction; only liveness drops. The zone
			// counted the chunk only if its slot is this stripe's (a
			// replaced member's zones know nothing of older slots).
			lbns[i] = 0
			se.valid--
			if zs := c.devs[at.dev].zones[at.zone]; zs != nil && zs.stripeAt(int64(at.off)) == sn {
				zs.valid--
			}
			break
		}
	}
	if se.valid == 0 && se.state.isSealed() && se.pending == 0 {
		c.releaseStripe(sn, se)
	}
}

// releaseStripe frees a dead stripe's parity slots, clears its slots'
// stripe ownership, and forgets it.
func (c *Core) releaseStripe(sn int64, se *smtEntry) {
	for _, p := range se.parity() {
		if p.dev >= 0 {
			c.dropParity(p, sn)
		}
	}
	for _, p := range se.chunks() {
		if p.dev < 0 {
			continue
		}
		if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.stripeAt(int64(p.off)) == sn {
			zs.setStripe(int64(p.off), -1)
		}
	}
	c.smt.Delete(sn)
	c.dropSE(se)
}

// dropParity gives up stripe sn's claim on parity slot p, where p's zone holds it.
func (c *Core) dropParity(p pa, sn int64) {
	if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.parityAt(int64(p.off)) == sn {
		zs.setParity(int64(p.off), -1)
		zs.valid--
	}
}

// Trim implements blockdev.Device.
func (c *Core) Trim(lba int64, nblocks int) {
	for lbn := lba; lbn < lba+int64(nblocks); lbn++ {
		e := c.bmt.Get(lbn)
		c.invalidate(lbn, e)
		c.putBMT(lbn, bmtEntry{pinned: e.pinned}) // a GC pin outlives the mapping
	}
}
