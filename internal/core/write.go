package core

import (
	"encoding/binary"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/erasure"
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

// writeCommon is the shared §4.1 write path. own, if non-nil, carries one
// transferred reference pinning data; each chunk takes a reference of its
// own before the original is dropped.
func (c *Core) writeCommon(lba int64, nblocks int, data []byte, own *buf.Buf, done func(blockdev.WriteResult)) {
	start := c.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > c.Blocks() {
		buf.Release(own)
		if done != nil {
			c.eng.After(sim.Microsecond, func() {
				done(blockdev.WriteResult{Err: blockdev.ErrOutOfRange, Latency: c.eng.Now() - start})
			})
		}
		return
	}
	bs := c.chunkBytes()
	c.userBytes += uint64(nblocks) * uint64(bs)
	var span obs.SpanID
	if c.tr != nil {
		span = c.tr.SpanBegin(int64(start), obs.LayerBIZA, obs.OpWrite, -1, -1, lba, int64(nblocks))
		innerDone := done
		done = func(r blockdev.WriteResult) {
			c.tr.SpanEnd(span, int64(c.eng.Now()), r.Err != nil)
			if innerDone != nil {
				innerDone(r)
			}
		}
	}
	remaining := nblocks
	var firstErr error
	for i := 0; i < nblocks; i++ {
		lbn := lba + int64(i)
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : (int64(i)+1)*bs]
		}
		c.clock += uint64(bs)
		class := c.classify(lbn)
		buf.Retain(own) // one reference per chunk, consumed by writeChunk
		c.writeChunk(lbn, payload, own, class, zns.TagUserData, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(blockdev.WriteResult{Err: firstErr, Latency: c.eng.Now() - start})
			}
		})
	}
	buf.Release(own) // drop the caller's transferred reference
}

// writeChunk stores one chunk. If the current copy still sits inside its
// zone's ZRWA window (and is not pinned by GC), it is updated in place —
// the paper's endurance fast path. Otherwise a new slot is allocated from
// the class's zone group and the chunk joins the class's open stripe.
// own, if non-nil, is one transferred reference pinning payload; every
// path through the write flow consumes it exactly once.
func (c *Core) writeChunk(lbn int64, payload []byte, own *buf.Buf, class Class, tag zns.WriteTag, done func(error)) {
	if e, ok := c.bmt[lbn]; ok && !c.gcPinned[lbn] {
		if c.tryInPlace(lbn, e, payload, own, class, tag, done) {
			return
		}
	}
	c.appendChunk(lbn, payload, own, class, tag, done)
}

// tryInPlace updates a chunk and its stripe's parity inside their ZRWA
// windows. Only chunks of sealed stripes qualify: an open stripe's parity
// slot is owned by the append flow's accumulator. Returns false when
// either slot has been committed to flash. In-place read-modify-write of
// a stripe's parity serializes per stripe (lost-delta and same-slot
// reorder protection).
func (c *Core) tryInPlace(lbn int64, e bmtEntry, payload []byte, own *buf.Buf, class Class, tag zns.WriteTag, done func(error)) bool {
	if c.failed[e.pa.dev] {
		return false // degraded member: append a fresh copy elsewhere
	}
	ds := c.devs[e.pa.dev]
	zs := ds.zones[e.pa.zone]
	if zs == nil || zs.sealedF || e.pa.off < zs.devWP(c.zrwaBlocks) || !zs.slotDone(e.pa.off) {
		return false
	}
	se := c.smt[e.sn]
	if se == nil || !se.sealed || se.dissolving {
		return false
	}
	// Every parity slot must still be in its window with its append done.
	for _, ppa := range se.parity {
		if ppa.dev < 0 || c.failed[ppa.dev] {
			return false
		}
		pzs := c.devs[ppa.dev].zones[ppa.zone]
		if pzs == nil || pzs.sealedF || ppa.off < pzs.devWP(c.zrwaBlocks) || !pzs.slotDone(ppa.off) {
			return false
		}
	}
	// The chunk's index within the stripe selects the parity coefficients.
	chunkIdx := -1
	for i, p := range se.chunks {
		if p == e.pa {
			chunkIdx = i
			break
		}
	}
	if chunkIdx < 0 {
		return false
	}
	if payload != nil {
		if se.ipBusy {
			// The parked closure keeps the chunk's reference and re-transfers
			// it when the queue drains.
			se.ipq = append(se.ipq, func() { c.writeChunk(lbn, payload, own, class, tag, done) })
			return true
		}
		se.ipBusy = true
	}
	c.inplaceHits++
	c.seq++
	seq := c.seq
	m := len(se.parity)
	pending := 1 + m
	// Pin every slot NOW: the payload path reads before writing, and the
	// window must not slide past any of these offsets in the meantime.
	zs.ipOffsets[e.pa.off]++
	for _, ppa := range se.parity {
		c.devs[ppa.dev].zones[ppa.zone].ipOffsets[ppa.off]++
	}
	var firstErr error
	finish := func(err error) {
		if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
			// The slot's member died mid-update; the new content is still
			// covered by the surviving slots, so the write completes
			// degraded rather than failing.
			c.degradedWrites++
			err = nil
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending > 0 {
			return
		}
		if payload != nil {
			se.ipBusy = false
			c.ipNext(se)
		}
		if done != nil {
			done(firstErr)
		}
	}
	writeParity := func(r int, parityData []byte) {
		ppa := se.parity[r]
		pds := c.devs[ppa.dev]
		pzs := pds.zones[ppa.zone]
		c.parityBytes += uint64(c.blockSize)
		pds.submitChunk(pzs, schedOp{
			off: ppa.off, inplace: true, reserved: true, data: parityData,
			ownData: parityData != nil,
			oob:     c.encodeOOB(oobKindParity, int64(r), e.sn, seq, r), tag: zns.TagParity,
			done: func(w zns.WriteResult) { finish(w.Err) },
		})
	}
	writeData := func() {
		ds.submitChunk(zs, schedOp{
			off: e.pa.off, inplace: true, reserved: true, data: payload, own: own,
			oob: c.encodeOOB(oobKindData, lbn, e.sn, seq, chunkIdx), tag: tag,
			done: func(r zns.WriteResult) { finish(r.Err) },
		})
	}
	if payload == nil {
		// Performance mode: traffic without content.
		writeData()
		for r := 0; r < m; r++ {
			writeParity(r, nil)
		}
		return true
	}
	// Parity deltas need the old chunk and the old parities — all buffered
	// reads, since every slot is inside a ZRWA window. Scratch comes from
	// the unified pool; the read results (fresh heap copies from the
	// device model) are donated into it once folded.
	var oldData []byte
	var readErr error
	oldParity := c.getVec(m)
	reads := 1 + m
	afterReads := func() {
		reads--
		if reads > 0 {
			return
		}
		if readErr != nil {
			// The old content is unreadable (member death mid-update);
			// folding unknown deltas would corrupt the surviving parity.
			// Unwind the in-place attempt and re-home the chunk through
			// the append path instead.
			c.pool.Donate(oldData)
			for r := 0; r < m; r++ {
				c.pool.Donate(oldParity[r])
			}
			c.putVec(oldParity)
			c.unpin(e.pa)
			for _, ppa := range se.parity {
				c.unpin(ppa)
			}
			se.ipBusy = false
			c.ipNext(se)
			c.appendChunk(lbn, payload, own, class, tag, done)
			return
		}
		writeData()
		// Fused single-pass kernels: delta = old ^ new in one XOR, then each
		// parity row reads old parity and writes new parity in one sweep
		// (DeltaRow) — no intermediate copy of either operand.
		delta := c.pool.Alloc(c.blockSize)
		if oldData != nil {
			erasure.XOR(delta, oldData, payload)
			c.pool.Donate(oldData)
		} else {
			copy(delta, payload)
		}
		for r := 0; r < m; r++ {
			var np []byte
			if oldParity[r] != nil {
				np = c.pool.Alloc(c.blockSize)
				c.coder.DeltaRow(r, chunkIdx, delta, oldParity[r], np)
				c.pool.Donate(oldParity[r])
			} else {
				np = c.pool.AllocZero(c.blockSize)
				erasure.MulXor(c.coder.Coeff(r, chunkIdx), delta, np)
			}
			c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize))
			writeParity(r, np)
		}
		c.pool.Free(delta)
		c.putVec(oldParity)
	}
	ds.q.Read(e.pa.zone, e.pa.off, 1, func(r zns.ReadResult) {
		if r.Err != nil {
			c.noteIOError(e.pa.dev, r.Err)
			if readErr == nil {
				readErr = r.Err
			}
		}
		oldData = r.Data
		afterReads()
	})
	for r := 0; r < m; r++ {
		r := r
		ppa := se.parity[r]
		c.devs[ppa.dev].q.Read(ppa.zone, ppa.off, 1, func(res zns.ReadResult) {
			if res.Err != nil {
				c.noteIOError(ppa.dev, res.Err)
				if readErr == nil {
					readErr = res.Err
				}
			}
			oldParity[r] = res.Data
			afterReads()
		})
	}
	return true
}

// ipNext drains a stripe's queued rewrites. Each popped entry either takes
// the in-place path again (sets ipBusy; its completion resumes the drain)
// or falls through to an append (which never pops), so the drain continues
// until the stripe is busy or the queue is empty — queued writes can never
// strand behind a path change (slot flushed, stripe dissolving).
func (c *Core) ipNext(se *smtEntry) {
	if se.ipBusy || len(se.ipq) == 0 {
		return
	}
	next := se.ipq[0]
	se.ipq = se.ipq[1:]
	c.eng.After(0, func() {
		next()
		c.ipNext(se)
	})
}

// appendChunk allocates a fresh slot for the chunk, joins it to the open
// stripe of its class, and updates the partial parity in place. own, if
// non-nil, is one transferred reference pinning payload (parked closures
// carry it along until the chunk dispatches).
func (c *Core) appendChunk(lbn int64, payload []byte, own *buf.Buf, class Class, tag zns.WriteTag, done func(error)) {
	// Free-zone cliff: park user work while GC needs headroom; GC's own
	// migrations (classGC) bypass.
	if class != classGC {
		for _, ds := range c.devs {
			if len(ds.freeZones) <= c.stallFloor() && ds.pickVictim() >= 0 {
				ds.stalled = append(ds.stalled, func() {
					c.appendChunk(lbn, payload, own, class, tag, done)
				})
				c.maybeStartGC(ds)
				return
			}
		}
	}
	st := c.open[class]
	if st == nil || st.count >= c.nData {
		ns, err := c.newStripe(class)
		if err != nil {
			// Transient: open-zone slots exhausted while retired zones
			// drain. Park and retry when a slot frees.
			c.allocWaiters = append(c.allocWaiters, func() {
				c.appendChunk(lbn, payload, own, class, tag, done)
			})
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
		c.allocWaiters = append(c.allocWaiters, func() {
			c.appendChunk(lbn, payload, own, class, tag, done)
		})
		return
	}
	// Invalidate the previous copy.
	c.invalidate(lbn)

	sn := st.sn
	se := c.smt[sn]
	se.chunks = append(se.chunks, pa{dev: dev, zone: zs.id, off: off})
	se.lbns = append(se.lbns, lbn)
	se.valid++
	se.pending++
	c.bmt[lbn] = bmtEntry{pa: pa{dev: dev, zone: zs.id, off: off}, sn: sn}
	zs.rmapLBN[off] = lbn
	zs.rmapStripe[off] = sn
	zs.valid++
	c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostMapUpdate)

	c.seq++
	seq := c.seq
	pending := 2
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if pending == 0 && done != nil {
			done(firstErr)
		}
	}
	ds.submitChunk(zs, schedOp{
		off: off, data: payload, own: own,
		oob: c.encodeOOB(oobKindData, lbn, sn, seq, st.count), tag: tag,
		done: func(r zns.WriteResult) {
			se.pending--
			err := r.Err
			if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
				// The member died under the append. The payload was
				// already folded into the stripe's parity accumulator
				// host-side, so the chunk remains reconstructable from
				// the survivors: acknowledge the write degraded.
				c.degradedWrites++
				err = nil
			}
			finish(err)
		},
	})

	// Partial parity: fold the chunk into every row's accumulator and
	// rewrite the parity slots in place (§4.2: partial parities always own
	// ZRWA). The first write of each slot is its append; later updates are
	// in-place and absorbed by the device buffer. A slot flushed out of
	// its window (stripe lingered) is relocated.
	if payload != nil {
		if st.accs == nil {
			st.accs = c.getVec(c.cfg.Parity)
			for r := range st.accs {
				st.accs[r] = c.pool.AllocZero(c.blockSize)
			}
		}
		for r := range st.accs {
			erasure.MulXor(c.coder.Coeff(r, st.count), payload, st.accs[r])
		}
		c.acct.ChargeParity(cpumodel.CompBIZA, int64(c.blockSize)*int64(c.cfg.Parity))
	}
	st.count++
	if st.count >= c.nData {
		se.sealed = true
		c.open[class] = nil
	}
	c.writeStripeParity(st, se, class, seq, func(err error) { finish(err) })
}

// writeStripeParity schedules a rewrite of the stripe's parity slot with
// the current accumulator. Only one parity write per stripe is in flight:
// concurrent chunk appends coalesce onto the next write (same-slot
// delivery reordering would otherwise leave a stale accumulator final).
func (c *Core) writeStripeParity(st *openStripe, se *smtEntry, class Class, seq uint64, done func(error)) {
	st.parityWaiters = append(st.parityWaiters, done)
	if st.parityBusy {
		st.parityDirty = true
		return
	}
	c.issueParity(st, se, class, seq)
}

func (c *Core) issueParity(st *openStripe, se *smtEntry, class Class, seq uint64) {
	st.parityBusy = true
	st.parityDirty = false
	m := len(st.parity)
	remaining := m
	var firstErr error
	parityDone := func(err error) {
		if err != nil && storerr.Reconstructable(err) && c.degradedOK() {
			// A parity member died: this row is missing, but the data
			// chunks (and any surviving rows) keep the stripe within its
			// fault budget.
			c.degradedWrites++
			err = nil
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining > 0 {
			return
		}
		if st.parityDirty {
			c.issueParity(st, se, class, c.seq)
			return
		}
		st.parityBusy = false
		// A sealed stripe takes no more appends, and the last parity copy
		// is on its way to the device — the accumulators retire here.
		if se.sealed && st.accs != nil {
			for r := range st.accs {
				c.pool.Free(st.accs[r])
			}
			c.putVec(st.accs)
			st.accs = nil
		}
		waiters := st.parityWaiters
		st.parityWaiters = nil
		for _, w := range waiters {
			if w != nil {
				w(firstErr)
			}
		}
	}
	wasWritten := st.parityWritten
	st.parityWritten = true
	// A sealed stripe takes no further appends, so this is the final parity
	// generation: move the accumulators into the dispatch instead of
	// copying them (parityDone's retirement sweep skips the nil slots).
	final := se.sealed
	for r := 0; r < m; r++ {
		ppa := st.parity[r]
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
		inWindow := pzs != nil && !pzs.sealedF && pzs.rmapSN[ppa.off] == st.sn &&
			ppa.off >= pzs.devWP(c.zrwaBlocks)
		if inWindow {
			pds.submitChunk(pzs, schedOp{
				off: ppa.off, inplace: wasWritten, data: parityData,
				ownData: parityData != nil,
				oob:     c.encodeOOB(oobKindParity, int64(r), st.sn, seq, r), tag: zns.TagParity,
				done: func(w zns.WriteResult) { parityDone(w.Err) },
			})
			continue
		}
		// Relocate: free the stale slot and append the full partial parity
		// to a fresh slot on the same device (member distinctness holds).
		if pzs != nil && pzs.rmapSN[ppa.off] == st.sn {
			pzs.rmapSN[ppa.off] = -1
			pzs.valid--
		}
		nzs, noff, err := pds.alloc(class)
		if err != nil {
			c.pool.Free(parityData)
			parityDone(err)
			continue
		}
		st.parity[r] = pa{dev: ppa.dev, zone: nzs.id, off: noff}
		se.parity[r] = st.parity[r]
		nzs.rmapSN[noff] = st.sn
		nzs.valid++
		pds.submitChunk(nzs, schedOp{
			off: noff, data: parityData, ownData: parityData != nil,
			oob: c.encodeOOB(oobKindParity, int64(r), st.sn, seq, r), tag: zns.TagParity,
			done: func(w zns.WriteResult) { parityDone(w.Err) },
		})
	}
}

// stripeDataDevice maps a stripe's chunk index to a member device,
// skipping the stripe's parity devices.
func (c *Core) stripeDataDevice(st *openStripe, idx int) int {
	isParity := func(d int) bool {
		for _, p := range st.parity {
			if p.dev == d {
				return true
			}
		}
		return false
	}
	base := st.parity[0].dev
	seen := 0
	for i := 1; i <= len(c.devs); i++ {
		d := (base + i) % len(c.devs)
		if isParity(d) {
			continue
		}
		if seen == idx {
			return d
		}
		seen++
	}
	panic("core: stripe data device out of range")
}

// newStripe opens a stripe for a class: rotates the parity devices and
// allocates one parity slot from each of their class groups.
func (c *Core) newStripe(class Class) (*openStripe, error) {
	m := c.cfg.Parity
	base := c.parityRot % len(c.devs)
	c.parityRot++
	sn := c.nextSN
	parity := make([]pa, m)
	for r := 0; r < m; r++ {
		pdev := (base + r) % len(c.devs)
		pds := c.devs[pdev]
		pzs, poff, err := pds.alloc(class)
		if err != nil {
			// Roll back slots already taken for this stripe.
			for rr := 0; rr < r; rr++ {
				q := parity[rr]
				if zs := c.devs[q.dev].zones[q.zone]; zs != nil && zs.rmapSN[q.off] == sn {
					zs.rmapSN[q.off] = -1
					zs.valid--
				}
			}
			return nil, err
		}
		parity[r] = pa{dev: pdev, zone: pzs.id, off: poff}
		pzs.rmapSN[poff] = sn
		pzs.valid++
	}
	c.nextSN++
	st := &openStripe{sn: sn, parity: parity}
	c.smt[sn] = &smtEntry{parity: append([]pa(nil), parity...)}
	return st, nil
}

// invalidate drops the previous copy of a logical block: clears its zone
// slot and its stripe membership; fully dead sealed stripes release their
// parity slots and vanish.
func (c *Core) invalidate(lbn int64) {
	e, ok := c.bmt[lbn]
	if !ok {
		return
	}
	ds := c.devs[e.pa.dev]
	if zs := ds.zones[e.pa.zone]; zs != nil && zs.rmapLBN[e.pa.off] == lbn {
		zs.rmapLBN[e.pa.off] = -1
		zs.valid--
	}
	if se := c.smt[e.sn]; se != nil {
		for i, p := range se.chunks {
			if p == e.pa && se.lbns[i] == lbn {
				// Keep the slot address: its content still feeds the
				// stripe's parity for reconstruction; only liveness drops.
				se.lbns[i] = -1
				se.valid--
				break
			}
		}
		if se.valid == 0 && se.sealed && se.pending == 0 {
			c.releaseStripe(e.sn, se)
		}
	}
	delete(c.bmt, lbn)
}

// releaseStripe frees a dead stripe's parity slots, clears its slots'
// stripe ownership, and forgets it.
func (c *Core) releaseStripe(sn int64, se *smtEntry) {
	for _, p := range se.parity {
		if p.dev < 0 {
			continue
		}
		if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.rmapSN[p.off] == sn {
			zs.rmapSN[p.off] = -1
			zs.valid--
		}
	}
	for _, p := range se.chunks {
		if p.dev < 0 {
			continue
		}
		if zs := c.devs[p.dev].zones[p.zone]; zs != nil && zs.rmapStripe[p.off] == sn {
			zs.rmapStripe[p.off] = -1
		}
	}
	delete(c.smt, sn)
}

// Trim implements blockdev.Device.
func (c *Core) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		c.invalidate(lba + i)
	}
}
