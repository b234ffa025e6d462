package core

import (
	"slices"

	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// maybeStartGC launches a device's collector when its free-zone pool drops
// below the low watermark (or immediately when user work is stalled at the
// cliff).
func (c *Core) maybeStartGC(ds *devState) {
	if ds.gcRunning {
		return
	}
	if len(ds.freeZones) >= c.cfg.GCLowWater && ds.stalled.Len() == 0 {
		return
	}
	ds.gcRunning = true
	c.eng.After(0, func() { c.gcStep(ds) })
}

// gcStep collects one victim zone (§4.3's GC events): it dissolves every
// stripe that owns a slot — live or stale — in the victim, migrating the
// live chunks into GC-class stripes, then resets the victim. For the
// duration, the victim's guessed channel and the GC destination zones'
// guessed channels are tagged BUSY so pickZone steers user writes away.
func (c *Core) gcStep(ds *devState) {
	if len(ds.freeZones) >= c.cfg.GCHighWater && ds.stalled.Len() == 0 {
		ds.gcRunning = false
		return
	}
	victim := ds.pickVictim()
	if victim < 0 {
		ds.gcRunning = false
		// Nothing collectible: release any stalled writers (no deadlock).
		for ds.stalled.Len() > 0 {
			c.appendChunk(ds.stalled.Pop())
		}
		return
	}
	c.gcEvents++
	vzs := ds.zones[victim]
	if c.tr != nil {
		c.tr.Event(int64(c.eng.Now()), obs.LayerBIZA, obs.EvGCVictim, ds.id, victim,
			vzs.valid, int64(len(ds.freeZones)), 0)
	}

	// Tag BUSY: the victim's channel (reads + erase) and the current GC
	// destination zones on every device (migration programs).
	// BUSY bookkeeping runs regardless of the avoidance toggle (the
	// ablation disables only the steering in pickZone), so collision
	// diagnostics compare like for like.
	var releases []func()
	_, rel := ds.markBusy(victim)
	releases = append(releases, rel)
	for _, d := range c.devs {
		for _, zs := range d.groups[classGC] {
			if zs != nil && !zs.sealedF {
				_, r := d.markBusy(zs.id)
				releases = append(releases, r)
			}
		}
	}
	finish := func() {
		ds.q.Reset(victim, func(err error) {
			c.noteIOError(ds.id, err)
			for _, r := range releases {
				r()
			}
			ds.freeZone(victim)
			c.eng.After(0, func() { c.gcStep(ds) })
		})
	}

	// Collect the owning stripes of every slot in the victim, ascending.
	var sns []int64
	for off := int64(0); off < vzs.wpAlloc; off++ {
		if sn := vzs.stripeAt(off); sn >= 0 {
			sns = append(sns, sn)
		}
		if sn := vzs.parityAt(off); sn >= 0 {
			sns = append(sns, sn)
		}
	}
	slices.Sort(sns)
	sns = slices.Compact(sns)

	remaining := len(sns)
	if remaining == 0 {
		finish()
		return
	}
	for _, sn := range sns {
		c.dissolveStripe(sn, func() {
			remaining--
			if remaining == 0 {
				finish()
			}
		})
	}
}

// dissolveStripe migrates every live chunk of a stripe into GC-class
// stripes and releases the old stripe. Its live blocks are pinned for the
// duration so in-place updates cannot race the migration reads.
func (c *Core) dissolveStripe(sn int64, done func()) {
	(&dissolve{c: c, sn: sn, done: done}).run()
}

// dissolve is one stripe dissolution: the parent of its migration chunks,
// and the entry parked on the stripe's ipq while an in-place update is
// still in flight.
type dissolve struct {
	c         *Core
	sn        int64
	done      func()
	remaining int       // live chunks not yet re-homed
	parked    *smtEntry // the stripe whose ipq holds this dissolution
}

func (d *dissolve) run() {
	c, sn := d.c, d.sn
	se := c.smt.Get(sn)
	if se == nil {
		d.done()
		return
	}
	// Claim the stripe: later rewrites of its blocks append elsewhere (the
	// bmt guard in migrate() then skips them). An in-place update already in
	// flight mutates slot content without remapping — invisible to that
	// guard — so wait for it to finish before capturing the live set.
	se.dissolving = true
	if se.ipBusy {
		d.parked = se
		c.park(se, d)
		return
	}
	if !se.sealed {
		// The stripe is still open: seal it short. Its partial parity is
		// the valid parity of the chunks written so far. With no parity
		// generation in flight to retire the open-stripe record, it
		// retires here.
		se.sealed = true
		for class := Class(0); class < numClasses; class++ {
			if st := c.open[class]; st != nil && st.sn == sn {
				c.open[class] = nil
				if !st.parityBusy {
					c.putStripe(st)
				}
			}
		}
	}
	type migrant struct {
		lbn int64
		p   pa
	}
	var live []migrant
	for i, lbn := range se.lbns {
		if lbn >= 0 && se.chunks[i].dev >= 0 {
			live = append(live, migrant{lbn: lbn, p: se.chunks[i]})
			c.setPinned(lbn, true)
		}
	}
	if len(live) == 0 {
		if se.pending == 0 {
			c.releaseStripe(sn, se)
		}
		d.done()
		return
	}
	d.remaining = len(live)
	for _, m := range live {
		m := m
		if c.failed[m.p.dev] {
			d.reconstruct(m.lbn, m.p) // source member is gone (rebuild path)
			continue
		}
		dst := c.readBuf(1)
		c.devs[m.p.dev].q.ReadInto(int(m.p.zone), m.p.off, 1, dst, false, func(r zns.ReadResult) {
			data := dst
			if r.Err != nil {
				c.noteIOError(int(m.p.dev), r.Err)
				c.pool.Free(dst)
				data = nil
				if storerr.Reconstructable(r.Err) {
					d.reconstruct(m.lbn, m.p) // it died (or rotted) under the read
					return
				}
			}
			d.migrate(m.lbn, m.p, data, data != nil)
		})
	}
}

// Fire implements sim.Handler: the in-place update that parked this
// dissolution has finished, so retry, then let the stripe's queue go on.
func (d *dissolve) Fire(_, _ sim.Time) {
	se := d.parked
	d.parked = nil
	d.run()
	d.c.ipNext(se)
	d.c.dropSE(se)
}

// reconstruct migrates a live chunk whose source cannot be read, rebuilt
// from the stripe's survivors.
func (d *dissolve) reconstruct(lbn int64, p pa) {
	d.c.reconstructChunk(lbn, func(data []byte, err error) {
		if err != nil {
			d.chunkDone(lbn, nil)
			return
		}
		d.migrate(lbn, p, data, false)
	})
}

// migrate re-homes one live chunk through the write flow as a GC-class
// chunk with this dissolution as its parent. pooled says data is pool
// scratch (the migration read's destination), which the chunk then owns
// and frees when it is done.
func (d *dissolve) migrate(lbn int64, p pa, data []byte, pooled bool) {
	c := d.c
	// The block may have been rewritten while the read was in flight
	// (pinning stops in-place updates, but a fresh append can still
	// supersede it).
	if cur := c.bmt.Get(lbn); cur.loc() != p {
		if pooled {
			c.pool.Free(data)
		}
		d.chunkDone(lbn, nil)
		return
	}
	c.gcMigrated += uint64(c.blockSize)
	ch := c.getChunk()
	ch.lbn, ch.payload, ch.pooled = lbn, data, pooled
	ch.class, ch.tag, ch.parent = classGC, zns.TagGCData, d
	c.writeChunk(ch)
}

// chunkDone implements chunkParent: one live chunk is re-homed (or given
// up on; the migration's own error is not the dissolution's).
func (d *dissolve) chunkDone(lbn int64, _ error) {
	c := d.c
	c.setPinned(lbn, false)
	d.remaining--
	if d.remaining > 0 {
		return
	}
	// All live chunks rehomed; the old stripe died through the
	// invalidate() calls of the migrations. If it still lingers
	// (pending completions), release explicitly once safe.
	if se := c.smt.Get(d.sn); se != nil && se.valid == 0 && se.pending == 0 {
		c.releaseStripe(d.sn, se)
	}
	d.done()
}

// setPinned sets or clears a block's GC pin, a bit of its BMT entry that
// outlives the mapping.
func (c *Core) setPinned(lbn int64, pinned bool) {
	e := c.bmt.Get(lbn)
	e.pinned = pinned
	c.putBMT(lbn, e)
}

// putBMT stores a block's entry; one with neither mapping nor pin is the
// zero value, which is what an empty slot reads as, so the slot is freed.
func (c *Core) putBMT(lbn int64, e bmtEntry) {
	if e == (bmtEntry{}) {
		c.bmt.Delete(lbn)
		return
	}
	c.bmt.Set(lbn, e)
}
