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
	c.eng.AfterEvent(0, &ds.gc, 0, 0)
}

// gcRun is a device's collector: the event that collects the next victim,
// the parent of the victim's stripe dissolutions, and the completion of its
// reset. Each device holds one, its slices and callbacks kept across runs.
type gcRun struct {
	ds        *devState
	victim    int
	sns       []int64     // the victim's stripes, ascending
	remaining int         // stripes not yet dissolved, plus Fire's own hold while it issues them
	busy      []busyTag   // channels tagged BUSY until the victim is reset
	onStripe  func()      // r.stripeDone, bound once
	onReset   func(error) // r.resetDone, bound once
}

// busyTag is one channel a GC run holds BUSY.
type busyTag struct {
	ds *devState
	ch int
}

// Fire implements sim.Handler: collect one victim zone (§4.3's GC
// events). Every stripe that owns a slot — live or stale — in the victim
// is dissolved, its live chunks migrating into GC-class stripes, then the
// victim is reset. For the duration, the victim's guessed channel and the
// GC destination zones' guessed channels are tagged BUSY so pickZone
// steers user writes away.
func (r *gcRun) Fire(_, _ sim.Time) {
	ds, c := r.ds, r.ds.c
	r.victim = -1
	if len(ds.freeZones) < c.cfg.GCHighWater || ds.stalled.Len() > 0 {
		r.victim = ds.pickVictim()
	}
	if r.victim < 0 {
		ds.gcRunning = false
		// Done or stuck: release any stalled writers (no deadlock).
		for ds.stalled.Len() > 0 {
			c.appendChunk(ds.stalled.Pop())
		}
		return
	}
	c.gcEvents++
	vzs := ds.zones[r.victim]
	if c.tr != nil {
		c.tr.Event(int64(c.eng.Now()), obs.LayerBIZA, obs.EvGCVictim, ds.id, r.victim,
			vzs.valid, int64(len(ds.freeZones)), 0)
	}

	// Tag BUSY: the victim's channel (reads + erase) and the current GC
	// destination zones on every device (migration programs).
	// BUSY bookkeeping runs regardless of the avoidance toggle (the
	// ablation disables only the steering in pickZone), so collision
	// diagnostics compare like for like.
	r.busy = append(r.busy, busyTag{ds, ds.markBusy(r.victim)})
	for _, d := range c.devs {
		for _, zs := range d.groups[classGC] {
			if zs != nil && !zs.sealedF {
				r.busy = append(r.busy, busyTag{d, d.markBusy(zs.id)})
			}
		}
	}

	// Collect the owning stripes of every slot in the victim, ascending.
	sns := r.sns[:0]
	for off := int64(0); off < vzs.wpAlloc; off++ {
		if sn := vzs.stripeAt(off); sn >= 0 {
			sns = append(sns, sn)
		}
		if sn := vzs.parityAt(off); sn >= 0 {
			sns = append(sns, sn)
		}
	}
	slices.Sort(sns)
	r.sns = slices.Compact(sns)
	r.remaining = len(r.sns) + 1
	for _, sn := range r.sns {
		c.dissolveStripe(sn, r.onStripe)
	}
	r.stripeDone()
}

// stripeDone counts one of the victim's stripes dissolved; after the last,
// the victim is reset.
func (r *gcRun) stripeDone() {
	if r.remaining--; r.remaining == 0 {
		r.ds.q.Reset(r.victim, r.onReset)
	}
}

// resetDone returns the collected victim to the pool, releases the BUSY
// tags, and schedules the next victim.
func (r *gcRun) resetDone(err error) {
	ds := r.ds
	ds.c.noteIOError(ds.id, err)
	for _, b := range r.busy {
		b.ds.releaseBusy(b.ch)
	}
	clear(r.busy)
	r.busy = r.busy[:0]
	ds.freeZone(r.victim)
	ds.c.eng.AfterEvent(0, r, 0, 0)
}

// dissolveStripe migrates every live chunk of a stripe into GC-class
// stripes and releases the old stripe, then calls done. Its live blocks are
// pinned for the duration so in-place updates cannot race the migration
// reads.
func (c *Core) dissolveStripe(sn int64, done func()) {
	c.getDissolve(sn, done).run()
}

// dissolve is one stripe dissolution: the parent of its migration chunks,
// and the entry parked on the stripe's ipq while an in-place update is
// still in flight. A recycled record (getDissolve in pool.go), put back
// just before its done callback runs.
type dissolve struct {
	c         *Core
	live      bool
	sn        int64
	done      func()
	remaining int       // live chunks not yet re-homed, plus run's own hold while it issues them
	parked    *smtEntry // the stripe whose ipq holds this dissolution
}

func (d *dissolve) run() {
	c, sn := d.c, d.sn
	se := c.smt.Get(sn)
	if se == nil {
		c.putDissolve(d)
		return
	}
	// Claim the stripe: later rewrites append elsewhere, and migrate()'s bmt
	// guard skips them. An in-place update in flight does not remap, so
	// that guard cannot see it: wait for it before capturing the live set.
	if se.state.updating() {
		c.setState(se, stripeDissolvingUpdate)
		d.parked = se
		c.park(se, d)
		return
	}
	open := se.state == stripeOpen
	c.setState(se, stripeDissolving)
	if open {
		// Seal it short: its partial parity covers the chunks written so
		// far. With no generation in flight to retire its record, it retires here.
		for class := Class(0); class < numClasses; class++ {
			if st := c.open[class]; st != nil && st.sn == sn {
				c.open[class] = nil
				if st.gen < genBusy {
					c.putStripe(st)
				}
			}
		}
	}
	// Pin and migrate the live chunks in stripe order. The loop holds d, so
	// a migration ending inside it (a reconstruction that fails at once)
	// cannot finish d under it; with none live, dropping the hold releases
	// the stripe (valid counts exactly the live chunks) once safe.
	d.remaining = 1
	lbns := se.lbns()
	for i, p := range se.chunks() {
		lbn := int64(lbns[i]) - 1
		if lbn < 0 || p.dev < 0 {
			continue
		}
		d.remaining++
		c.setPinned(lbn, true)
		if c.failed[p.dev] {
			d.reconstruct(lbn, p) // source member is gone (rebuild path)
			continue
		}
		m := c.getMigrationRead(d, lbn, p, c.readBuf(1))
		c.devs[p.dev].q.ReadInto(int(p.zone), int64(p.off), 1, m.dst, false, m.onDone)
	}
	d.chunkDone(-1, nil)
}

// migrationRead is one live chunk of a dissolving stripe read off its
// member for migration. A recycled record (getMigrationRead in pool.go),
// the completion target of its read, put back before the chunk migrates.
type migrationRead struct {
	d      *dissolve
	live   bool
	lbn    int64
	p      pa
	dst    []byte               // the read's pool scratch; nil in performance mode
	onDone func(zns.ReadResult) // m.complete, bound once per record
}

func (m *migrationRead) complete(r zns.ReadResult) {
	d, lbn, p, data := m.d, m.lbn, m.p, m.dst
	d.c.putMigrationRead(m)
	if r.Err != nil {
		d.c.noteIOError(int(p.dev), r.Err)
		d.c.pool.Free(data)
		data = nil
		if storerr.Reconstructable(r.Err) {
			d.reconstruct(lbn, p) // it died (or rotted) under the read
			return
		}
	}
	d.migrate(lbn, p, data, data != nil)
}

// Fire implements sim.Handler: the in-place update that parked this
// dissolution has finished, so retry, then let the stripe's queue go on.
// The retry may finish the dissolution and put it back.
func (d *dissolve) Fire(_, _ sim.Time) {
	c, se := d.c, d.parked
	d.parked = nil
	d.run()
	c.ipNext(se)
	c.dropSE(se)
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
// up on; the migration's own error is not the dissolution's). lbn -1 drops
// run's own hold instead. After the last, the dissolution is put back and
// its done callback runs.
func (d *dissolve) chunkDone(lbn int64, _ error) {
	c := d.c
	if lbn >= 0 {
		c.setPinned(lbn, false)
	}
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
	d.c.putDissolve(d)
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
