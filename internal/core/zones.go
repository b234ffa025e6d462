package core

import (
	"fmt"

	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/fifo"
	"biza/internal/nvme"
	"biza/internal/sim"
	"biza/internal/zns"
)

// zoneState is the host-side view of one open or full zone, including the
// §4.4 scheduler state: the allocation cursor, the completed prefix (the
// sliding window's left edge), and the queue of writes waiting for the
// window to slide.
type zoneState struct {
	ds    *devState
	id    int
	class Class

	wpAlloc      int64    // next append offset (allocation cursor)
	maxSubmitted int64    // highest append offset handed to the driver
	donePrefix   int64    // all appends below this offset have completed
	doneSet      []uint64 // §4.4 bitmap, one bit per offset: completed ahead of the prefix
	inflight     int
	pendq        fifo.Queue[*appendBatch] // batches waiting for the window (ascending)

	// stage accumulates contiguous appends submitted at one instant of
	// virtual time so they go to the device as one multi-block command (the
	// block layer's request merging; without it 4 KiB chunk traffic drowns
	// in per-command overhead). The zone itself is the zero-delay event that
	// flushes it (Fire); stagePending says one is scheduled. That event runs
	// after every event already queued for the same instant, so a batch
	// closes only once they have all had their turn, not at the end of the
	// event that opened it.
	stage        *appendBatch
	stagePending bool

	// ipOffsets counts the outstanding in-place writes of each offset: the
	// window must not slide past them while they are in flight, or a
	// reordered delivery could land behind the device's committed boundary.
	// A slot is pinned only inside [devWP, devWP+ZRWA) and canAppend keeps
	// it there, so the counts live in a ring of ZRWA entries indexed by
	// offset mod ZRWA; ipPins totals them and ipMin is the lowest pinned
	// offset while ipPins > 0.
	ipOffsets []int32
	ipPins    int
	ipMin     int64

	rmap    []int64 // off -> the stripe the slot belongs to; see stripeAt, parityAt
	valid   int64
	sealedF bool // finishing/finished: no further writes accepted
}

// A reverse-map slot names the stripe its one OOB record names: sn for a
// data slot of stripe sn, live or stale, and -(sn+2) for the parity slot
// of stripe sn; rmapNone is unmapped. Whether a data slot is live is the
// SMT's to say (smtEntry.lbns), so the map holds 8 bytes per slot.
const (
	rmapNone = -1

	// The reverse map covers the zone's written prefix only: it starts at
	// rmapFirst slots on the first write and grows rmapGrowth-fold, capped
	// at the zone size, so a zone that holds little costs little.
	rmapFirst  = 256
	rmapGrowth = 4
)

// stripeAt reports the stripe owning the data slot at off, live or stale,
// or -1.
func (zs *zoneState) stripeAt(off int64) int64 {
	if off >= int64(len(zs.rmap)) || zs.rmap[off] < 0 {
		return -1
	}
	return zs.rmap[off]
}

// parityAt reports the stripe whose parity slot is off, or -1.
func (zs *zoneState) parityAt(off int64) int64 {
	if off >= int64(len(zs.rmap)) || zs.rmap[off] >= rmapNone {
		return -1
	}
	return -zs.rmap[off] - 2
}

// setStripe sets (or, with -1, clears) the owning stripe of data slot off.
func (zs *zoneState) setStripe(off, sn int64) {
	if s := zs.slot(off, sn < 0); s != nil && *s >= rmapNone {
		*s = sn
	}
}

// setParity makes off the parity slot of stripe sn, or with -1 unmaps a
// parity slot.
func (zs *zoneState) setParity(off, sn int64) {
	s := zs.slot(off, sn < 0)
	switch {
	case s == nil:
	case sn >= 0:
		*s = -(sn + 2)
	case *s < rmapNone:
		*s = rmapNone
	}
}

// slot returns off's reverse-map entry, growing the map to reach it unless
// the write is a clear (a slot past the map is unmapped already: nil).
func (zs *zoneState) slot(off int64, clear bool) *int64 {
	if n := int64(len(zs.rmap)); off >= n {
		if clear {
			return nil
		}
		if n == 0 {
			n = rmapFirst
		}
		for n <= off {
			n *= rmapGrowth
		}
		m := make([]int64, min(n, zs.ds.c.zoneBlocks))
		for i := copy(m, zs.rmap); i < len(m); i++ {
			m[i] = rmapNone
		}
		zs.rmap = m
	}
	return &zs.rmap[off]
}

type schedOp struct {
	off     int64
	inplace bool
	// reserved marks in-place ops whose window pin (ipOffsets) was taken
	// at admission time — before any asynchronous reads — so the window
	// cannot slide past the slot while the read-modify-write is in flight.
	reserved bool
	data     []byte
	// ownData marks raw payloads drawn from the core's pool (parity
	// accumulator copies/moves); the dispatch completion recycles them. A
	// GC migration's payload belongs to its chunk record instead.
	ownData bool
	// own carries one reference to a refcounted user payload (WriteBuf);
	// data is a view into it. Dispatch hands the device a fresh reference
	// and the completion releases this one.
	own  *buf.Buf
	oob  []byte
	tag  zns.WriteTag
	done completer // the chunk or open-stripe record that hears the result
}

// appendBatch is one device write: a run of contiguous append chunks, or a
// single in-place update. The record is recycled (getBatch in pool.go) and
// lives from staging through the device completion, which is its complete
// method, bound to done once per record.
type appendBatch struct {
	live    bool
	zs      *zoneState
	off     int64
	ops     []schedOp
	inplace bool
	gather  []byte   // coalesced payload to recycle, nil when passing through
	oob     [][]byte // per-block OOB records handed to the device
	done    func(zns.WriteResult)
}

func (b *appendBatch) end() int64 { return b.off + int64(len(b.ops)) }

// slotDone reports whether the append that first wrote a slot has
// completed. In-place updates require it: rewriting a slot whose append is
// still queued or in flight would race delivery order (stale content could
// win) or even extend the device window unexpectedly.
func (zs *zoneState) slotDone(off int64) bool {
	return off < zs.donePrefix || zs.doneSet[off>>6]&(1<<(off&63)) != 0
}

// inWindow reports whether off lies in the ZRWA-sized range that starts at
// the host's estimate of the device's committed boundary.
func (zs *zoneState) inWindow(off int64) bool {
	w := int64(len(zs.ipOffsets))
	lo := zs.devWP(w)
	return off >= lo && off < lo+w
}

// pin counts one more outstanding in-place write at off.
func (zs *zoneState) pin(off int64) {
	if !zs.inWindow(off) {
		panic("core: in-place pin outside the zone's window")
	}
	w := int64(len(zs.ipOffsets))
	zs.ipOffsets[off%w]++
	if zs.ipPins == 0 || off < zs.ipMin {
		zs.ipMin = off
	}
	zs.ipPins++
}

// unpin releases one pin of off and reports whether off is now unpinned. A
// pin the zone never took (the slot's zone state was replaced under an
// update in flight) is ignored and reads as unpinned.
func (zs *zoneState) unpin(off int64) bool {
	w := int64(len(zs.ipOffsets))
	if !zs.inWindow(off) || zs.ipOffsets[off%w] == 0 {
		return true
	}
	zs.ipOffsets[off%w]--
	zs.ipPins--
	if zs.ipOffsets[off%w] > 0 {
		return false
	}
	if off == zs.ipMin && zs.ipPins > 0 {
		for zs.ipMin++; zs.ipOffsets[zs.ipMin%w] == 0; zs.ipMin++ {
		}
	}
	return true
}

// devWP reports the host's conservative estimate of the device's committed
// boundary: the window cannot start later than maxSubmitted+1-ZRWA.
func (zs *zoneState) devWP(zrwa int64) int64 {
	wp := zs.maxSubmitted + 1 - zrwa
	if wp < 0 {
		wp = 0
	}
	return wp
}

// devState manages one member device: zone groups per class, the free
// pool, the guess-and-verify channel map, and BUSY-channel bookkeeping.
type devState struct {
	c         *Core
	id        int
	q         *nvme.Queue
	storeData bool // the device retains payloads (zns.Config.StoreData)

	zones  []*zoneState // by zone id; nil for zones in the free pool
	groups [numClasses][]*zoneState
	rr     [numClasses]int

	freeZones []int
	fullZones []int // candidates for GC victim selection

	guessed   []int // zone -> guessed channel
	confirmed []bool
	votes     []map[int]int

	busy      []int  // channel -> refcount of GC activity
	busyConf  []bool // channel marked from a confirmed zone
	busyChans int    // channels with a refcount

	gcRunning bool
	stalled   fifo.Queue[*chunkRec] // user chunks parked at the free-zone cliff
}

// emptyDevState returns a member's state with every zone unaccounted for:
// newDevState puts them all in the free pool, recovery sorts them by what
// the device reports.
func emptyDevState(c *Core, id int, q *nvme.Queue) *devState {
	cfg := q.Device().Config()
	ds := &devState{
		c:         c,
		id:        id,
		q:         q,
		zones:     make([]*zoneState, cfg.NumZones),
		guessed:   make([]int, cfg.NumZones),
		confirmed: make([]bool, cfg.NumZones),
		votes:     make([]map[int]int, cfg.NumZones),
		busy:      make([]int, cfg.NumChannels),
		busyConf:  make([]bool, cfg.NumChannels),
		storeData: cfg.StoreData,
	}
	for z := 0; z < cfg.NumZones; z++ {
		ds.guessed[z] = z % cfg.NumChannels // round-robin guess (§4.3)
	}
	return ds
}

func newDevState(c *Core, id int, q *nvme.Queue) (*devState, error) {
	ds := emptyDevState(c, id, q)
	for z := range ds.zones {
		ds.freeZones = append(ds.freeZones, z)
	}
	// Open the initial zone groups.
	for class := Class(0); class < numClasses; class++ {
		for i := 0; i < c.cfg.ZonesPerGroup; i++ {
			zs, err := ds.openNewZone(class)
			if err != nil {
				return nil, err
			}
			ds.groups[class] = append(ds.groups[class], zs)
		}
	}
	return ds, nil
}

// diagnose confirms the channel of the first k zones via the zone-to-zone
// diagnosis of §3.3 (pairwise write bursts and latency comparison). The
// procedure is accurate on real hardware — the paper's objection is its
// cost, which BIZA pays only once at creation — so the simulation grants
// it oracle accuracy.
func (ds *devState) diagnose(k int) {
	for z := 0; z < k && z < len(ds.guessed); z++ {
		ds.guessed[z] = ds.q.Device().TrueChannelOf(z)
		ds.confirmed[z] = true
	}
}

// openNewZone takes a free zone, opens it with ZRWA, and returns its state.
func (ds *devState) openNewZone(class Class) (*zoneState, error) {
	if len(ds.freeZones) == 0 {
		return nil, fmt.Errorf("core: device %d out of free zones", ds.id)
	}
	// Prefer a free zone whose guessed channel is distinct from the other
	// zones already in this group (a zone group spans channels, §4.1).
	used := map[int]bool{}
	for _, zs := range ds.groups[class] {
		if zs != nil && !zs.sealedF {
			used[ds.guessed[zs.id]] = true
		}
	}
	pick := -1
	for i, z := range ds.freeZones {
		if !used[ds.guessed[z]] {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0
	}
	z := ds.freeZones[pick]
	ds.freeZones = append(ds.freeZones[:pick], ds.freeZones[pick+1:]...)
	ch, err := ds.q.Device().OpenReport(z, true)
	if err != nil {
		// Typically ErrTooManyOpen while retired zones drain; the zone
		// returns to the pool and the caller parks until a slot frees.
		ds.freeZones = append(ds.freeZones, z)
		return nil, fmt.Errorf("core: open zone %d on device %d: %w", z, ds.id, err)
	}
	if ch >= 0 {
		// §6 future-ZNS device: the OPEN completion carries the channel,
		// making the guess-and-verify machinery unnecessary for this zone.
		ds.guessed[z] = ch
		ds.confirmed[z] = true
	}
	zs := ds.newZoneState(z)
	zs.class = class
	ds.zones[z] = zs
	return zs, nil
}

// newZoneState returns the host-side state of an empty zone.
func (ds *devState) newZoneState(z int) *zoneState {
	return &zoneState{
		ds:        ds,
		id:        z,
		doneSet:   make([]uint64, (ds.c.zoneBlocks+63)/64),
		ipOffsets: make([]int32, ds.c.zrwaBlocks),
	}
}

// channelBusy reports whether a channel carries GC traffic.
func (ds *devState) channelBusy(ch int) bool { return ds.busy[ch] > 0 }

// gcActive reports whether any channel carries GC traffic.
func (ds *devState) gcActive() bool { return ds.busyChans > 0 }

// markBusy tags the guessed channel of zone z as BUSY for the duration of
// a GC phase; fromConfirmed notes whether the channel identity is certain.
func (ds *devState) markBusy(z int) (ch int, release func()) {
	ch = ds.guessed[z]
	if ds.busy[ch] == 0 {
		ds.busyChans++
	}
	ds.busy[ch]++
	if ds.confirmed[z] {
		ds.busyConf[ch] = true
	}
	released := false
	return ch, func() {
		if released {
			return
		}
		released = true
		ds.busy[ch]--
		if ds.busy[ch] == 0 {
			ds.busyChans--
			ds.busyConf[ch] = false
		}
	}
}

// pickZone selects the destination zone within a class group, preferring
// zones whose guessed channel is not BUSY (§4.3's GC avoidance). A full
// zone encountered during selection is replaced with a fresh one.
func (ds *devState) pickZone(class Class) (*zoneState, error) {
	ds.c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostSchedule)
	group := ds.groups[class]
	n := len(group)
	avoid := ds.c.cfg.EnableGCAvoid && ds.gcActive()
	var fallback *zoneState
	for try := 0; try < n; try++ {
		slot := (ds.rr[class] + try) % n
		zs := group[slot]
		if zs == nil || zs.wpAlloc >= ds.c.zoneBlocks {
			nz, err := ds.openNewZone(class)
			if err != nil {
				if zs != nil && zs.wpAlloc < ds.c.zoneBlocks {
					fallback = zs
					continue
				}
				continue
			}
			if zs != nil {
				ds.retireZone(zs)
			}
			group[slot] = nz
			zs = nz
		}
		if avoid && ds.channelBusy(ds.guessed[zs.id]) {
			fallback = zs
			continue
		}
		ds.rr[class] = (slot + 1) % n
		return zs, nil
	}
	if fallback != nil {
		// Every candidate is on a BUSY channel (or no fresh zones): write
		// anyway rather than stall the user.
		return fallback, nil
	}
	return nil, fmt.Errorf("core: device %d has no writable zone for class %v", ds.id, class)
}

// alloc reserves the next append slot in the chosen zone of a class group.
func (ds *devState) alloc(class Class) (*zoneState, int64, error) {
	zs, err := ds.pickZone(class)
	if err != nil {
		return nil, 0, err
	}
	off := zs.wpAlloc
	zs.wpAlloc++
	return zs, off, nil
}

// submitChunk runs a chunk write through the §4.4 sliding-window
// scheduler: appends beyond the window wait for completions to slide it;
// in-place updates (already inside the device window) dispatch directly
// and pin the window so it cannot slide past them while in flight.
// Contiguous appends stage into one multi-block device command. op is
// copied once, into the batch that carries it; the pointer is not kept.
func (ds *devState) submitChunk(zs *zoneState, op *schedOp) {
	ds.c.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
	if op.inplace {
		if !op.reserved {
			zs.pin(op.off)
		}
		ds.dispatchInPlace(zs, op)
		return
	}
	maxBatch := ds.c.cfg.MaxBatchBlocks
	if maxBatch == 0 {
		maxBatch = ds.c.zrwaBlocks / 4
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	if zs.stage != nil && zs.stage.end() == op.off && int64(len(zs.stage.ops)) < maxBatch {
		zs.stage.ops = append(zs.stage.ops, *op)
		return
	}
	ds.flushStage(zs)
	b := ds.c.getBatch()
	b.off = op.off
	b.ops = append(b.ops, *op)
	zs.stage = b
	if !zs.stagePending {
		zs.stagePending = true
		ds.c.eng.AfterEvent(0, zs, 0, 0)
	}
}

// Fire implements sim.Handler: the zero-delay event that ends a staging
// round.
func (zs *zoneState) Fire(_, _ sim.Time) {
	zs.stagePending = false
	zs.ds.flushStage(zs)
}

// flushStage moves the staged batch to dispatch or the window queue.
func (ds *devState) flushStage(zs *zoneState) {
	b := zs.stage
	if b == nil {
		return
	}
	zs.stage = nil
	if zs.pendq.Len() == 0 && ds.canAppend(zs, b.end()-1) {
		ds.dispatchBatch(zs, b)
		return
	}
	zs.pendq.Push(b)
}

// canAppend reports whether an append at off keeps every in-flight write
// of the zone within one ZRWA-sized range: inside the window measured from
// the completed prefix, and not so far ahead that a reordered delivery
// would shift the device boundary past an outstanding in-place write.
func (ds *devState) canAppend(zs *zoneState, off int64) bool {
	return off < zs.donePrefix+ds.c.zrwaBlocks &&
		(zs.ipPins == 0 || off < zs.ipMin+ds.c.zrwaBlocks)
}

func (ds *devState) dispatchInPlace(zs *zoneState, op *schedOp) {
	// In-place updates deliberately ignore BUSY tags (§4.3: the ZRWA
	// buffer is separate from the flash channels), so they are not scored.
	zs.inflight++
	b := ds.c.getBatch()
	b.zs, b.off, b.inplace = zs, op.off, true
	b.ops = append(b.ops, *op)
	if op.oob != nil {
		b.oob = append(b.oob, op.oob)
	}
	if op.own != nil {
		// Zero-copy: the driver gets a fresh reference; ours is released in
		// the completion.
		op.own.Retain()
		ds.q.WriteOwned(zs.id, op.off, 1, op.data, b.oobVec(), op.tag, op.own, b.done)
		return
	}
	ds.q.Write(zs.id, op.off, 1, op.data, b.oobVec(), op.tag, b.done)
}

// oobVec returns the batch's OOB vector as the device expects it: nil when
// no op carries a record.
func (b *appendBatch) oobVec() [][]byte {
	if len(b.oob) == 0 {
		return nil
	}
	return b.oob
}

func (ds *devState) dispatchBatch(zs *zoneState, b *appendBatch) {
	ds.c.scoreDispatch(ds, zs)
	zs.inflight++
	if b.end()-1 > zs.maxSubmitted {
		zs.maxSubmitted = b.end() - 1
	}
	b.zs = zs
	n := len(b.ops)
	var data []byte
	hasData, hasOOB := false, false
	for i := range b.ops {
		if b.ops[i].data != nil {
			hasData = true
		}
		if b.ops[i].oob != nil {
			hasOOB = true
		}
	}
	bs := ds.c.blockSize
	if hasData {
		if n == 1 {
			// Single-block batch: hand the payload straight through (the
			// refcounted path below makes this fully zero-copy).
			data = b.ops[0].data
		} else {
			// Merged command: gather-copy into one coalesced slab. The copy
			// buys one device command for n blocks and is counted, so the
			// merge-vs-copy tradeoff stays observable (payload_copy probe).
			b.gather = ds.c.pool.AllocZero(n * bs)
			data = b.gather
			for i := range b.ops {
				if b.ops[i].data != nil {
					copy(data[i*bs:], b.ops[i].data)
					ds.c.pool.NoteCopy(bs)
				}
			}
		}
	}
	if hasOOB {
		for i := range b.ops {
			b.oob = append(b.oob, b.ops[i].oob)
		}
	}
	if n == 1 && b.ops[0].own != nil {
		own := b.ops[0].own
		own.Retain() // fresh reference for the driver; ours releases in complete
		ds.q.WriteOwned(zs.id, b.off, 1, data, b.oobVec(), b.ops[0].tag, own, b.done)
		return
	}
	ds.q.Write(zs.id, b.off, n, data, b.oobVec(), b.ops[0].tag, b.done)
}

// complete is the device completion of a dispatched batch: it slides the
// zone's window state, tells every op's record, and recycles what the
// command carried. The device copied payload and OOB at submission (or
// holds its own references), so the gather buffer, the OOB records, owned
// payloads and the record itself all go back here.
func (b *appendBatch) complete(r zns.WriteResult) {
	if !b.live {
		panic("core: batch record used after put")
	}
	zs := b.zs
	ds := zs.ds
	c := ds.c
	zs.inflight--
	c.acct.Charge(cpumodel.CompIO, cpumodel.CostCompletion)
	if b.inplace {
		zs.unpin(b.off)
	} else {
		for i := range b.ops {
			ds.markDone(zs, b.off+int64(i))
		}
	}
	c.observeLatency(ds, zs, r)
	for i := range b.ops {
		b.ops[i].done.ioDone(r.Err)
	}
	for i := range b.ops {
		op := &b.ops[i]
		c.pool.Free(op.oob)
		if op.ownData {
			c.pool.Free(op.data)
		}
		buf.Release(op.own)
	}
	c.pool.Free(b.gather)
	c.putBatch(b)
	ds.drain(zs)
	ds.maybeFinish(zs)
}

// markDone advances the completed prefix over contiguous finished appends.
func (ds *devState) markDone(zs *zoneState, off int64) {
	if off != zs.donePrefix {
		zs.doneSet[off>>6] |= 1 << (off & 63)
		return
	}
	zs.donePrefix++
	for zs.donePrefix < ds.c.zoneBlocks && zs.slotDone(zs.donePrefix) {
		zs.donePrefix++
	}
}

// unpin releases one in-place window pin taken at admission time without
// a dispatch (the aborted read-modify-write path), letting parked batches
// slide the window again and a filled zone finish.
func (c *Core) unpin(p pa) {
	ds := c.devs[p.dev]
	zs := ds.zones[p.zone]
	if zs == nil {
		return
	}
	if zs.unpin(p.off) {
		ds.drain(zs)
		ds.maybeFinish(zs)
	}
}

// drain releases queued batches that now fit entirely inside the window.
func (ds *devState) drain(zs *zoneState) {
	for zs.pendq.Len() > 0 && ds.canAppend(zs, zs.pendq.Peek().end()-1) {
		ds.dispatchBatch(zs, zs.pendq.Pop())
	}
}

// maybeFinish seals a fully allocated, fully completed zone: FINISH flushes
// the ZRWA tail, releases the open slot, and retries parked allocations. A
// pinned slot is an in-place update still reading its old content; it
// writes once the reads are back, so the zone waits for it.
func (ds *devState) maybeFinish(zs *zoneState) {
	if zs.sealedF || zs.wpAlloc < ds.c.zoneBlocks || zs.inflight > 0 ||
		zs.pendq.Len() > 0 || zs.stage != nil || zs.ipPins > 0 {
		return
	}
	zs.sealedF = true
	if err := ds.q.Device().Finish(zs.id); err == nil {
		ds.fullZones = append(ds.fullZones, zs.id)
	}
	ds.c.maybeStartGC(ds)
	ds.c.runAllocWaiters()
}

// retireZone detaches a filled zone from its group (it seals itself once
// its in-flight writes drain).
func (ds *devState) retireZone(zs *zoneState) {
	ds.maybeFinish(zs)
}

// freeZone returns a collected zone to the pool.
func (ds *devState) freeZone(z int) {
	ds.zones[z] = nil
	for i, fz := range ds.fullZones {
		if fz == z {
			ds.fullZones = append(ds.fullZones[:i], ds.fullZones[i+1:]...)
			break
		}
	}
	ds.freeZones = append(ds.freeZones, z)
	for ds.stalled.Len() > 0 && (len(ds.freeZones) > ds.c.stallFloor() || ds.pickVictim() < 0) {
		ds.c.appendChunk(ds.stalled.Pop())
	}
	ds.c.runAllocWaiters()
}

// runAllocWaiters retries work parked on transient allocation failures
// (open-zone slots exhausted while retired zones drained).
func (c *Core) runAllocWaiters() {
	for i, ch := range c.allocWaiters {
		c.eng.AfterEvent(0, ch, fireAppend, 0)
		c.allocWaiters[i] = nil
	}
	c.allocWaiters = c.allocWaiters[:0]
}

// pickVictim returns the full zone with the least valid chunks, or -1.
func (ds *devState) pickVictim() int {
	best, bestValid := -1, int64(1)<<62
	for _, z := range ds.fullZones {
		zs := ds.zones[z]
		if zs == nil || zs.inflight > 0 {
			continue
		}
		if zs.valid < bestValid {
			best, bestValid = z, zs.valid
		}
	}
	return best
}

func (c *Core) stallFloor() int {
	f := c.cfg.GCLowWater / 2
	if f < 2 {
		f = 2
	}
	return f
}
