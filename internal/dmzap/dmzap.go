// Package dmzap implements the dm-zap block-to-ZNS adapter the paper uses
// as its compatibility baseline (§2.3): a host-side translation layer that
// maps logical block addresses to (zone, offset) pairs, appends incoming
// blocks to open zones, and garbage-collects full zones.
//
// Two deliberate weaknesses of the real dm-zap are reproduced faithfully,
// because the paper's analysis hinges on them:
//
//   - one in-flight write per zone, enforced with a (modeled) spin lock:
//     writes to a busy zone wait for the previous completion, wasting both
//     intra-zone parallelism (Fig. 5) and host CPU (Fig. 17);
//   - lifetime-oblivious placement: blocks are appended round-robin to
//     whichever zone is open, muddling hot and cold data in the same zones
//     and inflating GC migration (§2.3's 33-55% extra flash writes).
//
// Per §5.1 the adapter is "revised to write all open zones in parallel"
// (the original used a single zone); Config.OpenZones controls the fan-out.
package dmzap

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/cpumodel"
	"biza/internal/fifo"
	"biza/internal/metrics"
	"biza/internal/raid"
	"biza/internal/sim"
	"biza/internal/zns"
	"biza/internal/zoneapi"
)

// Config tunes the adapter.
type Config struct {
	// OpenZones is how many zones accept writes in parallel.
	OpenZones int
	// GCLowWater / GCHighWater are free-zone watermarks.
	GCLowWater  int
	GCHighWater int
	// OverProvisionZones are zones withheld from logical capacity so GC
	// always has headroom.
	OverProvisionZones int
}

// DefaultConfig sizes the adapter for a backend with the given zone count
// and open-zone limit.
func DefaultConfig(zones, maxOpen int) Config {
	op, low, high := raid.Watermarks(zones)
	// Open-zone budget: each ring zone can briefly coexist with its
	// draining predecessor when it fills (and the whole ring fills nearly
	// simultaneously under round-robin placement), and the GC zone has the
	// same retirement transient — so the ring gets (maxOpen-2)/2 slots.
	openZones := (maxOpen - 2) / 2
	if openZones < 1 {
		openZones = 1
	}
	return Config{
		OpenZones:          openZones,
		GCLowWater:         low,
		GCHighWater:        high,
		OverProvisionZones: op,
	}
}

// pending is one block on its way into a zone: parked on stalled, then
// queued for its zone.
type pending struct {
	lba      int64
	off      int64 // zone offset assigned at enqueue (FIFO per zone)
	data     []byte
	tag      zns.WriteTag
	enqueued sim.Time
	done     func(zns.WriteResult)
}

// zoneQueue serializes the writes of one zone. With one write in flight
// per zone the zone itself is that write's record: it keeps the owner's
// callback and is the backend's completion target (onDone, bound once).
type zoneQueue struct {
	a      *Adapter
	z      int
	busy   bool                  // one in-flight write
	done   func(zns.WriteResult) // its owner
	onDone func(zns.WriteResult) // zq.complete
	queue  fifo.Queue[pending]
}

// writeReq is one block-interface Write: its blocks report to the fan-in
// it carries, whose last answers the caller. Recycled; put back before the
// caller's callback runs.
type writeReq struct {
	a       *Adapter
	live    bool
	start   sim.Time
	done    func(blockdev.WriteResult)
	f       sim.FanIn
	onBlock func(zns.WriteResult) // w.blockDone
	onAll   func(error)           // w.finish
}

// readReq is one block-interface Read: runs are its backend reads,
// parts[i] the completion slot of runs[i] (slots, like both slices'
// capacity, are kept across reuse). It is also the event that answers a
// read of nothing mapped. Put back before the caller's callback runs.
type readReq struct {
	a     *Adapter
	live  bool
	start sim.Time
	done  func(blockdev.ReadResult)
	buf   []byte // the result; nil when the backend stores no data
	f     sim.FanIn
	runs  blockdev.Runs
	parts []*readPart
	onAll func(error) // rd.finish
}

// readPart is the completion slot of one run: where in the result its
// blocks land.
type readPart struct {
	rd     *readReq
	at     int64                // byte offset in rd.buf
	onDone func(zns.ReadResult) // p.complete
}

// Adapter exposes a block device over a zoned backend. It implements
// blockdev.Device.
type Adapter struct {
	cfg     Config
	backend zoneapi.Backend
	eng     *sim.Engine
	acct    *cpumodel.Accountant

	log       *raid.ZoneLog // mapping, valid counts, free list (one unit)
	zones     []zoneQueue
	order     []int // every zone, by number: the victim tie-break
	openRing  []int
	gcZone    int // dedicated GC destination zone (separate from the ring)
	rr        int
	gcRunning bool
	stalled   fifo.Queue[pending] // user writes parked at the free-zone cliff

	// Recycled request records and how many of each were ever made.
	writeFree []*writeReq
	readFree  []*readReq
	made      struct{ write, read int }

	storesData bool // backend retains payloads (cached at New)

	userBytes     uint64
	migratedBytes uint64
	gcEvents      uint64
}

// New builds an adapter over backend. acct may be nil.
func New(backend zoneapi.Backend, cfg Config, acct *cpumodel.Accountant) (*Adapter, error) {
	zones := backend.Zones()
	if cfg.OpenZones < 1 || cfg.OpenZones > backend.MaxOpenZones() {
		return nil, fmt.Errorf("dmzap: OpenZones %d outside [1,%d]", cfg.OpenZones, backend.MaxOpenZones())
	}
	if cfg.OverProvisionZones < 1 || cfg.OverProvisionZones >= zones {
		return nil, fmt.Errorf("dmzap: OverProvisionZones %d with %d zones", cfg.OverProvisionZones, zones)
	}
	if cfg.GCLowWater < 1 || cfg.GCHighWater <= cfg.GCLowWater {
		return nil, fmt.Errorf("dmzap: bad GC watermarks %d/%d", cfg.GCLowWater, cfg.GCHighWater)
	}
	if acct == nil {
		acct = &cpumodel.Accountant{}
	}
	logicalBlocks := int64(zones-cfg.OverProvisionZones) * backend.ZoneBlocks()
	log, err := raid.NewZoneLog(1, zones, backend.ZoneBlocks(), logicalBlocks)
	if err != nil {
		return nil, fmt.Errorf("dmzap: %w", err)
	}
	a := &Adapter{
		cfg:        cfg,
		backend:    backend,
		eng:        backend.Engine(),
		acct:       acct,
		log:        log,
		zones:      make([]zoneQueue, zones),
		order:      make([]int, zones),
		storesData: blockdev.StoresData(backend),
	}
	for z := range a.order {
		a.order[z] = z
		zq := &a.zones[z]
		zq.a, zq.z, zq.onDone = a, z, zq.complete
	}
	for i := 0; i < cfg.OpenZones; i++ {
		a.openRing = append(a.openRing, a.takeFree())
	}
	a.gcZone = a.takeFree()
	return a, nil
}

// BlockSize implements blockdev.Device.
func (a *Adapter) BlockSize() int { return a.backend.BlockSize() }

// StoresData implements blockdev.DataStorer: reads return payloads only
// when the zoned backend retains them.
func (a *Adapter) StoresData() bool { return a.storesData }

// Blocks implements blockdev.Device.
func (a *Adapter) Blocks() int64 { return a.log.Blocks() }

// WriteAmp reports adapter-level accounting: user bytes in versus user plus
// GC-migrated bytes pushed to the backend. Flash-level truth lives in the
// backend device counters.
func (a *Adapter) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:       a.userBytes,
		FlashDataBytes:  a.userBytes + a.migratedBytes,
		GCMigratedBytes: a.migratedBytes,
	}
}

// stallFloor is the free-zone count at which user writes park so GC keeps
// migration headroom (a collection can consume up to two zones before its
// victim's reset lands).
func (a *Adapter) stallFloor() int {
	f := a.cfg.GCLowWater / 2
	if f < 2 {
		f = 2
	}
	// The floor must sit strictly below the GC trigger, or writes park at
	// a level where collection never starts.
	if f >= a.cfg.GCLowWater {
		f = a.cfg.GCLowWater - 1
	}
	return f
}

func (a *Adapter) takeFree() int {
	z, ok := a.log.Take(0)
	if !ok {
		panic(fmt.Sprintf("dmzap: out of free zones — stalled=%d gc=%v victim=%d",
			a.stalled.Len(), a.gcRunning, a.victim()))
	}
	return z
}

func (a *Adapter) getWrite() *writeReq {
	n := len(a.writeFree)
	if n == 0 {
		a.made.write++
		w := &writeReq{a: a, live: true}
		w.onBlock, w.onAll = w.blockDone, w.finish
		return w
	}
	w := a.writeFree[n-1]
	a.writeFree = a.writeFree[:n-1]
	w.live = true
	return w
}

func (a *Adapter) putWrite(w *writeReq) {
	if !w.live {
		panic("dmzap: write record put twice")
	}
	*w = writeReq{a: a, onBlock: w.onBlock, onAll: w.onAll}
	a.writeFree = append(a.writeFree, w)
}

func (a *Adapter) getRead() *readReq {
	n := len(a.readFree)
	if n == 0 {
		a.made.read++
		rd := &readReq{a: a, live: true}
		rd.onAll = rd.finish
		return rd
	}
	rd := a.readFree[n-1]
	a.readFree = a.readFree[:n-1]
	rd.live = true
	return rd
}

func (a *Adapter) putRead(rd *readReq) {
	if !rd.live {
		panic("dmzap: read record put twice")
	}
	*rd = readReq{a: a, runs: rd.runs[:0], parts: rd.parts, onAll: rd.onAll}
	a.readFree = append(a.readFree, rd)
}

// Write implements blockdev.Device: splits the request into blocks,
// appends each to the next open zone (round-robin), one in flight per zone.
func (a *Adapter) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	if !blockdev.CheckWrite(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	bs := int64(a.BlockSize())
	a.userBytes += uint64(nblocks) * uint64(bs)
	w := a.getWrite()
	w.start, w.done = a.eng.Now(), done
	w.f.Arm(w.onAll)
	w.f.Add(nblocks)
	for i := 0; i < nblocks; i++ {
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : int64(i+1)*bs]
		}
		a.writeBlock(lba+int64(i), payload, zns.TagUserData, w.onBlock)
	}
	w.f.Seal()
}

func (w *writeReq) blockDone(r zns.WriteResult) {
	if !w.live {
		panic("dmzap: write record used after put")
	}
	w.f.Done(r.Err)
}

func (w *writeReq) finish(err error) {
	a := w.a
	done, res := w.done, blockdev.WriteResult{Err: err, Latency: a.eng.Now() - w.start}
	a.putWrite(w)
	if done != nil {
		done(res)
	}
}

// writeBlock appends one block to an open zone and updates the mapping on
// completion. User writes stall at the free-zone cliff so GC migration
// always has zones to move data into; GC's own writes bypass the stall.
func (a *Adapter) writeBlock(lba int64, data []byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	if tag == zns.TagUserData && a.log.FreeZones(0) <= a.stallFloor() && a.victim() >= 0 {
		a.stalled.Push(pending{lba: lba, data: data, done: done})
		a.maybeStartGC()
		return
	}
	a.acct.Charge(cpumodel.CompDmzap, cpumodel.CostMapUpdate)
	a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
	var z int
	if tag == zns.TagGCData {
		// Migration writes fill the dedicated GC zone so one collection
		// can retire at most one fresh zone, keeping reclaim net-positive.
		if a.log.Full(a.gcZone) {
			a.log.Retire(a.gcZone)
			a.gcZone = a.takeFree()
		}
		z = a.gcZone
	} else {
		z = a.pickZone()
	}
	off := a.log.Reserve(z)
	// Install the mapping immediately (dm-zap updates its table before
	// submission; the serialized dispatch makes this safe).
	a.log.Map(lba, z, off)
	if a.log.Full(z) && z != a.gcZone {
		a.retireZone(z)
	}
	a.dispatch(z, pending{lba: lba, off: off, data: data, tag: tag, enqueued: a.eng.Now(), done: done})
}

// pickZone returns the next open zone in round-robin order.
func (a *Adapter) pickZone() int {
	z := a.openRing[a.rr%len(a.openRing)]
	a.rr++
	return z
}

// retireZone replaces a filled zone in the open ring with a fresh one.
func (a *Adapter) retireZone(z int) {
	a.log.Retire(z)
	for i, oz := range a.openRing {
		if oz == z {
			a.openRing[i] = a.takeFree()
			break
		}
	}
	a.maybeStartGC()
}

// dispatch enforces the one-in-flight-per-zone rule. Waiting time is
// charged to the dm-zap component as spin-lock CPU, matching §5.7's
// finding that the lock dominates dm-zap's CPU cost.
func (a *Adapter) dispatch(z int, p pending) {
	zq := &a.zones[z]
	if zq.busy {
		zq.queue.Push(p)
		return
	}
	zq.busy = true
	zq.submit(p)
}

func (zq *zoneQueue) submit(p pending) {
	a := zq.a
	if wait := a.eng.Now() - p.enqueued; wait > 0 {
		// The real adapter spins while the zone lock is held.
		a.acct.Charge(cpumodel.CompDmzap, wait)
	}
	// The offset was assigned at enqueue time in FIFO order, so delivery
	// order equals offset order; with one write in flight the sequential
	// rule cannot be violated. A block superseded while queued still writes
	// its reserved offset (keeping the zone sequential); the mapping table
	// already points at the newer copy.
	zq.done = p.done
	a.backend.Write(zq.z, p.off, 1, p.data, p.tag, zq.onDone)
}

// complete is the backend's answer for the zone's write in flight: tell
// its owner, then submit the next block queued for the zone.
func (zq *zoneQueue) complete(r zns.WriteResult) {
	if !zq.busy {
		panic("dmzap: completion for a zone with no write in flight")
	}
	if done := zq.done; done != nil {
		zq.done = nil
		done(r)
	}
	if zq.queue.Len() > 0 {
		zq.submit(zq.queue.Pop())
		return
	}
	zq.busy = false
}

// Read implements blockdev.Device, splitting across zones as needed and
// coalescing contiguous runs within one zone.
func (a *Adapter) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	if !blockdev.CheckRead(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	bs := int64(a.BlockSize())
	rd := a.getRead()
	rd.start, rd.done = a.eng.Now(), done
	if a.storesData {
		rd.buf = make([]byte, int64(nblocks)*bs)
	}
	for i := 0; i < nblocks; i++ {
		if l := a.log.At(lba + int64(i)); l.Zone >= 0 { // unmapped reads as zeros
			rd.runs.Add(l.Zone, l.Off, i)
		}
	}
	if len(rd.runs) == 0 {
		// Nothing to read: the record is the event that answers, a
		// microsecond on. Nobody to tell schedules nothing.
		if done == nil {
			a.putRead(rd)
			return
		}
		a.eng.AfterEvent(sim.Microsecond, rd, 0, 0)
		return
	}
	for len(rd.parts) < len(rd.runs) {
		p := &readPart{rd: rd}
		p.onDone = p.complete
		rd.parts = append(rd.parts, p)
	}
	rd.f.Arm(rd.onAll)
	rd.f.Add(len(rd.runs))
	for i, r := range rd.runs {
		p := rd.parts[i]
		p.at = int64(r.At) * bs
		a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		a.backend.Read(r.Unit, r.Off, r.Blocks, p.onDone)
	}
	rd.f.Seal()
}

// Fire implements sim.Handler for the read that issued nothing.
func (rd *readReq) Fire(_, _ sim.Time) { rd.finish(nil) }

func (p *readPart) complete(res zns.ReadResult) {
	rd := p.rd
	if !rd.live {
		panic("dmzap: read record used after put")
	}
	if res.Data != nil {
		copy(rd.buf[p.at:], res.Data)
	}
	rd.f.Done(res.Err)
}

func (rd *readReq) finish(err error) {
	a := rd.a
	done, res := rd.done, blockdev.ReadResult{Err: err, Data: rd.buf, Latency: a.eng.Now() - rd.start}
	a.putRead(rd)
	if done != nil {
		done(res)
	}
}

// Trim implements blockdev.Device.
func (a *Adapter) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		a.log.Unmap(lba + i)
	}
}

// maybeStartGC launches the collector below the low watermark, or
// whenever user writes are parked at the cliff.
func (a *Adapter) maybeStartGC() {
	if a.gcRunning {
		return
	}
	if a.log.FreeZones(0) >= a.cfg.GCLowWater && a.stalled.Len() == 0 {
		return
	}
	a.gcRunning = true
	a.eng.After(0, a.gcStep)
}

// gcStep migrates the valid blocks of the fullest-invalid zone through the
// normal write path — interfering with user I/O exactly as the paper
// complains — then resets the victim.
func (a *Adapter) gcStep() {
	if a.log.FreeZones(0) >= a.cfg.GCHighWater && a.stalled.Len() == 0 {
		a.gcRunning = false
		return
	}
	victim := a.victim()
	if victim < 0 {
		a.gcRunning = false
		return
	}
	a.gcEvents++
	finish := func(error) {
		a.backend.Reset(victim, func(error) {
			a.log.Release(victim)
			for a.stalled.Len() > 0 && (a.log.FreeZones(0) > a.stallFloor() || a.victim() < 0) {
				p := a.stalled.Pop()
				a.writeBlock(p.lba, p.data, zns.TagUserData, p.done)
			}
			a.eng.After(0, a.gcStep)
		})
	}
	f := sim.NewFanIn(finish)
	migrated := func(zns.WriteResult) { f.Done(nil) }
	bs := uint64(a.BlockSize())
	for _, l := range a.log.Live(victim) {
		cur := a.log.At(l)
		f.Add(1)
		a.backend.Read(victim, cur.Off, 1, func(res zns.ReadResult) {
			// Re-check: a user write may have superseded this block while
			// the read was in flight; migrating then would resurrect stale
			// data over the newer copy.
			if a.log.At(l) != cur {
				f.Done(nil)
				return
			}
			a.migratedBytes += bs
			a.writeBlock(l, res.Data, zns.TagGCData, migrated)
		})
	}
	if f.Seal() == 0 {
		finish(nil)
	}
}

// victim returns the full zone with the fewest valid blocks. Zones
// with writes still queued or in flight are not collectible: migrating
// them would read stale data and the reset would race the tail writes.
func (a *Adapter) victim() int {
	return a.log.PickVictim(a.order, func(z int) bool {
		return !a.zones[z].busy && a.zones[z].queue.Len() == 0
	})
}

// ResetAccounting zeroes adapter-level traffic counters.
func (a *Adapter) ResetAccounting() {
	a.userBytes, a.migratedBytes, a.gcEvents = 0, 0, 0
}
