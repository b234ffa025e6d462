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
	"biza/internal/metrics"
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
	op := zones / 8
	if op < 4 {
		op = 4
	}
	low := op/2 + 1
	if low < 3 {
		low = 3
	}
	high := op - 1
	if high <= low {
		high = low + 1
	}
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

type zoneState uint8

const (
	zsFree zoneState = iota
	zsOpen
	zsFull
)

type loc struct {
	zone int
	off  int64
}

type pending struct {
	lba      int64
	off      int64 // zone offset assigned at enqueue (FIFO per zone)
	data     []byte
	tag      zns.WriteTag
	enqueued sim.Time
	done     func(zns.WriteResult)
}

type zoneInfo struct {
	state zoneState
	wp    int64
	valid int64
	rmap  []int64 // offset -> lba, -1 invalid
	busy  bool    // one in-flight write
	queue []pending
}

// Adapter exposes a block device over a zoned backend. It implements
// blockdev.Device.
type Adapter struct {
	cfg     Config
	backend zoneapi.Backend
	eng     *sim.Engine
	acct    *cpumodel.Accountant

	l2z       []loc
	zones     []zoneInfo
	openRing  []int
	gcZone    int // dedicated GC destination zone (separate from the ring)
	rr        int
	freeZones []int
	gcRunning bool
	stalled   []pending // user writes parked at the free-zone cliff

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
	a := &Adapter{
		cfg:        cfg,
		backend:    backend,
		eng:        backend.Engine(),
		acct:       acct,
		l2z:        make([]loc, logicalBlocks),
		zones:      make([]zoneInfo, zones),
		storesData: zoneapi.StoresData(backend),
	}
	for i := range a.l2z {
		a.l2z[i] = loc{zone: -1}
	}
	for i := range a.zones {
		a.freeZones = append(a.freeZones, i)
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
func (a *Adapter) Blocks() int64 { return int64(len(a.l2z)) }

// GCEvents reports completed victim collections.
func (a *Adapter) GCEvents() uint64 { return a.gcEvents }

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
	if len(a.freeZones) == 0 {
		full, busyN, queued := 0, 0, 0
		for i := range a.zones {
			zi := &a.zones[i]
			if zi.state == zsFull {
				full++
				if zi.busy {
					busyN++
				}
				if len(zi.queue) > 0 {
					queued++
				}
			}
		}
		panic(fmt.Sprintf("dmzap: out of free zones — full=%d busy=%d queued=%d stalled=%d gc=%v victim=%d",
			full, busyN, queued, len(a.stalled), a.gcRunning, a.pickVictim()))
	}
	z := a.freeZones[0]
	a.freeZones = a.freeZones[1:]
	zi := &a.zones[z]
	zi.state = zsOpen
	zi.wp = 0
	zi.valid = 0
	if zi.rmap == nil {
		zi.rmap = make([]int64, a.backend.ZoneBlocks())
	}
	for i := range zi.rmap {
		zi.rmap[i] = -1
	}
	return z
}

// Write implements blockdev.Device: splits the request into blocks,
// appends each to the next open zone (round-robin), one in flight per zone.
func (a *Adapter) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	start := a.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > a.Blocks() {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.WriteResult{Err: blockdev.ErrOutOfRange, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	bs := int64(a.BlockSize())
	a.userBytes += uint64(nblocks) * uint64(bs)
	remaining := nblocks
	var firstErr error
	for i := 0; i < nblocks; i++ {
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : int64(i+1)*bs]
		}
		a.writeBlock(lba+int64(i), payload, zns.TagUserData, func(r zns.WriteResult) {
			if r.Err != nil && firstErr == nil {
				firstErr = r.Err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(blockdev.WriteResult{Err: firstErr, Latency: a.eng.Now() - start})
			}
		})
	}
}

// writeBlock appends one block to an open zone and updates the mapping on
// completion. User writes stall at the free-zone cliff so GC migration
// always has zones to move data into; GC's own writes bypass the stall.
func (a *Adapter) writeBlock(lba int64, data []byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	if tag == zns.TagUserData && len(a.freeZones) <= a.stallFloor() && a.pickVictim() >= 0 {
		a.stalled = append(a.stalled, pending{lba: lba, data: data, tag: tag, enqueued: a.eng.Now(), done: done})
		a.maybeStartGC()
		return
	}
	a.acct.Charge(cpumodel.CompDmzap, cpumodel.CostMapUpdate)
	a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
	var z int
	if tag == zns.TagGCData {
		// Migration writes fill the dedicated GC zone so one collection
		// can retire at most one fresh zone, keeping reclaim net-positive.
		if a.zones[a.gcZone].wp >= a.backend.ZoneBlocks() {
			a.zones[a.gcZone].state = zsFull
			a.gcZone = a.takeFree()
		}
		z = a.gcZone
	} else {
		z = a.pickZone()
	}
	zi := &a.zones[z]
	off := zi.wp
	zi.wp++
	// Install the mapping immediately (dm-zap updates its table before
	// submission; the serialized dispatch makes this safe).
	if old := a.l2z[lba]; old.zone >= 0 {
		ozi := &a.zones[old.zone]
		if ozi.rmap[old.off] == lba {
			ozi.rmap[old.off] = -1
			ozi.valid--
		}
	}
	a.l2z[lba] = loc{zone: z, off: off}
	zi.rmap[off] = lba
	zi.valid++
	if zi.wp >= a.backend.ZoneBlocks() && z != a.gcZone {
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
	a.zones[z].state = zsFull
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
	zi := &a.zones[z]
	if zi.busy {
		zi.queue = append(zi.queue, p)
		return
	}
	zi.busy = true
	a.submit(z, p)
}

func (a *Adapter) submit(z int, p pending) {
	zi := &a.zones[z]
	if wait := a.eng.Now() - p.enqueued; wait > 0 {
		// The real adapter spins while the zone lock is held.
		a.acct.Charge(cpumodel.CompDmzap, wait)
	}
	// The offset was assigned at enqueue time in FIFO order, so delivery
	// order equals offset order; with one write in flight the sequential
	// rule cannot be violated. A block superseded while queued still writes
	// its reserved offset (keeping the zone sequential); the mapping table
	// already points at the newer copy.
	a.backend.Write(z, p.off, 1, p.data, p.tag, func(r zns.WriteResult) {
		if p.done != nil {
			p.done(r)
		}
		if len(zi.queue) > 0 {
			next := zi.queue[0]
			zi.queue = zi.queue[1:]
			a.submit(z, next)
			return
		}
		zi.busy = false
	})
}

// Read implements blockdev.Device, splitting across zones as needed and
// coalescing contiguous runs within one zone.
func (a *Adapter) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	start := a.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > a.Blocks() {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Err: blockdev.ErrOutOfRange, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	bs := int64(a.BlockSize())
	var buf []byte
	if a.storesData {
		buf = make([]byte, int64(nblocks)*bs)
	}
	remaining := 0
	var firstErr error
	finishOne := func() {
		remaining--
		if remaining == 0 && done != nil {
			done(blockdev.ReadResult{Err: firstErr, Data: buf, Latency: a.eng.Now() - start})
		}
	}
	// Build contiguous (zone, offset) runs.
	type run struct {
		zone    int
		off     int64
		blocks  int
		bufBase int64
	}
	var runs []run
	for i := 0; i < nblocks; i++ {
		l := a.l2z[lba+int64(i)]
		if l.zone < 0 {
			continue // unmapped reads as zeros
		}
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if last.zone == l.zone && last.off+int64(last.blocks) == l.off &&
				last.bufBase+int64(last.blocks)*bs == int64(i)*bs {
				last.blocks++
				continue
			}
		}
		runs = append(runs, run{zone: l.zone, off: l.off, blocks: 1, bufBase: int64(i) * bs})
	}
	if len(runs) == 0 {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Data: buf, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	remaining = len(runs)
	for _, r := range runs {
		r := r
		a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		a.backend.Read(r.zone, r.off, r.blocks, func(res zns.ReadResult) {
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
			}
			if res.Data != nil {
				copy(buf[r.bufBase:], res.Data)
			}
			finishOne()
		})
	}
}

// Trim implements blockdev.Device.
func (a *Adapter) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		l := a.l2z[lba+i]
		if l.zone < 0 {
			continue
		}
		zi := &a.zones[l.zone]
		if zi.rmap[l.off] == lba+i {
			zi.rmap[l.off] = -1
			zi.valid--
		}
		a.l2z[lba+i] = loc{zone: -1}
	}
}

// maybeStartGC launches the collector below the low watermark, or
// whenever user writes are parked at the cliff.
func (a *Adapter) maybeStartGC() {
	if a.gcRunning {
		return
	}
	if len(a.freeZones) >= a.cfg.GCLowWater && len(a.stalled) == 0 {
		return
	}
	a.gcRunning = true
	a.eng.After(0, a.gcStep)
}

// gcStep migrates the valid blocks of the fullest-invalid zone through the
// normal write path — interfering with user I/O exactly as the paper
// complains — then resets the victim.
func (a *Adapter) gcStep() {
	if len(a.freeZones) >= a.cfg.GCHighWater && len(a.stalled) == 0 {
		a.gcRunning = false
		return
	}
	victim := a.pickVictim()
	if victim < 0 {
		a.gcRunning = false
		return
	}
	a.gcEvents++
	zi := &a.zones[victim]
	var lbas []int64
	for off := int64(0); off < zi.wp; off++ {
		if l := zi.rmap[off]; l >= 0 {
			lbas = append(lbas, l)
		}
	}
	finish := func() {
		a.backend.Reset(victim, func(error) {
			zi.state = zsFree
			zi.wp = 0
			a.freeZones = append(a.freeZones, victim)
			for len(a.stalled) > 0 && (len(a.freeZones) > a.stallFloor() || a.pickVictim() < 0) {
				p := a.stalled[0]
				a.stalled = a.stalled[1:]
				a.writeBlock(p.lba, p.data, p.tag, p.done)
			}
			a.eng.After(0, a.gcStep)
		})
	}
	if len(lbas) == 0 {
		finish()
		return
	}
	remaining := len(lbas)
	bs := int64(a.BlockSize())
	for _, l := range lbas {
		l := l
		cur := a.l2z[l]
		if cur.zone != victim {
			// Overwritten since scan; nothing to move.
			remaining--
			if remaining == 0 {
				finish()
			}
			continue
		}
		a.backend.Read(victim, cur.off, 1, func(res zns.ReadResult) {
			// Re-check: a user write may have superseded this block while
			// the read was in flight; migrating then would resurrect stale
			// data over the newer copy.
			if a.l2z[l] != cur {
				remaining--
				if remaining == 0 {
					finish()
				}
				return
			}
			a.migratedBytes += uint64(bs)
			a.writeBlock(l, res.Data, zns.TagGCData, func(zns.WriteResult) {
				remaining--
				if remaining == 0 {
					finish()
				}
			})
		})
	}
}

// pickVictim returns the full zone with the fewest valid blocks. Zones
// with writes still queued or in flight are not collectible: migrating
// them would read stale data and the reset would race the tail writes.
func (a *Adapter) pickVictim() int {
	best, bestValid := -1, int64(1)<<62
	for i := range a.zones {
		zi := &a.zones[i]
		if zi.state != zsFull || zi.busy || len(zi.queue) > 0 {
			continue
		}
		if zi.valid < bestValid {
			best, bestValid = i, zi.valid
		}
	}
	return best
}

// ResetAccounting zeroes adapter-level traffic counters.
func (a *Adapter) ResetAccounting() {
	a.userBytes, a.migratedBytes, a.gcEvents = 0, 0, 0
}
