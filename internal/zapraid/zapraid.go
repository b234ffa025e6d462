// Package zapraid implements an append-based ZNS RAID in the style of
// ZapRAID (Wang & Lee, APSys '23) — the design alternative the paper
// discusses in §3.2 and §6: exploit intra-zone parallelism with ZONE
// APPEND commands instead of ZRWA. Appends parallelize freely (the device
// assigns offsets, so reordering cannot fail), but the NVMe specification
// makes APPEND and ZRWA mutually exclusive — so every overwrite costs a
// flash write and partial parities cannot be absorbed. The `append`
// experiment quantifies exactly that trade against BIZA.
package zapraid

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/erasure"
	"biza/internal/metrics"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/zns"
)

// Config tunes the engine.
type Config struct {
	// OpenZonesPerDevice is how many zones accept appends concurrently.
	OpenZonesPerDevice int
	// GCLowWater / GCHighWater are per-device free-zone watermarks.
	GCLowWater  int
	GCHighWater int
}

// DefaultConfig sizes the engine for the device zone count.
func DefaultConfig(zonesPerDevice int) Config {
	op := zonesPerDevice / 8
	if op < 4 {
		op = 4
	}
	low := op/2 + 1
	if low < 3 {
		low = 3
	}
	return Config{OpenZonesPerDevice: 2, GCLowWater: low, GCHighWater: op - 1}
}

type pa struct {
	dev  int
	zone int
	off  int64
}

var paNone = pa{dev: -1}

type zoneState struct {
	id       int
	appended int64 // blocks appended (upper bound on next assigned LBA)
	valid    int64
	rmap     []int64 // off -> lbn (live data), -1 otherwise
	inflight int
}

type devState struct {
	q         *nvme.Queue
	open      []*zoneState
	rr        int
	free      []int
	full      []int
	zones     []*zoneState
	gcRunning bool
}

// stripeBuf gathers chunks of the forming stripe in host DRAM.
type stripeBuf struct {
	lbns []int64
	data [][]byte
	acc  []byte
}

// Array is the append-based engine. It implements blockdev.Device.
type Array struct {
	cfg   Config
	eng   *sim.Engine
	devs  []*devState
	coder *erasure.Coder
	nData int

	blockSize  int
	zoneBlocks int64

	bmt map[int64]pa // logical block -> chunk location
	cur *stripeBuf
	rot int

	userBytes   uint64
	parityBytes uint64
	gcMigrated  uint64
	gcEvents    uint64
	stalled     []func()

	// Stripe-forming state recycles: steady-state stripe writes reuse one
	// stripeBuf record and one pooled parity accumulator per stripe slot.
	sbFree []*stripeBuf
	pool   *buf.Pool

	tr *obs.Trace
}

// getSB returns a pooled (emptied) stripe buffer.
func (a *Array) getSB() *stripeBuf {
	if n := len(a.sbFree); n > 0 {
		sb := a.sbFree[n-1]
		a.sbFree = a.sbFree[:n-1]
		return sb
	}
	return &stripeBuf{}
}

// putSB recycles a stripe buffer and its accumulator.
func (a *Array) putSB(sb *stripeBuf) {
	sb.lbns = sb.lbns[:0]
	for i := range sb.data {
		sb.data[i] = nil
	}
	sb.data = sb.data[:0]
	a.pool.Free(sb.acc)
	sb.acc = nil
	a.sbFree = append(a.sbFree, sb)
}

// SetTracer attaches an observability trace: array-level spans cover each
// block-interface Write/Read end to end, and GC victim selections are
// logged as typed events.
func (a *Array) SetTracer(tr *obs.Trace) { a.tr = tr }

// New builds the array over member queues (ZNS devices, no ZRWA use).
func New(queues []*nvme.Queue, cfg Config) (*Array, error) {
	if len(queues) < 3 {
		return nil, fmt.Errorf("zapraid: need >= 3 members")
	}
	base := queues[0].Device().Config()
	coder, err := erasure.NewCoder(len(queues)-1, 1)
	if err != nil {
		return nil, err
	}
	a := &Array{
		cfg:        cfg,
		eng:        queues[0].Device().Engine(),
		coder:      coder,
		nData:      len(queues) - 1,
		blockSize:  base.BlockSize,
		zoneBlocks: base.ZoneBlocks,
		bmt:        make(map[int64]pa),
		pool:       buf.NewPool(),
	}
	for _, q := range queues {
		ds := &devState{q: q, zones: make([]*zoneState, q.Device().Config().NumZones)}
		for z := 0; z < len(ds.zones); z++ {
			ds.free = append(ds.free, z)
		}
		for i := 0; i < cfg.OpenZonesPerDevice; i++ {
			zs, err := a.openZone(ds)
			if err != nil {
				return nil, err
			}
			ds.open = append(ds.open, zs)
		}
		a.devs = append(a.devs, ds)
	}
	return a, nil
}

func (a *Array) openZone(ds *devState) (*zoneState, error) {
	if len(ds.free) == 0 {
		return nil, fmt.Errorf("zapraid: out of free zones")
	}
	z := ds.free[0]
	ds.free = ds.free[1:]
	zs := &zoneState{id: z, rmap: makeFilled(a.zoneBlocks, -1)}
	ds.zones[z] = zs
	return zs, nil
}

func makeFilled(n int64, v int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// BlockSize implements blockdev.Device.
func (a *Array) BlockSize() int { return a.blockSize }

// StoresData implements blockdev.DataStorer: reads return payloads only
// when every member device retains them.
func (a *Array) StoresData() bool {
	for _, ds := range a.devs {
		if !ds.q.Device().Config().StoreData {
			return false
		}
	}
	return true
}

// Blocks implements blockdev.Device.
func (a *Array) Blocks() int64 {
	zones := int64(len(a.devs[0].zones)) - int64(a.cfg.GCHighWater) - 2
	return zones * a.zoneBlocks * int64(a.nData)
}

// WriteAmp reports engine-level accounting.
func (a *Array) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:        a.userBytes,
		FlashDataBytes:   a.userBytes + a.gcMigrated,
		FlashParityBytes: a.parityBytes,
		GCMigratedBytes:  a.gcMigrated,
	}
}

// GCEvents reports completed collections.
func (a *Array) GCEvents() uint64 { return a.gcEvents }

// ResetAccounting zeroes traffic counters.
func (a *Array) ResetAccounting() {
	a.userBytes, a.parityBytes, a.gcMigrated, a.gcEvents = 0, 0, 0, 0
}

// pickZone selects an open zone on dev with room, rotating; full zones are
// retired and replaced.
func (a *Array) pickZone(ds *devState) (*zoneState, error) {
	for try := 0; try < len(ds.open); try++ {
		slot := (ds.rr + try) % len(ds.open)
		zs := ds.open[slot]
		if zs == nil || zs.appended >= a.zoneBlocks {
			nz, err := a.openZone(ds)
			if err != nil {
				continue
			}
			if zs != nil {
				ds.full = append(ds.full, zs.id)
			}
			ds.open[slot] = nz
			zs = nz
		}
		ds.rr = (slot + 1) % len(ds.open)
		return zs, nil
	}
	return nil, fmt.Errorf("zapraid: no open zone with room")
}

// Write implements blockdev.Device: every block becomes a chunk appended
// to the forming stripe; when k chunks gather, data and parity append to
// the members in parallel (no ordering hazard — the device assigns the
// offsets, §3.2).
func (a *Array) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	start := a.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > a.Blocks() {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.WriteResult{Err: blockdev.ErrOutOfRange, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	bs := int64(a.blockSize)
	a.userBytes += uint64(nblocks) * uint64(bs)
	if a.tr != nil {
		span := a.tr.SpanBegin(int64(start), obs.LayerZapRAID, obs.OpWrite, -1, -1, lba, int64(nblocks))
		innerDone := done
		done = func(r blockdev.WriteResult) {
			a.tr.SpanEnd(span, int64(a.eng.Now()), r.Err != nil)
			if innerDone != nil {
				innerDone(r)
			}
		}
	}
	remaining := nblocks
	var firstErr error
	for i := 0; i < nblocks; i++ {
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : (int64(i)+1)*bs]
		}
		a.writeChunk(lba+int64(i), payload, zns.TagUserData, false, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(blockdev.WriteResult{Err: firstErr, Latency: a.eng.Now() - start})
			}
		})
	}
}

func (a *Array) writeChunk(lbn int64, payload []byte, tag zns.WriteTag, gc bool, done func(error)) {
	// Free-zone cliff for user writes.
	if !gc {
		for _, ds := range a.devs {
			if len(ds.free) <= 2 && a.pickVictim(ds) >= 0 {
				a.stalled = append(a.stalled, func() { a.writeChunk(lbn, payload, tag, gc, done) })
				a.maybeStartGC(ds)
				return
			}
		}
	}
	if a.cur == nil {
		a.cur = a.getSB()
	}
	a.cur.lbns = append(a.cur.lbns, lbn)
	a.cur.data = append(a.cur.data, payload)
	if payload != nil {
		if a.cur.acc == nil {
			a.cur.acc = a.pool.AllocZero(a.blockSize)
		}
		erasure.XORInto(a.cur.acc, payload)
	}
	idx := len(a.cur.lbns) - 1
	st := a.cur
	// The chunk appends immediately; its stripe's parity follows when the
	// stripe completes.
	dev := (a.rot + 1 + idx) % len(a.devs)
	ds := a.devs[dev]
	zs, err := a.pickZone(ds)
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	zs.appended++
	zs.inflight++
	if gc {
		tag = zns.TagGCData
	}
	ds.q.Append(zs.id, 1, payload, nil, tag, func(r zns.AppendResult) {
		zs.inflight--
		if r.Err != nil {
			if done != nil {
				done(r.Err)
			}
			return
		}
		// Mapping is only known at completion: the device chose the slot.
		if old, ok := a.bmt[lbn]; ok && old.dev >= 0 {
			if ozs := a.devs[old.dev].zones[old.zone]; ozs != nil && ozs.rmap[old.off] == lbn {
				ozs.rmap[old.off] = -1
				ozs.valid--
			}
		}
		// A racing newer write may have landed already; last writer wins
		// by completion order (append semantics provide no better).
		a.bmt[lbn] = pa{dev: dev, zone: zs.id, off: r.LBA}
		zs.rmap[r.LBA] = lbn
		zs.valid++
		a.maybeStartGC(ds)
		if done != nil {
			done(nil)
		}
	})
	if len(st.lbns) == a.nData {
		a.sealStripe(st)
		a.cur = nil
		a.rot++
	}
}

// sealStripe appends the parity chunk of a completed stripe. The stripe
// buffer is recycled at submission (nothing reads it afterwards) and the
// accumulator once the device has copied it.
func (a *Array) sealStripe(st *stripeBuf) {
	pdev := a.rot % len(a.devs)
	ds := a.devs[pdev]
	zs, err := a.pickZone(ds)
	if err != nil {
		a.putSB(st)
		return
	}
	zs.appended++
	zs.inflight++
	a.parityBytes += uint64(a.blockSize)
	acc := st.acc
	st.acc = nil
	a.putSB(st)
	ds.q.Append(zs.id, 1, acc, nil, zns.TagParity, func(r zns.AppendResult) {
		zs.inflight--
		a.pool.Free(acc)
	})
}

// Read implements blockdev.Device.
func (a *Array) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	start := a.eng.Now()
	if nblocks <= 0 || lba < 0 || lba+int64(nblocks) > a.Blocks() {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Err: blockdev.ErrOutOfRange, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	if a.tr != nil {
		span := a.tr.SpanBegin(int64(start), obs.LayerZapRAID, obs.OpRead, -1, -1, lba, int64(nblocks))
		innerDone := done
		done = func(r blockdev.ReadResult) {
			a.tr.SpanEnd(span, int64(a.eng.Now()), r.Err != nil)
			if innerDone != nil {
				innerDone(r)
			}
		}
	}
	bs := int64(a.blockSize)
	var out []byte
	if a.StoresData() {
		out = make([]byte, int64(nblocks)*bs)
	}
	remaining := 0
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 && done != nil {
			done(blockdev.ReadResult{Err: firstErr, Data: out, Latency: a.eng.Now() - start})
		}
	}
	type fetch struct {
		p   pa
		idx int64
	}
	var fetches []fetch
	for i := int64(0); i < int64(nblocks); i++ {
		if p, ok := a.bmt[lba+i]; ok && p.dev >= 0 {
			fetches = append(fetches, fetch{p: p, idx: i})
		}
	}
	if len(fetches) == 0 {
		if done != nil {
			a.eng.After(sim.Microsecond, func() {
				done(blockdev.ReadResult{Data: out, Latency: a.eng.Now() - start})
			})
		}
		return
	}
	remaining = len(fetches)
	for _, f := range fetches {
		// Each block is gathered straight into its place in the result.
		var dst []byte
		if out != nil {
			dst = out[f.idx*bs : (f.idx+1)*bs]
		}
		a.devs[f.p.dev].q.ReadInto(f.p.zone, f.p.off, 1, dst, false, func(r zns.ReadResult) {
			finish(r.Err)
		})
	}
}

// Trim implements blockdev.Device.
func (a *Array) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		if p, ok := a.bmt[lba+i]; ok && p.dev >= 0 {
			if zs := a.devs[p.dev].zones[p.zone]; zs != nil && zs.rmap[p.off] == lba+i {
				zs.rmap[p.off] = -1
				zs.valid--
			}
			delete(a.bmt, lba+i)
		}
	}
}

func (a *Array) pickVictim(ds *devState) int {
	best, bestValid := -1, int64(1)<<62
	for i, z := range ds.full {
		zs := ds.zones[z]
		if zs == nil || zs.inflight > 0 {
			continue
		}
		if zs.valid < bestValid {
			best, bestValid = i, zs.valid
		}
	}
	return best
}

func (a *Array) maybeStartGC(ds *devState) {
	if ds.gcRunning {
		return
	}
	if len(ds.free) >= a.cfg.GCLowWater && len(a.stalled) == 0 {
		return
	}
	ds.gcRunning = true
	a.eng.After(0, func() { a.gcStep(ds) })
}

// gcStep migrates the live chunks of the sparsest full zone via re-append
// (each migration joins a new stripe) and resets the victim.
func (a *Array) gcStep(ds *devState) {
	if len(ds.free) >= a.cfg.GCHighWater && len(a.stalled) == 0 {
		ds.gcRunning = false
		return
	}
	vi := a.pickVictim(ds)
	if vi < 0 {
		ds.gcRunning = false
		for len(a.stalled) > 0 {
			fn := a.stalled[0]
			a.stalled = a.stalled[1:]
			fn()
		}
		return
	}
	victim := ds.full[vi]
	ds.full = append(ds.full[:vi], ds.full[vi+1:]...)
	zs := ds.zones[victim]
	a.gcEvents++
	if a.tr != nil {
		dev := -1
		for i, d := range a.devs {
			if d == ds {
				dev = i
				break
			}
		}
		a.tr.Event(int64(a.eng.Now()), obs.LayerZapRAID, obs.EvGCVictim, dev, victim,
			zs.valid, int64(len(ds.free)), 0)
	}
	var live []int64
	for off := int64(0); off < a.zoneBlocks; off++ {
		if l := zs.rmap[off]; l >= 0 {
			live = append(live, off)
		}
	}
	finish := func() {
		ds.q.Reset(victim, func(error) {
			ds.zones[victim] = nil
			ds.free = append(ds.free, victim)
			for len(a.stalled) > 0 && len(ds.free) > 2 {
				fn := a.stalled[0]
				a.stalled = a.stalled[1:]
				fn()
			}
			a.eng.After(0, func() { a.gcStep(ds) })
		})
	}
	if len(live) == 0 {
		finish()
		return
	}
	remaining := len(live)
	devIdx := -1
	for i, d := range a.devs {
		if d == ds {
			devIdx = i
		}
	}
	stores := a.StoresData()
	for _, off := range live {
		off := off
		lbn := zs.rmap[off]
		// The chunk travels in pool scratch, back once its append has
		// completed (the device has copied it by then).
		var dst []byte
		if stores {
			dst = a.pool.Alloc(a.blockSize)
		}
		ds.q.ReadInto(victim, off, 1, dst, false, func(r zns.ReadResult) {
			data := dst
			if r.Err != nil {
				data = nil // a failed read migrates, as it always has, without content
			}
			cur, ok := a.bmt[lbn]
			if !ok || cur != (pa{dev: devIdx, zone: victim, off: off}) {
				a.pool.Free(dst)
				remaining--
				if remaining == 0 {
					finish()
				}
				return
			}
			a.gcMigrated += uint64(a.blockSize)
			a.writeChunk(lbn, data, zns.TagGCData, true, func(error) {
				a.pool.Free(dst)
				remaining--
				if remaining == 0 {
					finish()
				}
			})
		})
	}
}
