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
	"slices"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/erasure"
	"biza/internal/fifo"
	"biza/internal/metrics"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/raid"
	"biza/internal/sim"
	"biza/internal/zns"
)

// Config tunes the engine.
type Config struct {
	// GCLowWater / GCHighWater are per-device free-zone watermarks.
	GCLowWater  int
	GCHighWater int
}

// DefaultConfig sizes the engine for the device zone count.
func DefaultConfig(zonesPerDevice int) Config {
	_, low, high := raid.Watermarks(zonesPerDevice)
	return Config{GCLowWater: low, GCHighWater: high}
}

// openZonesPerDevice is how many zones accept appends concurrently.
const openZonesPerDevice = 2

// stallFloor is the per-device free-zone count at which user writes park.
const stallFloor = 2

// devState is one member: its queue, its open zones and its collector.
// Zones carry their ZoneLog number, idx*zonesPerDev + the device's own.
type devState struct {
	idx       int
	q         *nvme.Queue
	open      []int
	rr        int
	full      []int // retired zones, oldest first: the victim tie-break
	gcRunning bool
}

// chunkRec is one chunk, data or parity, on its way to flash: a recycled
// record that is the entry parked on stalled (user data at the free-zone
// cliff) and then the completion target of its append (onAppend, bound
// once). It goes back before done runs.
type chunkRec struct {
	a        *Array
	live     bool
	lbn      int64 // data: the block it holds
	payload  []byte
	tag      zns.WriteTag
	ds       *devState
	z        int
	done     func(error)           // data: the chunk's owner
	onAppend func(zns.WriteResult) // c.complete
}

// writeReq is one block-interface Write: its chunks report to the fan-in
// it carries, whose last ends the span and answers the caller. Recycled;
// put back before the caller's callback runs.
type writeReq struct {
	a       *Array
	live    bool
	start   sim.Time
	span    obs.SpanID
	done    func(blockdev.WriteResult)
	f       sim.FanIn
	onChunk func(error) // w.f.Done
	onAll   func(error) // w.finish
}

// readReq is one block-interface Read, each mapped block gathered straight
// into its place in the result. It is also the event that answers a read
// of nothing mapped. Put back before the caller's callback runs.
type readReq struct {
	a      *Array
	live   bool
	start  sim.Time
	span   obs.SpanID
	done   func(blockdev.ReadResult)
	out    []byte // the result; nil when the members store no data
	f      sim.FanIn
	onPart func(zns.ReadResult) // rd.partDone
	onAll  func(error)          // rd.finish
}

// Array is the append-based engine. It implements blockdev.Device.
type Array struct {
	cfg   Config
	eng   *sim.Engine
	devs  []*devState
	nData int

	blockSize   int
	zoneBlocks  int64
	zonesPerDev int
	storesData  bool // every member retains payloads

	log      *raid.ZoneLog // block -> chunk location; one unit per member
	inflight []int         // appends outstanding, per zone

	// The forming stripe: how many chunks it holds, their running XOR (a
	// pooled block, nil until a chunk carries a payload), and the rotation.
	forming int
	acc     []byte
	rot     int

	userBytes   uint64
	parityBytes uint64
	gcMigrated  uint64
	gcEvents    uint64
	stalled     fifo.Queue[*chunkRec]

	// Recycled request records and how many of each were ever made.
	chunkFree []*chunkRec
	writeFree []*writeReq
	readFree  []*readReq
	made      struct{ chunk, write, read int }

	pool *buf.Pool // parity accumulators and GC migration scratch

	tr *obs.Trace
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
	a := &Array{
		cfg:         cfg,
		eng:         queues[0].Device().Engine(),
		nData:       len(queues) - 1,
		blockSize:   base.BlockSize,
		zoneBlocks:  base.ZoneBlocks,
		zonesPerDev: base.NumZones,
		storesData:  true,
		inflight:    make([]int, len(queues)*base.NumZones),
		pool:        buf.NewPool(),
	}
	logical := int64(base.NumZones-cfg.GCHighWater-2) * a.zoneBlocks * int64(a.nData)
	log, err := raid.NewZoneLog(len(queues), base.NumZones, a.zoneBlocks, logical)
	if err != nil {
		return nil, fmt.Errorf("zapraid: %w", err)
	}
	a.log = log
	for i, q := range queues {
		a.storesData = a.storesData && q.Device().Config().StoreData
		ds := &devState{idx: i, q: q}
		for j := 0; j < openZonesPerDevice; j++ {
			z, ok := a.log.Take(i)
			if !ok {
				return nil, fmt.Errorf("zapraid: out of free zones")
			}
			ds.open = append(ds.open, z)
		}
		a.devs = append(a.devs, ds)
	}
	return a, nil
}

// BlockSize implements blockdev.Device.
func (a *Array) BlockSize() int { return a.blockSize }

// StoresData implements blockdev.DataStorer: reads return payloads only
// when every member device retains them.
func (a *Array) StoresData() bool { return a.storesData }

// Blocks implements blockdev.Device.
func (a *Array) Blocks() int64 { return a.log.Blocks() }

// WriteAmp reports engine-level accounting.
func (a *Array) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:        a.userBytes,
		FlashDataBytes:   a.userBytes + a.gcMigrated,
		FlashParityBytes: a.parityBytes,
		GCMigratedBytes:  a.gcMigrated,
	}
}

// ResetAccounting zeroes traffic counters.
func (a *Array) ResetAccounting() {
	a.userBytes, a.parityBytes, a.gcMigrated, a.gcEvents = 0, 0, 0, 0
}

// local is zone z's number on its own device.
func (a *Array) local(z int) int { return z % a.zonesPerDev }

// pickZone selects an open zone on dev with room, rotating; full zones are
// retired and replaced.
func (a *Array) pickZone(ds *devState) (int, error) {
	for try := 0; try < len(ds.open); try++ {
		slot := (ds.rr + try) % len(ds.open)
		z := ds.open[slot]
		if a.log.Full(z) {
			nz, ok := a.log.Take(ds.idx)
			if !ok {
				continue
			}
			a.log.Retire(z)
			ds.full = append(ds.full, z)
			ds.open[slot] = nz
			z = nz
		}
		ds.rr = (slot + 1) % len(ds.open)
		return z, nil
	}
	return -1, fmt.Errorf("zapraid: no open zone with room")
}

func (a *Array) getChunk() *chunkRec {
	n := len(a.chunkFree)
	if n == 0 {
		a.made.chunk++
		c := &chunkRec{a: a, live: true}
		c.onAppend = c.complete
		return c
	}
	c := a.chunkFree[n-1]
	a.chunkFree = a.chunkFree[:n-1]
	c.live = true
	return c
}

func (a *Array) putChunk(c *chunkRec) {
	if !c.live {
		panic("zapraid: chunk record put twice")
	}
	*c = chunkRec{a: a, onAppend: c.onAppend}
	a.chunkFree = append(a.chunkFree, c)
}

func (a *Array) getWrite() *writeReq {
	n := len(a.writeFree)
	if n == 0 {
		a.made.write++
		w := &writeReq{a: a, live: true}
		w.onChunk, w.onAll = w.f.Done, w.finish
		return w
	}
	w := a.writeFree[n-1]
	a.writeFree = a.writeFree[:n-1]
	w.live = true
	return w
}

func (a *Array) putWrite(w *writeReq) {
	if !w.live {
		panic("zapraid: write record put twice")
	}
	*w = writeReq{a: a, onChunk: w.onChunk, onAll: w.onAll}
	a.writeFree = append(a.writeFree, w)
}

func (a *Array) getRead() *readReq {
	n := len(a.readFree)
	if n == 0 {
		a.made.read++
		rd := &readReq{a: a, live: true}
		rd.onPart, rd.onAll = rd.partDone, rd.finish
		return rd
	}
	rd := a.readFree[n-1]
	a.readFree = a.readFree[:n-1]
	rd.live = true
	return rd
}

func (a *Array) putRead(rd *readReq) {
	if !rd.live {
		panic("zapraid: read record put twice")
	}
	*rd = readReq{a: a, onPart: rd.onPart, onAll: rd.onAll}
	a.readFree = append(a.readFree, rd)
}

// Write implements blockdev.Device: every block becomes a chunk appended
// to the forming stripe; when k chunks gather, data and parity append to
// the members in parallel (no ordering hazard — the device assigns the
// offsets, §3.2).
func (a *Array) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	if !blockdev.CheckWrite(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	bs := int64(a.blockSize)
	a.userBytes += uint64(nblocks) * uint64(bs)
	w := a.getWrite()
	w.start, w.done = a.eng.Now(), done
	w.span = a.tr.SpanBegin(int64(w.start), obs.LayerZapRAID, obs.OpWrite, -1, -1, lba, int64(nblocks))
	w.f.Arm(w.onAll)
	w.f.Add(nblocks)
	for i := 0; i < nblocks; i++ {
		var payload []byte
		if data != nil {
			payload = data[int64(i)*bs : (int64(i)+1)*bs]
		}
		a.writeChunk(lba+int64(i), payload, zns.TagUserData, w.onChunk)
	}
	w.f.Seal()
}

func (w *writeReq) finish(err error) {
	a, now := w.a, w.a.eng.Now()
	a.tr.SpanEnd(w.span, int64(now), err != nil)
	done, res := w.done, blockdev.WriteResult{Err: err, Latency: now - w.start}
	a.putWrite(w)
	if done != nil {
		done(res)
	}
}

// writeChunk appends one chunk; tag is TagUserData or TagGCData.
func (a *Array) writeChunk(lbn int64, payload []byte, tag zns.WriteTag, done func(error)) {
	c := a.getChunk()
	c.lbn, c.payload, c.tag, c.done = lbn, payload, tag, done
	a.place(c)
}

// atCliff returns the first member whose free zones are down to the stall
// floor while it has a zone to collect — user chunks wait for it — or nil.
func (a *Array) atCliff() *devState {
	for _, ds := range a.devs {
		if a.log.FreeZones(ds.idx) <= stallFloor && a.victim(ds) >= 0 {
			return ds
		}
	}
	return nil
}

// place appends data chunk c to the forming stripe, or parks a user chunk
// while a member is at the free-zone cliff.
func (a *Array) place(c *chunkRec) {
	if c.tag == zns.TagUserData {
		if ds := a.atCliff(); ds != nil {
			a.stalled.Push(c)
			a.maybeStartGC(ds)
			return
		}
	}
	a.appendChunk(c)
}

// appendChunk appends data chunk c to the forming stripe.
func (a *Array) appendChunk(c *chunkRec) {
	if c.payload != nil {
		if a.acc == nil {
			a.acc = a.pool.AllocZero(a.blockSize)
		}
		erasure.XORInto(a.acc, c.payload)
	}
	// The chunk appends immediately; its stripe's parity follows when the
	// stripe completes.
	ds := a.devs[(a.rot+1+a.forming)%len(a.devs)]
	a.forming++
	z, err := a.pickZone(ds)
	if err != nil {
		done := c.done
		a.putChunk(c)
		done(err)
		return
	}
	a.log.Reserve(z)
	a.inflight[z]++
	c.ds, c.z = ds, z
	ds.q.Append(a.local(z), 1, c.payload, nil, c.tag, c.onAppend)
	if a.forming == a.nData {
		a.sealStripe()
		a.forming = 0
		a.rot++
	}
}

// complete is the device's answer to c's append.
func (c *chunkRec) complete(r zns.WriteResult) {
	a, ds, z, lbn, done := c.a, c.ds, c.z, c.lbn, c.done
	a.inflight[z]--
	if c.tag == zns.TagParity {
		// The accumulator goes back to the pool: the device has copied it.
		a.pool.Free(c.payload)
		a.putChunk(c)
		return
	}
	a.putChunk(c)
	if r.Err != nil {
		done(r.Err)
		return
	}
	// Mapping is only known at completion: the device chose the slot.
	// A racing newer write may have landed already; last writer wins
	// by completion order (append semantics provide no better).
	a.log.Map(lbn, z, r.LBA)
	a.maybeStartGC(ds)
	done(nil)
}

// releaseStalled resubmits parked chunks, oldest first, while ds has more
// than floor free zones and no other member is at the cliff: popping then
// would park the chunk again behind younger ones, with nothing changed for
// the next turn of the loop. That member's collector releases the rest.
func (a *Array) releaseStalled(ds *devState, floor int) {
	for a.stalled.Len() > 0 && a.log.FreeZones(ds.idx) > floor {
		if at := a.atCliff(); at != nil {
			a.maybeStartGC(at)
			return
		}
		a.appendChunk(a.stalled.Pop())
	}
}

// sealStripe appends the parity chunk of the completed stripe.
func (a *Array) sealStripe() {
	ds := a.devs[a.rot%len(a.devs)]
	acc := a.acc
	a.acc = nil
	z, err := a.pickZone(ds)
	if err != nil {
		a.pool.Free(acc)
		return
	}
	a.log.Reserve(z)
	a.inflight[z]++
	a.parityBytes += uint64(a.blockSize)
	c := a.getChunk()
	c.payload, c.tag, c.z = acc, zns.TagParity, z
	ds.q.Append(a.local(z), 1, acc, nil, zns.TagParity, c.onAppend)
}

// Read implements blockdev.Device.
func (a *Array) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	if !blockdev.CheckRead(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	rd := a.getRead()
	rd.start, rd.done = a.eng.Now(), done
	rd.span = a.tr.SpanBegin(int64(rd.start), obs.LayerZapRAID, obs.OpRead, -1, -1, lba, int64(nblocks))
	bs := int64(a.blockSize)
	if a.storesData {
		rd.out = make([]byte, int64(nblocks)*bs)
	}
	rd.f.Arm(rd.onAll)
	for i := int64(0); i < int64(nblocks); i++ {
		p := a.log.At(lba + i)
		if p.Zone < 0 {
			continue
		}
		// Each block is gathered straight into its place in the result.
		var dst []byte
		if rd.out != nil {
			dst = rd.out[i*bs : (i+1)*bs]
		}
		rd.f.Add(1)
		a.devs[p.Zone/a.zonesPerDev].q.ReadInto(a.local(p.Zone), p.Off, 1, dst, false, rd.onPart)
	}
	if rd.f.Seal() == 0 {
		// Nothing mapped: the record is the event that answers.
		a.eng.AfterEvent(sim.Microsecond, rd, 0, 0)
	}
}

// Fire implements sim.Handler for the read that issued nothing.
func (rd *readReq) Fire(_, _ sim.Time) { rd.finish(nil) }

func (rd *readReq) partDone(r zns.ReadResult) {
	if !rd.live {
		panic("zapraid: read record used after put")
	}
	rd.f.Done(r.Err)
}

func (rd *readReq) finish(err error) {
	a, now := rd.a, rd.a.eng.Now()
	a.tr.SpanEnd(rd.span, int64(now), err != nil)
	done, res := rd.done, blockdev.ReadResult{Err: err, Data: rd.out, Latency: now - rd.start}
	a.putRead(rd)
	if done != nil {
		done(res)
	}
}

// Trim implements blockdev.Device.
func (a *Array) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		a.log.Unmap(lba + i)
	}
}

// victim returns ds's retired zone with the fewest valid chunks, skipping
// zones with appends still in flight, or -1.
func (a *Array) victim(ds *devState) int {
	return a.log.PickVictim(ds.full, func(z int) bool { return a.inflight[z] == 0 })
}

func (a *Array) maybeStartGC(ds *devState) {
	if ds.gcRunning {
		return
	}
	if a.log.FreeZones(ds.idx) >= a.cfg.GCLowWater && a.stalled.Len() == 0 {
		return
	}
	ds.gcRunning = true
	a.eng.After(0, func() { a.gcStep(ds) })
}

// gcStep migrates the live chunks of the sparsest full zone via re-append
// (each migration joins a new stripe) and resets the victim. The loop is
// zapraid's own — dm-zap's reads through a backend, maps at submission and
// parks differently — over the ZoneLog both share.
func (a *Array) gcStep(ds *devState) {
	if a.log.FreeZones(ds.idx) >= a.cfg.GCHighWater && a.stalled.Len() == 0 {
		ds.gcRunning = false
		return
	}
	victim := a.victim(ds)
	if victim < 0 {
		ds.gcRunning = false
		a.releaseStalled(ds, -1) // nothing to wait for: let every parked chunk go
		return
	}
	i := slices.Index(ds.full, victim)
	ds.full = slices.Delete(ds.full, i, i+1)
	a.gcEvents++
	a.tr.Event(int64(a.eng.Now()), obs.LayerZapRAID, obs.EvGCVictim, ds.idx, a.local(victim),
		a.log.Valid(victim), int64(a.log.FreeZones(ds.idx)), 0)
	finish := func(error) {
		ds.q.Reset(a.local(victim), func(error) {
			a.log.Release(victim)
			a.releaseStalled(ds, stallFloor)
			a.eng.After(0, func() { a.gcStep(ds) })
		})
	}
	f := sim.NewFanIn(finish)
	for _, lbn := range a.log.Live(victim) {
		cur := a.log.At(lbn)
		// The chunk travels in pool scratch, back once its append has
		// completed (the device has copied it by then).
		var dst []byte
		if a.storesData {
			dst = a.pool.Alloc(a.blockSize)
		}
		f.Add(1)
		ds.q.ReadInto(a.local(victim), cur.Off, 1, dst, false, func(r zns.ReadResult) {
			if a.log.At(lbn) != cur {
				a.pool.Free(dst)
				f.Done(nil)
				return
			}
			data := dst
			if r.Err != nil {
				data = nil // a failed read migrates, as it always has, without content
			}
			a.gcMigrated += uint64(a.blockSize)
			a.writeChunk(lbn, data, zns.TagGCData, func(error) {
				a.pool.Free(dst)
				f.Done(nil)
			})
		})
	}
	if f.Seal() == 0 {
		finish(nil)
	}
}
