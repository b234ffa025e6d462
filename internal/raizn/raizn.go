// Package raizn implements RAIZN (Kim et al., ASPLOS '23) as the paper's
// ZNS-interface baseline: a RAID 5 array over ZNS SSDs that itself exposes
// zoned semantics — logical zones spanning one physical zone per member,
// sequential writes only, rotating parity per stripe row.
//
// The design property the paper attacks (§3.3) is reproduced explicitly:
// RAIZN journals partial-parity records for every write request into a
// centralized metadata zone before acknowledging it. All that traffic
// funnels into one zone on one I/O channel of one member, which caps the
// array's aggregate write throughput well below the ideal (the measured
// 47.7% of §2.3). An optional host-DRAM stripe cache (§5.4's fair-endurance
// configuration) absorbs partial parities of rows that complete while
// cached, at the cost of fault-tolerance — exactly the trade the paper
// describes for the mdraid/RAIZN write buffers.
package raizn

import (
	"fmt"

	"biza/internal/cpumodel"
	"biza/internal/erasure"
	"biza/internal/fifo"
	"biza/internal/metrics"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/raid"
	"biza/internal/sim"
	"biza/internal/zns"
)

// Config tunes the array.
type Config struct {
	// StripeCacheBytes, when nonzero, enables the volatile host-DRAM parity
	// cache: rows completing while cached skip the partial-parity journal.
	StripeCacheBytes int64
}

const metaZonesReserved = 2 // physical zones 0..1 reserved on every member

// rowState tracks a logical zone's partially written stripe row. A zone
// fills sequentially, so it has at most one: count == 0 means none.
type rowState struct {
	row       int64
	acc       []byte // XOR accumulator (nil when payloads are nil)
	count     int    // data chunks received
	journaled bool   // partial parity already journaled for this row
}

// Array is the RAIZN engine. It implements zoneapi.Backend so dm-zap can
// stack on top (the dmzap+RAIZN platform).
type Array struct {
	queues []*nvme.Queue
	eng    *sim.Engine
	layout *raid.Layout

	zoneBlocks   int64 // physical blocks per member zone
	logicalZones int
	blockSize    int
	storesData   bool // every member retains payloads

	wp    []int64    // logical zone write pointers (in logical blocks)
	open  []rowState // per logical zone: its open row
	cache *stripeCache

	// Centralized metadata journal: device 0, alternating physical zones
	// 0 and 1.
	metaZone int // 0 or 1
	metaWP   int64

	acct *cpumodel.Accountant

	userBytes   uint64
	parityBytes uint64
	metaBytes   uint64 // partial-parity journal volume

	// Recycled request records and how many of each were ever made.
	writeFree []*writeReq
	readFree  []*readReq
	made      struct{ write, read int }

	tr *obs.Trace
}

// writeReq is one zone Write: its data, parity and journal blocks report
// to the fan-in it carries, whose last ends the span and answers the
// caller. Recycled; put back before the caller's callback runs.
type writeReq struct {
	a      *Array
	live   bool
	start  sim.Time
	span   obs.SpanID
	done   func(zns.WriteResult)
	f      sim.FanIn
	onPart func(zns.WriteResult) // w.partDone
	onAll  func(error)           // w.finish
}

// readReq is one zone Read, de-striped: runs[:nruns] are its member reads,
// lastRun[dev] the latest of them on each member. The slots beyond nruns,
// their index slices and lastRun are kept across reuse. Put back before the
// caller's callback runs.
type readReq struct {
	a       *Array
	live    bool
	start   sim.Time
	span    obs.SpanID
	done    func(zns.ReadResult)
	buf     []byte // the result; nil when the members store no data
	f       sim.FanIn
	runs    []*readRun
	nruns   int
	lastRun []int
	onAll   func(error) // rd.finish
}

// readRun is one member read: consecutive row offsets of one member, with
// the result-buffer index of every block so the result can be de-striped.
type readRun struct {
	rd     *readReq
	dev    int
	off    int64
	bufIdx []int64
	onDone func(zns.ReadResult) // r.complete
}

func (a *Array) getWrite() *writeReq {
	n := len(a.writeFree)
	if n == 0 {
		a.made.write++
		w := &writeReq{a: a, live: true}
		w.onPart, w.onAll = w.partDone, w.finish
		return w
	}
	w := a.writeFree[n-1]
	a.writeFree = a.writeFree[:n-1]
	w.live = true
	return w
}

func (a *Array) putWrite(w *writeReq) {
	if !w.live {
		panic("raizn: write record put twice")
	}
	*w = writeReq{a: a, onPart: w.onPart, onAll: w.onAll}
	a.writeFree = append(a.writeFree, w)
}

func (a *Array) getRead() *readReq {
	n := len(a.readFree)
	if n == 0 {
		a.made.read++
		rd := &readReq{a: a, live: true, lastRun: make([]int, len(a.queues))}
		rd.onAll = rd.finish
		return rd
	}
	rd := a.readFree[n-1]
	a.readFree = a.readFree[:n-1]
	rd.live = true
	return rd
}

func (a *Array) putRead(rd *readReq) {
	if !rd.live {
		panic("raizn: read record put twice")
	}
	*rd = readReq{a: a, runs: rd.runs, lastRun: rd.lastRun, onAll: rd.onAll}
	a.readFree = append(a.readFree, rd)
}

// SetAccountant wires CPU-cost attribution (Fig. 17) to acct, non-nil.
// Until then the charges go to an accountant nobody reads, as in dmzap and
// mdraid.
func (a *Array) SetAccountant(acct *cpumodel.Accountant) { a.acct = acct }

// SetTracer attaches an observability trace: array-level spans cover each
// zone Write/Read end to end.
func (a *Array) SetTracer(tr *obs.Trace) { a.tr = tr }

// stripeCache is a FIFO of row keys whose partial parity is held in DRAM.
type stripeCache struct {
	capacity int
	fifo     fifo.Queue[rowKey]
	members  map[rowKey]bool
	evicted  []rowKey // insert's result, reused
}

type rowKey struct {
	zone int
	row  int64
}

func newStripeCache(capacity int) *stripeCache {
	return &stripeCache{capacity: capacity, members: make(map[rowKey]bool)}
}

// New builds a RAIZN array over the given member queues (one per ZNS SSD).
// All members must share a geometry.
func New(queues []*nvme.Queue, cfg Config) (*Array, error) {
	if len(queues) < 3 {
		return nil, fmt.Errorf("raizn: need >= 3 members, got %d", len(queues))
	}
	base := queues[0].Device().Config()
	for _, q := range queues[1:] {
		c := q.Device().Config()
		if c.ZoneBlocks != base.ZoneBlocks || c.NumZones != base.NumZones || c.BlockSize != base.BlockSize {
			return nil, fmt.Errorf("raizn: heterogeneous members")
		}
	}
	if base.NumZones <= metaZonesReserved {
		return nil, fmt.Errorf("raizn: too few zones (%d)", base.NumZones)
	}
	layout, err := raid.NewLayout(len(queues), 1, 1)
	if err != nil {
		return nil, err
	}
	a := &Array{
		queues:       queues,
		eng:          queues[0].Device().Engine(),
		layout:       layout,
		zoneBlocks:   base.ZoneBlocks,
		logicalZones: base.NumZones - metaZonesReserved,
		blockSize:    base.BlockSize,
		acct:         &cpumodel.Accountant{},
		storesData:   true,
	}
	for _, q := range queues {
		a.storesData = a.storesData && q.Device().Config().StoreData
	}
	a.wp = make([]int64, a.logicalZones)
	a.open = make([]rowState, a.logicalZones)
	if cfg.StripeCacheBytes > 0 {
		rows := int(cfg.StripeCacheBytes / int64(a.blockSize))
		if rows < 1 {
			rows = 1
		}
		a.cache = newStripeCache(rows)
	}
	return a, nil
}

// Engine implements zoneapi.Backend.
func (a *Array) Engine() *sim.Engine { return a.eng }

// BlockSize implements zoneapi.Backend.
func (a *Array) BlockSize() int { return a.blockSize }

// ZoneBlocks implements zoneapi.Backend: logical zone capacity in blocks —
// data members times the physical zone size.
func (a *Array) ZoneBlocks() int64 { return a.zoneBlocks * int64(a.dataDisks()) }

// Zones implements zoneapi.Backend.
func (a *Array) Zones() int { return a.logicalZones }

// StoresData implements blockdev.DataStorer: the array returns payloads
// only when every member device retains them.
func (a *Array) StoresData() bool { return a.storesData }

// MaxOpenZones implements zoneapi.Backend: one logical zone consumes a
// physical open zone on every member; device 0 also carries the metadata
// journal zone.
func (a *Array) MaxOpenZones() int {
	return a.queues[0].Device().Config().MaxOpenZones - metaZonesReserved
}

func (a *Array) dataDisks() int { return a.layout.DataDisks() }

// WriteAmp reports engine-level traffic: user data in; parity and journal
// bytes out (flash truth lives in the member device counters).
func (a *Array) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:        a.userBytes,
		FlashDataBytes:   a.userBytes,
		FlashParityBytes: a.parityBytes + a.metaBytes,
	}
}

// physZone maps a logical zone to its members' physical zone index.
func (a *Array) physZone(z int) int { return z + metaZonesReserved }

// openRow returns zone z's open row if it is row, else nil.
func (a *Array) openRow(z int, row int64) *rowState {
	if rs := &a.open[z]; rs.count > 0 && rs.row == row {
		return rs
	}
	return nil
}

// Write implements zoneapi.Backend: strictly sequential per logical zone.
// Each logical block lands on the data member of its stripe row; completed
// rows emit final parity to the rotating parity member; every request
// journals its partial-parity record to the centralized metadata zone
// (unless the stripe cache absorbs it).
func (a *Array) Write(z int, lba int64, nblocks int, data []byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	n := int64(nblocks)
	var err error
	switch {
	case z < 0 || z >= a.logicalZones:
		err = zns.ErrBadZone
	case nblocks <= 0 || lba+n > a.ZoneBlocks():
		err = zns.ErrBadRange
	case lba != a.wp[z]:
		err = zns.ErrNotSequential
	}
	if err != nil {
		sim.Deliver(a.eng, sim.Microsecond, done, zns.WriteResult{Err: err, Latency: sim.Microsecond})
		return
	}
	w := a.getWrite()
	w.start, w.done = a.eng.Now(), done
	a.wp[z] += n
	a.userBytes += uint64(n) * uint64(a.blockSize)
	w.span = a.tr.SpanBegin(int64(w.start), obs.LayerRAIZN, obs.OpWrite, -1, z, lba, n)
	a.acct.Charge(cpumodel.CompRAIZN, cpumodel.CostSchedule+cpumodel.CostMapUpdate*sim.Time(n))
	a.acct.ChargeParity(cpumodel.CompRAIZN, n*int64(a.blockSize))
	a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission*sim.Time(n))

	// Every request issues at least its data blocks, so the fan-in fires.
	f, part := &w.f, w.onPart
	f.Arm(w.onAll)

	k := int64(a.dataDisks())
	bs := int64(a.blockSize)
	pz := a.physZone(z)
	rs := &a.open[z]
	opened := false // the row open when the loop ends began in this request
	// Row-major processing: because the logical zone fills sequentially,
	// rows complete in order, and emitting each completed row's parity
	// before touching the next row keeps every member's physical zone
	// strictly sequential (data or parity, exactly one block per row).
	for i := int64(0); i < n; {
		row := (lba + i) / k
		if rs.count == 0 {
			*rs = rowState{row: row}
			opened = true
		}
		for ; i < n && (lba+i)/k == row; i++ {
			col := int((lba + i) % k)
			dev := a.layout.DataDisk(row, col)
			var payload []byte
			if data != nil {
				payload = data[i*bs : (i+1)*bs]
			}
			f.Add(1)
			a.queues[dev].Write(pz, row, 1, payload, nil, tag, part)
			rs.count++
			if payload != nil {
				if rs.acc == nil {
					rs.acc = make([]byte, bs)
				}
				erasure.XORInto(rs.acc, payload)
			}
		}
		if rs.count == int(k) {
			pdev := a.layout.ParityDisk(row, 0)
			f.Add(1)
			a.parityBytes += uint64(bs)
			a.queues[pdev].Write(pz, row, 1, rs.acc, nil, zns.TagParity, part)
			*rs = rowState{}
			opened = false
			if a.cache != nil {
				a.cache.drop(rowKey{zone: z, row: row})
			}
		}
	}

	// Journal partial parity for the request: one block for the incomplete
	// row it opened — the centralized-metadata-zone traffic that caps
	// RAIZN's throughput (§3.3). The stripe cache, when enabled, defers
	// journaling in the hope the row completes in DRAM.
	journal := 0
	if opened && !rs.journaled {
		if a.cache != nil {
			for _, evicted := range a.cache.insert(rowKey{zone: z, row: rs.row}) {
				if ev := a.openRow(evicted.zone, evicted.row); ev != nil && !ev.journaled {
					ev.journaled = true
					journal++
				}
			}
		} else {
			rs.journaled = true
			journal++
		}
	}
	a.writeJournal(journal, f, part)
	f.Seal()
}

func (w *writeReq) partDone(r zns.WriteResult) {
	if !w.live {
		panic("raizn: write record used after put")
	}
	w.f.Done(r.Err)
}

func (w *writeReq) finish(err error) {
	a, now := w.a, w.a.eng.Now()
	a.tr.SpanEnd(w.span, int64(now), err != nil)
	done, res := w.done, zns.WriteResult{Err: err, Latency: now - w.start}
	a.putWrite(w)
	if done != nil {
		done(res)
	}
}

// writeJournal appends nblocks of partial-parity records to the central
// metadata zone, rotating between the two reserved zones on member 0, each
// append one more part of f.
func (a *Array) writeJournal(nblocks int, f *sim.FanIn, part func(zns.WriteResult)) {
	for nblocks > 0 {
		if a.metaWP >= a.zoneBlocks {
			// Current journal zone full: switch to the spare and reset the
			// old one (its records are superseded by final parities).
			old := a.metaZone
			a.metaZone = 1 - a.metaZone
			a.metaWP = 0
			a.queues[0].Reset(old, nil)
		}
		batch := int64(nblocks)
		if a.metaWP+batch > a.zoneBlocks {
			batch = a.zoneBlocks - a.metaWP
		}
		off := a.metaWP
		a.metaWP += batch
		a.metaBytes += uint64(batch) * uint64(a.blockSize)
		f.Add(1)
		a.queues[0].Write(a.metaZone, off, int(batch), nil, nil, zns.TagMeta, part)
		nblocks -= int(batch)
	}
}

// Read implements zoneapi.Backend, splitting the logical range into
// per-member runs.
func (a *Array) Read(z int, lba int64, nblocks int, done func(zns.ReadResult)) {
	n := int64(nblocks)
	var err error
	switch {
	case z < 0 || z >= a.logicalZones:
		err = zns.ErrBadZone
	case nblocks <= 0 || lba < 0 || lba+n > a.ZoneBlocks():
		err = zns.ErrBadRange
	}
	if err != nil {
		sim.Deliver(a.eng, sim.Microsecond, done, zns.ReadResult{Err: err, Latency: sim.Microsecond})
		return
	}
	rd := a.getRead()
	rd.start, rd.done = a.eng.Now(), done
	rd.span = a.tr.SpanBegin(int64(rd.start), obs.LayerRAIZN, obs.OpRead, -1, z, lba, n)
	k := int64(a.dataDisks())
	pz := a.physZone(z)
	if a.StoresData() {
		rd.buf = make([]byte, n*int64(a.blockSize))
	}
	// Group blocks per member and coalesce consecutive row offsets into one
	// device read; each run carries the buffer index of every block so the
	// result can be de-striped.
	for i := range rd.lastRun {
		rd.lastRun[i] = -1
	}
	for i := int64(0); i < n; i++ {
		blk := lba + i
		row := blk / k
		col := int(blk % k)
		dev := a.layout.DataDisk(row, col)
		if li := rd.lastRun[dev]; li >= 0 {
			if r := rd.runs[li]; r.off+int64(len(r.bufIdx)) == row {
				r.bufIdx = append(r.bufIdx, i)
				continue
			}
		}
		if rd.nruns == len(rd.runs) {
			r := &readRun{rd: rd}
			r.onDone = r.complete
			rd.runs = append(rd.runs, r)
		}
		r := rd.runs[rd.nruns]
		r.dev, r.off, r.bufIdx = dev, row, append(r.bufIdx[:0], i)
		rd.lastRun[dev] = rd.nruns
		rd.nruns++
	}
	rd.f.Arm(rd.onAll)
	rd.f.Add(rd.nruns)
	for _, r := range rd.runs[:rd.nruns] {
		a.queues[r.dev].ReadInto(pz, r.off, len(r.bufIdx), nil, false, r.onDone)
	}
	rd.f.Seal()
}

// complete is the run's device completion: de-stripe and count it done.
func (r *readRun) complete(res zns.ReadResult) {
	rd := r.rd
	if !rd.live {
		panic("raizn: read record used after put")
	}
	if res.Data != nil {
		bs := int64(rd.a.blockSize)
		for j, idx := range r.bufIdx {
			copy(rd.buf[idx*bs:(idx+1)*bs], res.Data[int64(j)*bs:(int64(j)+1)*bs])
		}
	}
	rd.f.Done(res.Err)
}

func (rd *readReq) finish(err error) {
	a, now := rd.a, rd.a.eng.Now()
	a.tr.SpanEnd(rd.span, int64(now), err != nil)
	done, res := rd.done, zns.ReadResult{Err: err, Data: rd.buf, Latency: now - rd.start}
	a.putRead(rd)
	if done != nil {
		done(res)
	}
}

// Reset implements zoneapi.Backend: resets the logical zone's physical zone
// on every member.
func (a *Array) Reset(z int, done func(error)) {
	if z < 0 || z >= a.logicalZones {
		sim.Deliver(a.eng, sim.Microsecond, done, error(zns.ErrBadZone))
		return
	}
	a.wp[z] = 0
	a.open[z] = rowState{}
	f := sim.NewFanIn(done)
	part := f.Done
	f.Add(len(a.queues))
	for _, q := range a.queues {
		q.Reset(a.physZone(z), part)
	}
	f.Seal()
}

// insert adds a key to the FIFO cache and returns evicted keys, valid
// until the next insert.
func (c *stripeCache) insert(k rowKey) []rowKey {
	if c.members[k] {
		return nil
	}
	c.members[k] = true
	c.fifo.Push(k)
	c.evicted = c.evicted[:0]
	for c.fifo.Len() > c.capacity {
		e := c.fifo.Pop()
		if c.members[e] {
			delete(c.members, e)
			c.evicted = append(c.evicted, e)
		}
	}
	return c.evicted
}

// drop removes a completed row from the cache without journaling.
func (c *stripeCache) drop(k rowKey) { delete(c.members, k) }

// ResetAccounting zeroes engine-level traffic counters.
func (a *Array) ResetAccounting() {
	a.userBytes, a.parityBytes, a.metaBytes = 0, 0, 0
}
