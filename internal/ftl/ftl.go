// Package ftl simulates a conventional block-interface SSD: a page-mapped
// flash translation layer with greedy garbage collection over the same
// channel/die resource model as the ZNS simulator. It is the substrate for
// the paper's mdraid+ConvSSD baseline (WD SN640), whose behaviour —
// device-hidden GC producing write amplification and latency spikes — is
// exactly what BIZA's host-controlled design eliminates.
package ftl

import (
	"fmt"
	"math"

	"biza/internal/blockdev"
	"biza/internal/fifo"
	"biza/internal/flash"
	"biza/internal/metrics"
	"biza/internal/obs"
	"biza/internal/pagetab"
	"biza/internal/sim"
)

// Config describes the simulated conventional SSD.
type Config struct {
	Name string

	BlockSize      int     // logical block / flash page size in bytes
	PagesPerBlock  int     // flash pages per erase block
	FlashBlocks    int     // total erase blocks
	OverProvision  float64 // fraction of raw capacity reserved (not host-visible)
	NumChannels    int
	DiesPerChannel int

	ChannelWriteBW int64
	ChannelReadBW  int64
	DieWriteBW     int64
	DieReadBW      int64
	DeviceWriteBW  int64
	DeviceReadBW   int64

	CmdOverhead     sim.Time
	BufWriteLatency sim.Time
	DieReadLatency  sim.Time
	EraseLatency    sim.Time

	// CacheBlocks is the device DRAM write-cache size in pages; writes are
	// acknowledged from cache and drain to flash in the background.
	CacheBlocks int64

	// GC watermarks in free erase blocks.
	GCLowWater  int
	GCHighWater int

	Seed      uint64
	StoreData bool
}

// Validate reports a descriptive error for an unusable configuration.
func (c *Config) Validate() error {
	switch {
	case c.BlockSize <= 0 || c.PagesPerBlock <= 0 || c.FlashBlocks <= 0:
		return fmt.Errorf("ftl: bad geometry %+v", *c)
	case c.OverProvision < 0 || c.OverProvision >= 0.9:
		return fmt.Errorf("ftl: over-provision %v", c.OverProvision)
	case c.NumChannels <= 0 || c.DiesPerChannel <= 0:
		return fmt.Errorf("ftl: bad parallelism")
	case c.ChannelWriteBW <= 0 || c.ChannelReadBW <= 0 || c.DieWriteBW <= 0 ||
		c.DieReadBW <= 0 || c.DeviceWriteBW <= 0 || c.DeviceReadBW <= 0:
		return fmt.Errorf("ftl: non-positive bandwidth")
	case c.GCLowWater < 1 || c.GCHighWater <= c.GCLowWater:
		return fmt.Errorf("ftl: bad GC watermarks %d/%d", c.GCLowWater, c.GCHighWater)
	}
	return nil
}

// SN640 returns the Western Digital Ultrastar DC SN640 preset (Table 5):
// 2250/3331 MB/s write/read — a few percent above the ZN540, per the paper.
// totalBlocks scales capacity; use small values in tests.
func SN640(flashBlocks int) Config {
	return Config{
		Name:            "WD SN640",
		BlockSize:       4096,
		PagesPerBlock:   256, // 1 MiB erase blocks
		FlashBlocks:     flashBlocks,
		OverProvision:   0.12,
		NumChannels:     8,
		DiesPerChannel:  4,
		ChannelWriteBW:  1130e6,
		ChannelReadBW:   1666e6,
		DieWriteBW:      565e6,
		DieReadBW:       900e6,
		DeviceWriteBW:   2250e6,
		DeviceReadBW:    3331e6,
		CmdOverhead:     3 * sim.Microsecond,
		BufWriteLatency: 8 * sim.Microsecond,
		DieReadLatency:  25 * sim.Microsecond,
		EraseLatency:    2 * sim.Millisecond,
		CacheBlocks:     4096, // 16 MiB device cache
		GCLowWater:      flashBlocks / 32,
		GCHighWater:     flashBlocks / 16,
	}
}

// TestConfig returns a small fast geometry for unit tests.
func TestConfig() Config {
	return Config{
		Name:            "ftl-test",
		BlockSize:       4096,
		PagesPerBlock:   16,
		FlashBlocks:     64,
		OverProvision:   0.25,
		NumChannels:     4,
		DiesPerChannel:  2,
		ChannelWriteBW:  1000e6,
		ChannelReadBW:   1600e6,
		DieWriteBW:      500e6,
		DieReadBW:       900e6,
		DeviceWriteBW:   2000e6,
		DeviceReadBW:    3200e6,
		CmdOverhead:     3 * sim.Microsecond,
		BufWriteLatency: 8 * sim.Microsecond,
		DieReadLatency:  25 * sim.Microsecond,
		EraseLatency:    500 * sim.Microsecond,
		CacheBlocks:     32,
		GCLowWater:      4,
		GCHighWater:     8,
		StoreData:       true,
	}
}

const invalidPPN = int64(-1)

// maxPages bounds the flash a device may have: l2p and p2l hold a page
// number + 1 in 32 bits, and no logical page outnumbers the physical ones.
const maxPages = math.MaxUint32

type flashBlock struct {
	channel  int
	nextPage int // allocation cursor
	valid    int // count of valid pages
	erases   uint64
	full     bool
	free     bool
}

type channelRes struct {
	d        *Device
	writeBus *sim.Resource
	readBus  *sim.Resource
	dies     *sim.Resource
}

// pageOnBus and pageOnDie are the two stages of a page program
// (programPage) as events. A program carries nothing but its channel, so
// the channel itself, under these two names, is the handler of both: no
// record, no closure.
type (
	pageOnBus channelRes
	pageOnDie channelRes
)

// Fire: the page has crossed the channel bus; program it on a die.
func (c *pageOnBus) Fire(_, _ sim.Time) {
	size := int64(c.d.cfg.BlockSize)
	c.dies.SubmitEvent(size*sim.Second/c.d.cfg.DieWriteBW, (*pageOnDie)(c))
}

// Fire: the page is on flash and its cache credit is free again.
func (c *pageOnDie) Fire(_, _ sim.Time) {
	c.d.programmed += uint64(c.d.cfg.BlockSize)
	c.d.releaseCache(1)
}

// Device is the simulated conventional SSD. It implements blockdev.Device.
type Device struct {
	cfg Config
	eng *sim.Engine

	l2p pagetab.Table[uint32] // logical page -> physical page + 1; 0 (absent) decodes to invalidPPN
	p2l pagetab.Table[uint32] // physical page -> logical page + 1; 0 if invalid or free
	// pages is the programmed payload, one store per erase block, nil
	// without StoreData. Reads gather through l2p.
	pages []flash.Store

	blocks   []flashBlock
	freeList []int
	active   []int // per-channel active block for user writes
	gcBlk    int   // single active block for GC migration
	chans    []*channelRes

	controller *sim.Resource
	writeLink  *sim.Resource
	readLink   *sim.Resource

	cacheCredit int64
	waiters     fifo.Queue[*req] // writes waiting for cache credit
	stalled     fifo.Queue[*req] // writes parked below the critical watermark

	reqFree []*req // recycled request records
	reqMade int

	logicalPages int64

	gcRunning bool
	gcWaiting bool // collector parked until an in-flight erase frees a block
	erasing   int  // victims whose erase is in flight
	rng       *sim.RNG

	// Accounting.
	userWritten uint64
	programmed  uint64
	gcMigrated  uint64
	erases      uint64
	gcEvents    uint64

	tr    *obs.Trace
	trDev int
}

// SetTracer attaches an observability trace; dev labels this device in the
// trace. Passing nil detaches.
func (d *Device) SetTracer(tr *obs.Trace, dev int) {
	d.tr = tr
	d.trDev = dev
}

// ChannelWriteBusy reports cumulative busy time of channel ch's program bus.
func (d *Device) ChannelWriteBusy(ch int) sim.Time {
	if ch < 0 || ch >= len(d.chans) {
		return 0
	}
	return d.chans[ch].writeBus.BusyTime()
}

// ChannelReadBusy reports cumulative busy time of channel ch's read bus.
func (d *Device) ChannelReadBusy(ch int) sim.Time {
	if ch < 0 || ch >= len(d.chans) {
		return 0
	}
	return d.chans[ch].readBus.BusyTime()
}

// New creates a device with all blocks free.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	totalPages := int64(cfg.FlashBlocks) * int64(cfg.PagesPerBlock)
	if totalPages > maxPages {
		return nil, fmt.Errorf("ftl: %d flash pages, at most %d", totalPages, int64(maxPages))
	}
	logical := int64(float64(totalPages) * (1 - cfg.OverProvision))
	d := &Device{
		cfg:          cfg,
		eng:          eng,
		blocks:       make([]flashBlock, cfg.FlashBlocks),
		active:       make([]int, cfg.NumChannels),
		controller:   sim.NewResource(eng, 1),
		writeLink:    sim.NewResource(eng, 1),
		readLink:     sim.NewResource(eng, 1),
		cacheCredit:  cfg.CacheBlocks,
		logicalPages: logical,
		rng:          sim.NewRNG(cfg.Seed ^ 0xf71),
	}
	if cfg.StoreData {
		pool := flash.NewPool(cfg.BlockSize, 0)
		d.pages = make([]flash.Store, cfg.FlashBlocks)
		for i := range d.pages {
			d.pages[i] = pool.Store()
		}
	}
	d.chans = make([]*channelRes, cfg.NumChannels)
	for i := range d.chans {
		d.chans[i] = &channelRes{
			d:        d,
			writeBus: sim.NewResource(eng, 1),
			readBus:  sim.NewResource(eng, 1),
			dies:     sim.NewResource(eng, cfg.DiesPerChannel),
		}
	}
	for i := range d.blocks {
		d.blocks[i] = flashBlock{channel: i % cfg.NumChannels, free: true}
		d.freeList = append(d.freeList, i)
	}
	for ch := range d.active {
		d.active[ch] = d.takeFreeBlock(ch)
	}
	d.gcBlk = d.takeFreeBlock(0)
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// BlockSize implements blockdev.Device.
func (d *Device) BlockSize() int { return d.cfg.BlockSize }

// StoresData implements blockdev.DataStorer.
func (d *Device) StoresData() bool { return d.cfg.StoreData }

// Blocks implements blockdev.Device.
func (d *Device) Blocks() int64 { return d.logicalPages }

// WriteAmp implements blockdev.WriteAmper: device-level write amplification
// (user pages vs pages programmed, including GC migration).
func (d *Device) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:       d.userWritten,
		FlashDataBytes:  d.programmed,
		GCMigratedBytes: d.gcMigrated,
	}
}

// takeFreeBlock pops a free block, preferring blocks on channel ch.
func (d *Device) takeFreeBlock(ch int) int {
	for i, b := range d.freeList {
		if d.blocks[b].channel == ch {
			d.freeList = append(d.freeList[:i], d.freeList[i+1:]...)
			d.blocks[b].free = false
			return b
		}
	}
	if len(d.freeList) == 0 {
		panic("ftl: out of free blocks — GC watermark misconfigured")
	}
	b := d.freeList[0]
	d.freeList = d.freeList[1:]
	d.blocks[b].free = false
	return b
}

// allocPage assigns the next physical page for a write. User writes rotate
// channels by logical page so sequential streams stripe across channels;
// GC migration fills one dedicated block at a time (concentrating its
// interference on one channel, as a real block-granular collector does).
func (d *Device) allocPage(lpn int64, gc bool) (ppn int64, ch int) {
	var blk int
	if gc {
		fb := &d.blocks[d.gcBlk]
		if fb.nextPage >= d.cfg.PagesPerBlock {
			fb.full = true
			d.gcBlk = d.takeFreeBlock(d.rng.Intn(d.cfg.NumChannels))
		}
		blk = d.gcBlk
	} else {
		ch = int(lpn) % d.cfg.NumChannels
		if ch < 0 {
			ch = -ch
		}
		blk = d.active[ch]
		fb := &d.blocks[blk]
		if fb.nextPage >= d.cfg.PagesPerBlock {
			fb.full = true
			blk = d.takeFreeBlock(ch)
			d.active[ch] = blk
		}
	}
	fb := &d.blocks[blk]
	ppn = int64(blk)*int64(d.cfg.PagesPerBlock) + int64(fb.nextPage)
	fb.nextPage++
	return ppn, fb.channel
}

// loadPage returns the payload programmed at physical page ppn, nil for
// none (StoreData only).
func (d *Device) loadPage(ppn int64) []byte {
	ppb := int64(d.cfg.PagesPerBlock)
	data, _ := d.pages[ppn/ppb].Get(ppn % ppb)
	return data
}

// storePage programs data at physical page ppn (StoreData only).
func (d *Device) storePage(ppn int64, data []byte) {
	ppb := int64(d.cfg.PagesPerBlock)
	d.pages[ppn/ppb].Put(ppn%ppb, data, nil)
}

// ppnOf returns the physical page holding lpn, invalidPPN for none.
func (d *Device) ppnOf(lpn int64) int64 { return int64(d.l2p.Get(lpn)) - 1 }

// mapPage installs lpn -> ppn, invalidating any previous mapping.
func (d *Device) mapPage(lpn, ppn int64) {
	if old := d.ppnOf(lpn); old != invalidPPN {
		d.p2l.Delete(old)
		d.blocks[old/int64(d.cfg.PagesPerBlock)].valid--
	}
	d.l2p.Set(lpn, uint32(ppn+1))
	d.p2l.Set(ppn, uint32(lpn+1))
	d.blocks[ppn/int64(d.cfg.PagesPerBlock)].valid++
}

// Write implements blockdev.Device: cache-acknowledged page-mapped writes
// with background drain and GC.
func (d *Device) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	start := d.eng.Now()
	n := int64(nblocks)
	var err error
	switch {
	case !blockdev.InRange(lba, nblocks, d.logicalPages):
		err = blockdev.ErrOutOfRange
	case data != nil && int64(len(data)) != n*int64(d.cfg.BlockSize):
		err = blockdev.ErrBadArgument
	}
	if err != nil {
		sim.Deliver(d.eng, d.cfg.CmdOverhead, done, blockdev.WriteResult{Err: err, Latency: d.cfg.CmdOverhead})
		return
	}
	d.userWritten += uint64(n) * uint64(d.cfg.BlockSize)
	r := d.getReq()
	r.stage, r.lba, r.n, r.data, r.start, r.wdone = wCtrl, lba, n, data, start, done
	r.span = d.tr.SpanBegin(int64(start), obs.LayerFTL, obs.OpWrite, d.trDev, -1, lba, n)
	d.controller.SubmitEvent(d.cfg.CmdOverhead, r)
}

// req is one Write or Read from the command's arrival to the caller's
// callback: a recycled record that is itself the event of every stage, the
// entry parked on waiters and stalled, and the holder of the caller's
// callback. It goes back before that callback runs.
type req struct {
	d     *Device
	live  bool
	stage uint8
	lba   int64
	n     int64
	data  []byte // write payload, or nil
	ch    int    // read: the channel that serves it
	span  obs.SpanID
	start sim.Time
	wdone func(blockdev.WriteResult)
	rdone func(blockdev.ReadResult)
}

// The stage a request's next event ends.
const (
	wCtrl    = iota // write: controller overhead, then cache admission
	wXferBuf        // write: host link transfer and buffer latency, then the acknowledgement
	rCtrl           // read: controller overhead
	rBus            // read: channel bus
	rDie            // read: die
	rXfer           // read: host link transfer, then the answer
)

func (d *Device) getReq() *req {
	n := len(d.reqFree)
	if n == 0 {
		d.reqMade++
		return &req{d: d, live: true}
	}
	r := d.reqFree[n-1]
	d.reqFree = d.reqFree[:n-1]
	r.live = true
	return r
}

func (d *Device) putReq(r *req) {
	if !r.live {
		panic("ftl: request record put twice")
	}
	*r = req{d: d}
	d.reqFree = append(d.reqFree, r)
}

// Fire implements sim.Handler: the stage that just ended, served from s to
// e (now, except where a fixed latency rode the station's event), starts
// the next one.
func (r *req) Fire(s, e sim.Time) {
	if !r.live {
		panic("ftl: request record used after put")
	}
	d := r.d
	size := r.n * int64(d.cfg.BlockSize)
	switch r.stage {
	case wCtrl:
		// Page allocation happens only once cache credit is granted: the
		// cache is the device's admission control, which bounds how far
		// allocation can run ahead of GC and keeps free-block accounting safe.
		d.acquireCache(r)
	case wXferBuf:
		now := d.eng.Now()
		d.tr.Mark(r.span, int64(s), int64(e), obs.LayerFTL, obs.PhaseXfer, d.trDev, -1, -1)
		d.tr.Mark(r.span, int64(e), int64(now), obs.LayerFTL, obs.PhaseBuffer, d.trDev, -1, -1)
		d.tr.SpanEnd(r.span, int64(now), false)
		done, res := r.wdone, blockdev.WriteResult{Latency: now - r.start}
		d.putReq(r)
		if done != nil {
			done(res)
		}
	case rCtrl:
		r.stage = rBus
		d.chans[r.ch].readBus.SubmitEvent(size*sim.Second/d.cfg.ChannelReadBW, r)
	case rBus:
		d.tr.Mark(r.span, int64(s), int64(e), obs.LayerFTL, obs.PhaseBus, d.trDev, -1, r.ch)
		r.stage = rDie
		d.chans[r.ch].dies.SubmitEvent(d.cfg.DieReadLatency+size*sim.Second/d.cfg.DieReadBW, r)
	case rDie:
		d.tr.Mark(r.span, int64(s), int64(e), obs.LayerFTL, obs.PhaseDie, d.trDev, -1, r.ch)
		r.stage = rXfer
		d.readLink.SubmitEvent(size*sim.Second/d.cfg.DeviceReadBW, r)
	case rXfer:
		d.tr.Mark(r.span, int64(s), int64(e), obs.LayerFTL, obs.PhaseXfer, d.trDev, -1, -1)
		d.tr.SpanEnd(r.span, int64(e), false)
		done, res := r.rdone, blockdev.ReadResult{Latency: e - r.start}
		if done != nil && d.pages != nil {
			res.Data = make([]byte, size)
			bs := int64(d.cfg.BlockSize)
			for i := int64(0); i < r.n; i++ {
				if ppn := d.ppnOf(r.lba + i); ppn != invalidPPN {
					copy(res.Data[i*bs:(i+1)*bs], d.loadPage(ppn))
				}
			}
		}
		d.putReq(r)
		if done != nil {
			done(res)
		}
	}
}

// program maps and programs the pages of a write that holds its cache
// credit and is clear of the write cliff, then moves its payload over the
// host link.
func (r *req) program() {
	d, bs := r.d, int64(r.d.cfg.BlockSize)
	for i := int64(0); i < r.n; i++ {
		lpn := r.lba + i
		ppn, ch := d.allocPage(lpn, false)
		d.mapPage(lpn, ppn)
		if d.pages != nil && r.data != nil {
			d.storePage(ppn, r.data[i*bs:(i+1)*bs])
		}
		d.programPage(ch)
	}
	d.maybeStartGC()
	r.stage = wXferBuf
	d.writeLink.SubmitEventThen(r.n*bs*sim.Second/d.cfg.DeviceWriteBW, d.cfg.BufWriteLatency, r)
}

// programPage schedules the flash program of one page on channel ch and
// releases one cache credit when it completes.
func (d *Device) programPage(ch int) {
	cr := d.chans[ch]
	cr.writeBus.SubmitEvent(int64(d.cfg.BlockSize)*sim.Second/d.cfg.ChannelWriteBW, (*pageOnBus)(cr))
}

// criticalWater is the free-block floor below which user allocation stalls
// (the "write cliff" every flash device exhibits): GC must be guaranteed
// headroom for its own migration blocks.
func (d *Device) criticalWater() int {
	w := d.cfg.GCLowWater / 2
	if w < 2 {
		w = 2
	}
	return w
}

// allocWhenSafe programs r at once when free blocks are above the critical
// watermark, or parks it until GC frees space. Parked writes resume in FIFO
// order, and only stall while GC can actually make progress.
func (d *Device) allocWhenSafe(r *req) {
	if len(d.freeList) > d.criticalWater() || d.pickVictim() < 0 {
		r.program()
		return
	}
	d.stalled.Push(r)
	d.maybeStartGC()
}

func (d *Device) releaseStalled() {
	for d.stalled.Len() > 0 && (len(d.freeList) > d.criticalWater() || d.pickVictim() < 0) {
		d.stalled.Pop().program()
	}
}

// need is the cache credit a write asks for. Requests larger than the cache
// admit at full-cache granularity (the real device streams them through);
// otherwise they could never enter.
func (r *req) need() int64 { return min(r.n, r.d.cfg.CacheBlocks) }

func (d *Device) acquireCache(r *req) {
	if d.waiters.Len() == 0 && d.cacheCredit >= r.need() {
		d.cacheCredit -= r.need()
		d.allocWhenSafe(r)
		return
	}
	d.waiters.Push(r)
}

func (d *Device) releaseCache(n int64) {
	d.cacheCredit += n
	for d.waiters.Len() > 0 && d.cacheCredit >= d.waiters.Peek().need() {
		r := d.waiters.Pop()
		d.cacheCredit -= r.need()
		d.allocWhenSafe(r)
	}
}

// Read implements blockdev.Device.
func (d *Device) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	start := d.eng.Now()
	n := int64(nblocks)
	if !blockdev.InRange(lba, nblocks, d.logicalPages) {
		sim.Deliver(d.eng, d.cfg.CmdOverhead, done,
			blockdev.ReadResult{Err: blockdev.ErrOutOfRange, Latency: d.cfg.CmdOverhead})
		return
	}
	// Route the read through the channel of the first mapped page (reads of
	// a multi-page span touch several channels; one-channel routing is a
	// conservative simplification).
	ch := int(lba) % d.cfg.NumChannels
	if ppn := d.ppnOf(lba); ppn != invalidPPN {
		ch = d.blocks[ppn/int64(d.cfg.PagesPerBlock)].channel
	}
	r := d.getReq()
	r.stage, r.lba, r.n, r.ch, r.start, r.rdone = rCtrl, lba, n, ch, start, done
	r.span = d.tr.SpanBegin(int64(start), obs.LayerFTL, obs.OpRead, d.trDev, -1, lba, n)
	d.controller.SubmitEvent(d.cfg.CmdOverhead, r)
}

// Trim implements blockdev.Device: unmaps the range without flash traffic.
func (d *Device) Trim(lba int64, nblocks int) {
	for i := int64(0); i < int64(nblocks); i++ {
		lpn := lba + i
		if lpn < 0 || lpn >= d.logicalPages {
			continue
		}
		if old := d.ppnOf(lpn); old != invalidPPN {
			d.p2l.Delete(old)
			d.blocks[old/int64(d.cfg.PagesPerBlock)].valid--
			d.l2p.Delete(lpn)
		}
	}
}

// maybeStartGC launches the background collector when free blocks drop
// below the low watermark.
func (d *Device) maybeStartGC() {
	if d.gcRunning || len(d.freeList) >= d.cfg.GCLowWater {
		return
	}
	d.gcRunning = true
	d.eng.After(0, d.gcStep)
}

// gcStep collects one victim block: reads its valid pages, programs them to
// GC-active blocks (interfering with user I/O on the shared channels —
// the device-hidden latency spikes of §2.3), then erases the victim.
func (d *Device) gcStep() {
	if len(d.freeList) >= d.cfg.GCHighWater {
		d.gcRunning = false
		return
	}
	victim := d.pickVictim()
	if victim < 0 {
		d.gcRunning = false
		return
	}
	// Migration may need a fresh GC block mid-victim; hold off until an
	// in-flight erase restores stock rather than overdrawing the free list.
	// With none in flight nothing would wake the collector, so it goes on.
	if d.blocks[victim].valid > 0 && len(d.freeList) < 2 && d.erasing > 0 {
		d.gcWaiting = true
		return
	}
	d.gcEvents++
	if d.tr != nil {
		d.tr.Event(int64(d.eng.Now()), obs.LayerFTL, obs.EvGCVictim, d.trDev, victim,
			int64(d.blocks[victim].valid), int64(len(d.freeList)), 0)
	}
	fb := &d.blocks[victim]
	fb.full = false // withdraw from victim candidacy while collecting
	base := int64(victim) * int64(d.cfg.PagesPerBlock)
	var migrate []int64
	for p := int64(0); p < int64(d.cfg.PagesPerBlock); p++ {
		if d.p2l.Get(base+p) != 0 {
			migrate = append(migrate, base+p)
		}
	}
	size := int64(d.cfg.BlockSize)
	finishVictim := func(error) {
		// Erase occupies the victim channel's dies; the next victim is
		// collected concurrently so erases on different channels overlap.
		cr := d.chans[fb.channel]
		left := d.cfg.DiesPerChannel
		d.erasing++
		for i := 0; i < d.cfg.DiesPerChannel; i++ {
			end := cr.dies.SubmitEvent(d.cfg.EraseLatency, nil)
			d.eng.At(end, func() {
				d.tr.Segment(int64(end-d.cfg.EraseLatency), int64(end), obs.LayerFTL, obs.SegErase, d.trDev, victim, fb.channel, 0)
				left--
				if left > 0 {
					return
				}
				d.erasing--
				fb.free = true
				fb.nextPage = 0
				if d.pages != nil {
					d.pages[victim].Erase()
				}
				fb.erases++
				d.erases++
				d.freeList = append(d.freeList, victim)
				d.releaseStalled()
				if d.gcWaiting {
					d.gcWaiting = false
					d.eng.After(0, d.gcStep)
				}
			})
		}
		d.eng.After(0, d.gcStep)
	}
	moved := sim.NewFanIn(finishVictim)
	moved.Add(len(migrate))
	for _, ppn := range migrate {
		lpn := int64(d.p2l.Get(ppn)) - 1
		newPPN, ch := d.allocPage(lpn, true)
		d.mapPage(lpn, newPPN)
		if d.pages != nil {
			d.storePage(newPPN, d.loadPage(ppn))
		}
		// Read old page then program new page.
		src := d.chans[fb.channel]
		d.eng.At(src.readBus.SubmitEvent(size*sim.Second/d.cfg.ChannelReadBW, nil), func() {
			d.eng.At(src.dies.SubmitEvent(d.cfg.DieReadLatency+size*sim.Second/d.cfg.DieReadBW, nil), func() {
				dst := d.chans[ch]
				d.eng.At(dst.writeBus.SubmitEvent(size*sim.Second/d.cfg.ChannelWriteBW, nil), func() {
					d.eng.At(dst.dies.SubmitEvent(size*sim.Second/d.cfg.DieWriteBW, nil), func() {
						d.programmed += uint64(size)
						d.gcMigrated += uint64(size)
						moved.Done(nil)
					})
				})
			})
		})
	}
	if moved.Seal() == 0 {
		finishVictim(nil)
	}
}

// pickVictim returns the full block with the fewest valid pages (greedy),
// or -1 when no block is collectible.
func (d *Device) pickVictim() int {
	best, bestValid := -1, d.cfg.PagesPerBlock+1
	for i := range d.blocks {
		fb := &d.blocks[i]
		if fb.free || !fb.full {
			continue
		}
		// Skip active blocks.
		if fb.valid < bestValid {
			best, bestValid = i, fb.valid
		}
	}
	return best
}

// ResetAccounting zeroes the device's traffic counters.
func (d *Device) ResetAccounting() {
	d.userWritten, d.programmed, d.gcMigrated = 0, 0, 0
	d.erases, d.gcEvents = 0, 0
}
