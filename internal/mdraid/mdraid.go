// Package mdraid models the Linux software-RAID engine (md raid5) the
// paper uses as its conventional baseline, with the ScalaRAID-style lock
// improvements the authors integrated (§5.1). Behaviour reproduced:
//
//   - requests are split into 4 KiB pages and gathered in a host-DRAM
//     stripe cache; full stripes flush with computed parity, partial
//     stripes flush via read-modify-write (extra member reads);
//   - the cache is volatile, so a periodic timer flushes dirty stripes —
//     the endurance compensation §5.4 describes;
//   - a serialized stripe-head processing stage charges per-page CPU cost,
//     the residual software bottleneck that keeps even improved mdraid
//     from exhausting modern SSDs (§5.2, Fig. 10's 192 KiB results).
package mdraid

import (
	"container/list"
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/cpumodel"
	"biza/internal/erasure"
	"biza/internal/fifo"
	"biza/internal/metrics"
	"biza/internal/raid"
	"biza/internal/sim"
)

// Config tunes the engine.
type Config struct {
	// ChunkBlocks is the stripe unit in blocks (default 16 = 64 KiB).
	ChunkBlocks int64
	// StripeCacheBytes bounds the write buffer (data pages held in DRAM).
	StripeCacheBytes int64
	// FlushInterval drains dirty stripes periodically (volatile-buffer
	// compensation). Zero disables the timer (then only pressure and
	// full-stripe completion flush).
	FlushInterval sim.Time
	// PageCost is the serialized per-4KiB-page processing cost of the
	// stripe-head stage — the engine's software throughput cap.
	PageCost sim.Time
	// AckFromCache acknowledges writes once buffered (volatile, fast) —
	// matching the paper's write-buffer configuration. When false, acks
	// wait for member completion.
	AckFromCache bool
}

// DefaultConfig returns the calibration used by the benchmarks: 64 KiB
// chunks, 56 MB stripe cache (the paper's §5.4 setting), 10 ms flush
// interval, and a per-page cost that caps the array near 4.3 GB/s.
func DefaultConfig() Config {
	return Config{
		ChunkBlocks:      16,
		StripeCacheBytes: 56 << 20,
		FlushInterval:    10 * sim.Millisecond,
		PageCost:         950 * sim.Nanosecond,
		AckFromCache:     true,
	}
}

type stripeEntry struct {
	stripe int64
	dirty  []bool   // per page of stripe data
	data   [][]byte // per page payload (nil entries when payloads omitted)
	filled int
	elem   *list.Element
}

// Array is the mdraid engine over conventional block members. It
// implements blockdev.Device.
type Array struct {
	cfg     Config
	members []blockdev.Device
	layout  *raid.Layout
	eng     *sim.Engine
	acct    *cpumodel.Accountant

	head *sim.Resource // serialized stripe-head processing

	cache    map[int64]*stripeEntry
	lru      *list.List // front = MRU
	capacity int        // stripes

	storesData bool // every member retains payloads

	userBytes  uint64
	dataOut    uint64
	parityOut  uint64
	rmwReads   uint64
	timerArmed bool

	// flushErrs counts member write failures during flushes — always a
	// bug in the stack below, surfaced for tests and diagnostics.
	flushErrs uint64

	// Flush backpressure: bytes handed to members but not yet completed.
	// Acks stall above the limit, so the members' real drain rate bounds
	// the array instead of hiding behind the volatile cache.
	inflightFlush int64
	maxInflight   int64
	ackWaiters    fifo.Queue[func(error)]
}

// New builds the array; members must share geometry. eng drives timers.
func New(eng *sim.Engine, members []blockdev.Device, cfg Config, acct *cpumodel.Accountant) (*Array, error) {
	if len(members) < 3 {
		return nil, fmt.Errorf("mdraid: need >= 3 members, got %d", len(members))
	}
	bs := members[0].BlockSize()
	blocks := members[0].Blocks()
	for _, m := range members[1:] {
		if m.BlockSize() != bs || m.Blocks() != blocks {
			return nil, fmt.Errorf("mdraid: heterogeneous members")
		}
	}
	if cfg.ChunkBlocks < 1 {
		return nil, fmt.Errorf("mdraid: ChunkBlocks %d", cfg.ChunkBlocks)
	}
	layout, err := raid.NewLayout(len(members), 1, cfg.ChunkBlocks)
	if err != nil {
		return nil, err
	}
	if acct == nil {
		acct = &cpumodel.Accountant{}
	}
	stripeDataBytes := layout.StripeBlocks() * int64(bs)
	capacity := int(cfg.StripeCacheBytes / stripeDataBytes)
	if capacity < 1 {
		capacity = 1
	}
	a := &Array{
		cfg:      cfg,
		members:  members,
		layout:   layout,
		eng:      eng,
		acct:     acct,
		head:     sim.NewResource(eng, 1),
		cache:    make(map[int64]*stripeEntry),
		lru:      list.New(),
		capacity: capacity,

		storesData: true,
	}
	for _, m := range members {
		a.storesData = a.storesData && blockdev.StoresData(m)
	}
	a.maxInflight = cfg.StripeCacheBytes
	if a.maxInflight < stripeDataBytes*4 {
		a.maxInflight = stripeDataBytes * 4
	}
	return a, nil
}

// BlockSize implements blockdev.Device.
func (a *Array) BlockSize() int { return a.members[0].BlockSize() }

// StoresData implements blockdev.DataStorer: reads return payloads only
// when every member retains them.
func (a *Array) StoresData() bool { return a.storesData }

// Blocks implements blockdev.Device: data capacity across members.
func (a *Array) Blocks() int64 {
	stripes := a.members[0].Blocks() / a.cfg.ChunkBlocks
	return stripes * a.layout.StripeBlocks()
}

// WriteAmp reports engine-level traffic (member/device counters hold the
// flash truth).
func (a *Array) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:        a.userBytes,
		FlashDataBytes:   a.dataOut,
		FlashParityBytes: a.parityOut,
	}
}

// RMWReads reports bytes read back for read-modify-write parity updates.
func (a *Array) RMWReads() uint64 { return a.rmwReads }

// FlushErrors reports member write failures during flushes (must be zero
// on a healthy stack).
func (a *Array) FlushErrors() uint64 { return a.flushErrs }

// pageCount of a stripe's data region.
func (a *Array) stripePages() int { return int(a.layout.StripeBlocks()) }

// Write implements blockdev.Device: pages land in the stripe cache; full
// stripes flush immediately, the rest on pressure or timer.
func (a *Array) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	if !blockdev.CheckWrite(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	ack := blockdev.WriteDone(a.eng, done)
	bs := int64(a.BlockSize())
	a.userBytes += uint64(nblocks) * uint64(bs)
	a.acct.Charge(cpumodel.CompMdraid, cpumodel.CostSchedule)

	var fullStripes []int64
	for i := 0; i < nblocks; i++ {
		stripe, chunk, off := a.layout.Locate(lba + int64(i))
		page := int(int64(chunk)*a.cfg.ChunkBlocks + off)
		e := a.entry(stripe)
		if !e.dirty[page] {
			e.dirty[page] = true
			e.filled++
		}
		if data != nil {
			e.data[page] = append([]byte(nil), data[int64(i)*bs:(int64(i)+1)*bs]...)
		}
		a.lru.MoveToFront(e.elem)
		if e.filled == a.stripePages() {
			fullStripes = append(fullStripes, stripe)
		}
	}
	// Serialized stripe-head stage: per-page processing cost gates the ack.
	a.head.Submit(a.cfg.PageCost*sim.Time(nblocks), func(_, _ sim.Time) {
		for _, s := range fullStripes {
			if e, ok := a.cache[s]; ok && e.filled == a.stripePages() {
				a.flushStripe(e, nil)
			}
		}
		a.evictOverflow()
		if a.cfg.AckFromCache {
			// Volatile-cache ack, but bounded: when flush traffic backs up
			// past the cache budget, acks wait for the members to drain.
			a.ackWhenDrained(ack)
			return
		}
		// Write-through: flush everything this request touched and ack
		// after members complete.
		f := sim.NewFanIn(ack)
		flushed := f.Done
		first, _, _ := a.layout.Locate(lba)
		last, _, _ := a.layout.Locate(lba + int64(nblocks) - 1)
		for s := first; s <= last; s++ {
			if e, ok := a.cache[s]; ok {
				f.Add(1)
				a.flushStripe(e, flushed)
			}
		}
		if f.Seal() == 0 {
			ack(nil)
		}
	})
}

func (a *Array) entry(stripe int64) *stripeEntry {
	e, ok := a.cache[stripe]
	if !ok {
		e = &stripeEntry{
			stripe: stripe,
			dirty:  make([]bool, a.stripePages()),
			data:   make([][]byte, a.stripePages()),
		}
		e.elem = a.lru.PushFront(e)
		a.cache[stripe] = e
		// Arm the volatile-buffer flush timer only while dirty stripes
		// exist, so an idle array quiesces (and simulations drain).
		if a.cfg.FlushInterval > 0 && !a.timerArmed {
			a.timerArmed = true
			a.eng.After(a.cfg.FlushInterval, a.timerFlush)
		}
	}
	return e
}

// ackWhenDrained acknowledges (fn(nil)) immediately while flush traffic is
// within the budget, otherwise once member completions have freed space.
func (a *Array) ackWhenDrained(fn func(error)) {
	if a.inflightFlush <= a.maxInflight && a.ackWaiters.Len() == 0 {
		fn(nil)
		return
	}
	a.ackWaiters.Push(fn)
}

func (a *Array) releaseInflight(n int64) {
	a.inflightFlush -= n
	for a.ackWaiters.Len() > 0 && a.inflightFlush <= a.maxInflight {
		a.ackWaiters.Pop()(nil)
	}
}

func (a *Array) evictOverflow() {
	for len(a.cache) > a.capacity {
		tail := a.lru.Back()
		if tail == nil {
			return
		}
		e := tail.Value.(*stripeEntry)
		a.flushStripe(e, nil)
	}
}

func (a *Array) timerFlush() {
	// Flush every dirty stripe, oldest first, then disarm until the next
	// write dirties the cache again.
	for a.lru.Len() > 0 {
		e := a.lru.Back().Value.(*stripeEntry)
		a.flushStripe(e, nil)
	}
	a.timerArmed = false
}

// pageRuns calls fn(first, n) for each maximal run of consecutive numbers
// in the ascending list pages.
func pageRuns(pages []int, fn func(first, n int)) {
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j] == pages[j-1]+1 {
			j++
		}
		fn(pages[i], j-i)
		i = j
	}
}

// flushStripe writes a stripe's dirty pages and its parity to the members.
// Full stripes compute parity from buffered data; partial stripes
// read-modify-write (reading old pages costs member reads — the classic
// RAID 5 small-write penalty).
func (a *Array) flushStripe(e *stripeEntry, done func(error)) {
	s := e.stripe
	delete(a.cache, s)
	a.lru.Remove(e.elem)
	bs := int64(a.BlockSize())
	full := e.filled == a.stripePages()
	pagesPerChunk := int(a.cfg.ChunkBlocks)
	base := a.layout.DiskOffset(s, 0) // the stripe's chunk on every member
	pmember := a.layout.ParityDisk(s, 0)

	writes := sim.NewFanIn(done)
	// write issues one member write of n pages at page of the member's chunk.
	write := func(member, page, n int, buf []byte) {
		writes.Add(1)
		a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
		nbytes := int64(n) * bs
		a.inflightFlush += nbytes
		a.members[member].Write(base+int64(page), n, buf, func(r blockdev.WriteResult) {
			if r.Err != nil {
				a.flushErrs++
			}
			a.releaseInflight(nbytes)
			writes.Done(r.Err)
		})
	}

	// Gather dirty pages per data chunk.
	type chunkPages struct {
		member int
		pages  []int
	}
	var chunks []chunkPages
	totalDirty := 0
	for c := 0; c < a.layout.DataDisks(); c++ {
		var pages []int
		for p := c * pagesPerChunk; p < (c+1)*pagesPerChunk; p++ {
			if e.dirty[p] {
				pages = append(pages, p)
			}
		}
		if len(pages) > 0 {
			chunks = append(chunks, chunkPages{member: a.layout.DataDisk(s, c), pages: pages})
			totalDirty += len(pages)
		}
	}
	// writeData coalesces each chunk's consecutive dirty pages into member
	// writes (the block layer's request merging; conventional SSDs benefit,
	// dm-zap members will re-split internally — matching §5.2's 64 KiB
	// explanation).
	writeData := func() {
		for _, cp := range chunks {
			pageRuns(cp.pages, func(first, n int) {
				var buf []byte
				if run := e.data[first : first+n]; anyData(run) {
					buf = make([]byte, int64(n)*bs)
					for k, d := range run {
						copy(buf[int64(k)*bs:], d)
					}
				}
				write(cp.member, first%pagesPerChunk, n, buf)
			})
			a.dataOut += uint64(len(cp.pages)) * uint64(bs)
		}
	}

	if full {
		// Full-stripe write: parity per parity-chunk page = XOR of the
		// same page index across data chunks.
		a.acct.ChargeParity(cpumodel.CompMdraid, a.layout.StripeBlocks()*bs)
		var parity []byte
		if anyData(e.data) {
			parity = make([]byte, int64(pagesPerChunk)*bs)
			for pp := 0; pp < pagesPerChunk; pp++ {
				dst := parity[int64(pp)*bs : int64(pp+1)*bs]
				for c := 0; c < a.layout.DataDisks(); c++ {
					if d := e.data[c*pagesPerChunk+pp]; d != nil {
						erasure.XORInto(dst, d)
					}
				}
			}
		}
		writeData()
		a.parityOut += uint64(pagesPerChunk) * uint64(bs)
		write(pmember, 0, pagesPerChunk, parity)
		writes.Seal()
		return
	}

	// Partial stripe: read-modify-write. Read old copies of the dirty
	// pages and the parity pages they affect, then write new data and
	// updated parity.
	var ppages []int // parity pages the dirty pages affect, ascending
	affected := make([]bool, pagesPerChunk)
	for _, cp := range chunks {
		for _, p := range cp.pages {
			affected[p%pagesPerChunk] = true
		}
	}
	for pp, hit := range affected {
		if hit {
			ppages = append(ppages, pp)
		}
	}
	reads := sim.NewFanIn(func(error) {
		// All old copies in; write new data and parity deltas.
		a.acct.ChargeParity(cpumodel.CompMdraid, int64(totalDirty)*bs*2)
		writeData()
		pageRuns(ppages, func(first, n int) {
			a.parityOut += uint64(n) * uint64(bs)
			write(pmember, first, n, nil)
		})
		writes.Seal()
	})
	// Old-data reads: one per dirty page plus affected parity pages. The
	// returned payloads only matter for real parity math, which needs the
	// full un-dirty stripe state; this simulation carries write payloads
	// for correctness testing via full-stripe paths and read-back, so RMW
	// parity content is not recomputed here — only its traffic is modeled.
	reads.Add(totalDirty + len(ppages))
	a.rmwReads += uint64(totalDirty+len(ppages)) * uint64(bs)
	old := func(blockdev.ReadResult) { reads.Done(nil) }
	for _, cp := range chunks {
		for _, p := range cp.pages {
			a.members[cp.member].Read(base+int64(p%pagesPerChunk), 1, old)
		}
	}
	for _, pp := range ppages {
		a.members[pmember].Read(base+int64(pp), 1, old)
	}
	reads.Seal()
}

func anyData(pages [][]byte) bool {
	for _, p := range pages {
		if p != nil {
			return true
		}
	}
	return false
}

// Read implements blockdev.Device: dirty cached pages are served from the
// stripe cache; the rest from members, coalesced per member.
func (a *Array) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	if !blockdev.CheckRead(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	bs := int64(a.BlockSize())
	var buf []byte
	if a.StoresData() {
		buf = make([]byte, int64(nblocks)*bs)
	}
	complete := blockdev.ReadDone(a.eng, buf, done)
	var runs blockdev.Runs
	for i := 0; i < nblocks; i++ {
		stripe, chunk, off := a.layout.Locate(lba + int64(i))
		page := int(int64(chunk)*a.cfg.ChunkBlocks + off)
		if e, ok := a.cache[stripe]; ok && e.dirty[page] {
			if e.data[page] != nil {
				copy(buf[int64(i)*bs:], e.data[page])
			}
			continue
		}
		runs.Add(a.layout.DataDisk(stripe, chunk), a.layout.DiskOffset(stripe, off), i)
	}
	a.head.Submit(a.cfg.PageCost*sim.Time(nblocks)/2, func(_, _ sim.Time) {
		f := sim.NewFanIn(complete)
		f.Add(len(runs))
		for _, r := range runs {
			at := int64(r.At) * bs
			a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
			a.members[r.Unit].Read(r.Off, r.Blocks, func(res blockdev.ReadResult) {
				if res.Data != nil {
					copy(buf[at:], res.Data)
				}
				f.Done(res.Err)
			})
		}
		if f.Seal() == 0 {
			complete(nil)
		}
	})
}

// Trim implements blockdev.Device, forwarding page invalidations.
func (a *Array) Trim(lba int64, nblocks int) {
	for i := 0; i < nblocks; i++ {
		stripe, chunk, off := a.layout.Locate(lba + int64(i))
		member := a.layout.DataDisk(stripe, chunk)
		a.members[member].Trim(a.layout.DiskOffset(stripe, off), 1)
	}
}

// ResetAccounting zeroes engine-level traffic counters.
func (a *Array) ResetAccounting() {
	a.userBytes, a.dataOut, a.parityOut, a.rmwReads = 0, 0, 0, 0
}
