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

// stripeEntry is one stripe of the cache and, once flushStripe has taken it
// out, the record of that flush until its member writes are issued: the
// old copies a partial stripe reads first report to the fan-in it carries.
// Recycled with its page vectors and its callbacks.
type stripeEntry struct {
	a          *Array
	live       bool
	stripe     int64
	dirty      []bool       // per page of stripe data
	data       [][]byte     // per page payload; nil until a write carries one
	filled     int          // dirty pages
	prev, next *stripeEntry // the LRU ring, while cached

	waiter  *sim.FanIn                // whoever asked for the flush, or nil
	reads   sim.FanIn                 // read-modify-write: the old copies
	onOld   func(blockdev.ReadResult) // e.oldRead
	onReads func(error)               // e.rmwWrite
}

// memberWrite is one member write of a flush in flight: the bytes it gives
// back to the flush budget and, if somebody waits for the flush, their
// fan-in, of which it is one part. Recycled; put back before either hears.
type memberWrite struct {
	a      *Array
	live   bool
	nbytes int64
	waiter *sim.FanIn
	onDone func(blockdev.WriteResult) // m.complete
}

// writeReq is one block-interface Write from the stripe-head stage, whose
// event it is, to the acknowledgement: parked on ackWaiters while flush
// traffic is over budget or, writing through, waiting on its fan-in for
// the flushes of the stripes it touched. Put back before the caller's
// callback runs.
type writeReq struct {
	a       *Array
	live    bool
	start   sim.Time
	done    func(blockdev.WriteResult)
	lba     int64
	nblocks int
	full    []int64 // stripes this request completed; capacity kept
	f       sim.FanIn
	onAll   func(error) // w.ack
}

// readReq is one block-interface Read, the event of its stripe-head stage:
// runs are its member reads, parts[i] the completion slot of runs[i]
// (slots and capacity kept). Put back before the caller's callback runs.
type readReq struct {
	a     *Array
	live  bool
	start sim.Time
	done  func(blockdev.ReadResult)
	buf   []byte // the result; nil when the members store no data
	f     sim.FanIn
	runs  blockdev.Runs
	parts []*readPart
	onAll func(error) // rd.finish
}

// readPart is the completion slot of one run: where in the result its
// blocks land.
type readPart struct {
	rd     *readReq
	at     int64                     // byte offset in rd.buf
	onDone func(blockdev.ReadResult) // p.complete
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
	lru      stripeEntry // sentinel of the ring of cached entries: next = MRU, prev = oldest
	capacity int         // stripes
	affected []bool      // markAffected's result: the parity pages a flush touches

	storesData bool // every member retains payloads

	userBytes  uint64
	dataOut    uint64
	parityOut  uint64
	rmwReads   uint64 // bytes read back for read-modify-write parity
	timerArmed bool
	onTimer    func() // a.timerFlush

	// flushErrs counts member write failures during flushes — always a
	// bug in the stack below, surfaced for tests and diagnostics.
	flushErrs uint64

	// Flush backpressure: bytes handed to members but not yet completed.
	// Acks stall above the limit, so the members' real drain rate bounds
	// the array instead of hiding behind the volatile cache.
	inflightFlush int64
	maxInflight   int64
	ackWaiters    fifo.Queue[*writeReq]

	// Recycled records and how many of each were ever made.
	entryFree  []*stripeEntry
	memberFree []*memberWrite
	writeFree  []*writeReq
	readFree   []*readReq
	made       struct{ entry, member, write, read int }
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
		capacity: capacity,
		affected: make([]bool, cfg.ChunkBlocks),

		storesData: true,
	}
	a.lru.prev, a.lru.next = &a.lru, &a.lru
	a.onTimer = a.timerFlush
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

// FlushErrors reports member write failures during flushes (must be zero
// on a healthy stack).
func (a *Array) FlushErrors() uint64 { return a.flushErrs }

// pageCount of a stripe's data region.
func (a *Array) stripePages() int { return int(a.layout.StripeBlocks()) }

func (a *Array) getEntry() *stripeEntry {
	n := len(a.entryFree)
	if n == 0 {
		a.made.entry++
		e := &stripeEntry{a: a, live: true, dirty: make([]bool, a.stripePages())}
		e.onOld, e.onReads = e.oldRead, e.rmwWrite
		return e
	}
	e := a.entryFree[n-1]
	a.entryFree = a.entryFree[:n-1]
	e.live = true
	return e
}

// putEntry recycles an entry whose flush has issued its member writes,
// dropping its pages.
func (a *Array) putEntry(e *stripeEntry) {
	if !e.live {
		panic("mdraid: stripe entry put twice")
	}
	clear(e.dirty)
	clear(e.data)
	e.live, e.filled, e.waiter = false, 0, nil
	a.entryFree = append(a.entryFree, e)
}

func (a *Array) getMember() *memberWrite {
	n := len(a.memberFree)
	if n == 0 {
		a.made.member++
		m := &memberWrite{a: a, live: true}
		m.onDone = m.complete
		return m
	}
	m := a.memberFree[n-1]
	a.memberFree = a.memberFree[:n-1]
	m.live = true
	return m
}

func (a *Array) putMember(m *memberWrite) {
	if !m.live {
		panic("mdraid: member-write record put twice")
	}
	*m = memberWrite{a: a, onDone: m.onDone}
	a.memberFree = append(a.memberFree, m)
}

func (a *Array) getWrite() *writeReq {
	n := len(a.writeFree)
	if n == 0 {
		a.made.write++
		w := &writeReq{a: a, live: true}
		w.onAll = w.ack
		return w
	}
	w := a.writeFree[n-1]
	a.writeFree = a.writeFree[:n-1]
	w.live = true
	return w
}

func (a *Array) putWrite(w *writeReq) {
	if !w.live {
		panic("mdraid: write record put twice")
	}
	*w = writeReq{a: a, full: w.full[:0], onAll: w.onAll}
	a.writeFree = append(a.writeFree, w)
}

func (a *Array) getRead() *readReq {
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

func (a *Array) putRead(rd *readReq) {
	if !rd.live {
		panic("mdraid: read record put twice")
	}
	*rd = readReq{a: a, runs: rd.runs[:0], parts: rd.parts, onAll: rd.onAll}
	a.readFree = append(a.readFree, rd)
}

// Write implements blockdev.Device: pages land in the stripe cache; full
// stripes flush immediately, the rest on pressure or timer.
func (a *Array) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	if !blockdev.CheckWrite(a.eng, lba, nblocks, a.Blocks(), done) {
		return
	}
	w := a.getWrite()
	w.start, w.done, w.lba, w.nblocks = a.eng.Now(), done, lba, nblocks
	bs := int64(a.BlockSize())
	a.userBytes += uint64(nblocks) * uint64(bs)
	a.acct.Charge(cpumodel.CompMdraid, cpumodel.CostSchedule)

	for i := 0; i < nblocks; i++ {
		stripe, chunk, off := a.layout.Locate(lba + int64(i))
		page := int(int64(chunk)*a.cfg.ChunkBlocks + off)
		e := a.entry(stripe)
		if !e.dirty[page] {
			e.dirty[page] = true
			e.filled++
		}
		if data != nil {
			if e.data == nil {
				e.data = make([][]byte, a.stripePages())
			}
			e.data[page] = append([]byte(nil), data[int64(i)*bs:(int64(i)+1)*bs]...)
		}
		a.lruFront(e)
		if e.filled == a.stripePages() {
			w.full = append(w.full, stripe)
		}
	}
	// Serialized stripe-head stage: per-page processing cost gates the ack.
	a.head.SubmitEvent(a.cfg.PageCost*sim.Time(nblocks), w)
}

// Fire implements sim.Handler: the stripe-head stage has processed w.
func (w *writeReq) Fire(_, _ sim.Time) {
	if !w.live {
		panic("mdraid: write record used after put")
	}
	a := w.a
	for _, s := range w.full {
		if e, ok := a.cache[s]; ok && e.filled == a.stripePages() {
			a.flushStripe(e, nil)
		}
	}
	a.evictOverflow()
	if a.cfg.AckFromCache {
		// Volatile-cache ack, but bounded: when flush traffic backs up
		// past the cache budget, acks wait for the members to drain.
		if a.inflightFlush <= a.maxInflight && a.ackWaiters.Len() == 0 {
			w.ack(nil)
			return
		}
		a.ackWaiters.Push(w)
		return
	}
	// Write-through: flush everything this request touched and ack
	// after members complete.
	w.f.Arm(w.onAll)
	first, _, _ := a.layout.Locate(w.lba)
	last, _, _ := a.layout.Locate(w.lba + int64(w.nblocks) - 1)
	for s := first; s <= last; s++ {
		if e, ok := a.cache[s]; ok {
			a.flushStripe(e, &w.f)
		}
	}
	if w.f.Seal() == 0 {
		w.ack(nil)
	}
}

func (w *writeReq) ack(err error) {
	a := w.a
	done, res := w.done, blockdev.WriteResult{Err: err, Latency: a.eng.Now() - w.start}
	a.putWrite(w)
	if done != nil {
		done(res)
	}
}

// lruFront makes e the most recently written entry of the ring, which it
// may or may not be on yet.
func (a *Array) lruFront(e *stripeEntry) {
	if a.lru.next == e {
		return
	}
	if e.next != nil {
		lruRemove(e)
	}
	e.prev, e.next = &a.lru, a.lru.next
	e.prev.next, e.next.prev = e, e
}

// lruRemove takes e off the ring.
func lruRemove(e *stripeEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (a *Array) entry(stripe int64) *stripeEntry {
	e, ok := a.cache[stripe]
	if !ok {
		e = a.getEntry()
		e.stripe = stripe
		a.lruFront(e)
		a.cache[stripe] = e
		// Arm the volatile-buffer flush timer only while dirty stripes
		// exist, so an idle array quiesces (and simulations drain).
		if a.cfg.FlushInterval > 0 && !a.timerArmed {
			a.timerArmed = true
			a.eng.After(a.cfg.FlushInterval, a.onTimer)
		}
	}
	return e
}

func (a *Array) releaseInflight(n int64) {
	a.inflightFlush -= n
	for a.ackWaiters.Len() > 0 && a.inflightFlush <= a.maxInflight {
		a.ackWaiters.Pop().ack(nil)
	}
}

func (a *Array) evictOverflow() {
	for len(a.cache) > a.capacity {
		a.flushStripe(a.lru.prev, nil)
	}
}

func (a *Array) timerFlush() {
	// Flush every dirty stripe, oldest first, then disarm until the next
	// write dirties the cache again.
	for len(a.cache) > 0 {
		a.flushStripe(a.lru.prev, nil)
	}
	a.timerArmed = false
}

// nextRun returns the first maximal run of set pages at or after from: its
// first page and its length, 0 when none is left.
func nextRun(pages []bool, from int) (first, n int) {
	for first = from; first < len(pages) && !pages[first]; first++ {
	}
	for first+n < len(pages) && pages[first+n] {
		n++
	}
	return first, n
}

// markAffected sets a.affected to the parity pages e's dirty pages touch
// and returns how many there are. The vector is the array's, good until the
// next flush computes its own.
func (e *stripeEntry) markAffected() int {
	affected, n := e.a.affected, 0
	clear(affected)
	for p, dirty := range e.dirty {
		if pp := p % len(affected); dirty && !affected[pp] {
			affected[pp] = true
			n++
		}
	}
	return n
}

// flushStripe writes a stripe's dirty pages and its parity to the members.
// Full stripes compute parity from buffered data; partial stripes
// read-modify-write (reading old pages costs member reads — the classic
// RAID 5 small-write penalty). waiter, if not nil, is the fan-in of whoever
// waits for the flush: every member write becomes a part of it, and the
// flush itself holds one more until they are all issued.
func (a *Array) flushStripe(e *stripeEntry, waiter *sim.FanIn) {
	s := e.stripe
	delete(a.cache, s)
	lruRemove(e)
	if e.waiter = waiter; waiter != nil {
		waiter.Add(1)
	}
	bs := int64(a.BlockSize())
	pagesPerChunk := int(a.cfg.ChunkBlocks)
	base := a.layout.DiskOffset(s, 0) // the stripe's chunk on every member
	pmember := a.layout.ParityDisk(s, 0)

	if e.filled == a.stripePages() {
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
		e.writeData()
		a.parityOut += uint64(pagesPerChunk) * uint64(bs)
		e.write(pmember, 0, pagesPerChunk, parity)
		e.issued()
		return
	}

	// Partial stripe: read-modify-write. Read old copies of the dirty
	// pages and the parity pages they affect, then (rmwWrite) write new
	// data and updated parity. The returned payloads only matter for real
	// parity math, which needs the full un-dirty stripe state; this
	// simulation carries write payloads for correctness testing via
	// full-stripe paths and read-back, so RMW parity content is not
	// recomputed here — only its traffic is modeled.
	nreads := e.filled + e.markAffected()
	e.reads.Arm(e.onReads)
	e.reads.Add(nreads)
	a.rmwReads += uint64(nreads) * uint64(bs)
	for p, dirty := range e.dirty {
		if dirty {
			member := a.layout.DataDisk(s, p/pagesPerChunk)
			a.members[member].Read(base+int64(p%pagesPerChunk), 1, e.onOld)
		}
	}
	for pp, hit := range a.affected {
		if hit {
			a.members[pmember].Read(base+int64(pp), 1, e.onOld)
		}
	}
	e.reads.Seal()
}

func (e *stripeEntry) oldRead(blockdev.ReadResult) {
	if !e.live {
		panic("mdraid: stripe entry used after put")
	}
	e.reads.Done(nil)
}

// rmwWrite runs when all old copies of a partial stripe are in: write the
// new data and the parity deltas.
func (e *stripeEntry) rmwWrite(error) {
	a, bs := e.a, int64(e.a.BlockSize())
	a.acct.ChargeParity(cpumodel.CompMdraid, int64(e.filled)*bs*2)
	e.writeData()
	pmember := a.layout.ParityDisk(e.stripe, 0)
	e.markAffected()
	for pp, n := nextRun(a.affected, 0); n > 0; pp, n = nextRun(a.affected, pp+n) {
		a.parityOut += uint64(n) * uint64(bs)
		e.write(pmember, pp, n, nil)
	}
	e.issued()
}

// writeData coalesces each chunk's consecutive dirty pages into member
// writes (the block layer's request merging; conventional SSDs benefit,
// dm-zap members will re-split internally — matching §5.2's 64 KiB
// explanation).
func (e *stripeEntry) writeData() {
	a, bs := e.a, int64(e.a.BlockSize())
	pagesPerChunk := int(a.cfg.ChunkBlocks)
	for c := 0; c < a.layout.DataDisks(); c++ {
		member, at := a.layout.DataDisk(e.stripe, c), c*pagesPerChunk
		chunk := e.dirty[at : at+pagesPerChunk]
		for p, n := nextRun(chunk, 0); n > 0; p, n = nextRun(chunk, p+n) {
			var buf []byte
			if e.data != nil && anyData(e.data[at+p:at+p+n]) {
				buf = make([]byte, int64(n)*bs)
				for k, d := range e.data[at+p : at+p+n] {
					copy(buf[int64(k)*bs:], d)
				}
			}
			e.write(member, p, n, buf)
			a.dataOut += uint64(n) * uint64(bs)
		}
	}
}

// write issues one member write of n pages at page of the member's chunk.
func (e *stripeEntry) write(member, page, n int, buf []byte) {
	a := e.a
	m := a.getMember()
	m.nbytes = int64(n) * int64(a.BlockSize())
	if m.waiter = e.waiter; m.waiter != nil {
		m.waiter.Add(1)
	}
	a.acct.Charge(cpumodel.CompIO, cpumodel.CostSubmission)
	a.inflightFlush += m.nbytes
	a.members[member].Write(a.layout.DiskOffset(e.stripe, 0)+int64(page), n, buf, m.onDone)
}

// issued ends e's part in its flush: every member write is on its way, so
// the entry goes back and the waiter's hold drops.
func (e *stripeEntry) issued() {
	waiter := e.waiter
	e.a.putEntry(e)
	if waiter != nil {
		waiter.Done(nil)
	}
}

func (m *memberWrite) complete(r blockdev.WriteResult) {
	a, nbytes, waiter := m.a, m.nbytes, m.waiter
	a.putMember(m)
	if r.Err != nil {
		a.flushErrs++
	}
	a.releaseInflight(nbytes)
	if waiter != nil {
		waiter.Done(r.Err)
	}
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
	rd := a.getRead()
	rd.start, rd.done = a.eng.Now(), done
	if a.StoresData() {
		rd.buf = make([]byte, int64(nblocks)*bs)
	}
	for i := 0; i < nblocks; i++ {
		stripe, chunk, off := a.layout.Locate(lba + int64(i))
		page := int(int64(chunk)*a.cfg.ChunkBlocks + off)
		if e, ok := a.cache[stripe]; ok && e.dirty[page] {
			// Members that store nothing leave no buffer to serve a cached
			// payload into.
			if rd.buf != nil && e.data != nil && e.data[page] != nil {
				copy(rd.buf[int64(i)*bs:], e.data[page])
			}
			continue
		}
		rd.runs.Add(a.layout.DataDisk(stripe, chunk), a.layout.DiskOffset(stripe, off), i)
	}
	a.head.SubmitEvent(a.cfg.PageCost*sim.Time(nblocks)/2, rd)
}

// Fire implements sim.Handler: the stripe-head stage has processed rd.
func (rd *readReq) Fire(_, _ sim.Time) {
	if !rd.live {
		panic("mdraid: read record used after put")
	}
	a, bs := rd.a, int64(rd.a.BlockSize())
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
		a.members[r.Unit].Read(r.Off, r.Blocks, p.onDone)
	}
	if rd.f.Seal() == 0 {
		rd.finish(nil)
	}
}

func (p *readPart) complete(res blockdev.ReadResult) {
	rd := p.rd
	if !rd.live {
		panic("mdraid: read record used after put")
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
