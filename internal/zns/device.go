package zns

import (
	"fmt"

	"biza/internal/buf"
	"biza/internal/flash"
	"biza/internal/obs"
	"biza/internal/pagetab"
	"biza/internal/sim"
)

// ZoneState is the NVMe ZNS zone state machine. Its names are
// obs.ZoneStateName's.
type ZoneState uint8

// Zone states.
const (
	ZoneEmpty ZoneState = iota
	ZoneImplicitOpen
	ZoneExplicitOpen
	ZoneClosed
	ZoneFull
	ZoneReadOnly
	ZoneOffline
)

func (s ZoneState) String() string { return obs.ZoneStateName(int64(s)) }

// IsOpen reports whether the state counts against the open-zone limit.
func (s ZoneState) IsOpen() bool { return s == ZoneImplicitOpen || s == ZoneExplicitOpen }

// active reports whether the state counts against the active-zone limit:
// open or closed.
func (s ZoneState) active() bool { return s.IsOpen() || s == ZoneClosed }

// WriteTag classifies write traffic for flash accounting. The device itself
// is oblivious to the distinction; the host engines label their commands so
// experiments can split write amplification into data/parity/GC components.
type WriteTag uint8

// Traffic classes.
const (
	TagUserData WriteTag = iota
	TagParity
	TagGCData
	TagGCParity
	TagMeta
	numTags
)

func (t WriteTag) String() string {
	switch t {
	case TagUserData:
		return "data"
	case TagParity:
		return "parity"
	case TagGCData:
		return "gc-data"
	case TagGCParity:
		return "gc-parity"
	case TagMeta:
		return "meta"
	}
	return "unknown"
}

// WriteResult is the completion of a Write or an Append.
type WriteResult struct {
	Err     error
	LBA     int64 // start block within the zone; an append's is the device's choice
	Latency sim.Time
}

// ReadResult is the completion of a read.
type ReadResult struct {
	Err     error
	Data    []byte   // the destination, filled; nil unless Config.StoreData
	OOB     [][]byte // per-block OOB records when asked for, nil entries for never-written
	Latency sim.Time
}

// FlashStats aggregates flash-level traffic counters.
type FlashStats struct {
	ProgrammedBytes [numTags]uint64 // programmed to flash, by traffic class
	AbsorbedBytes   uint64          // overwrites absorbed in ZRWA (never programmed)
	Erases          uint64
	ReadBytes       uint64
	BufCopiedBytes  uint64 // payload bytes defensively copied into the write buffer
}

// TotalProgrammed reports flash-programmed bytes across all classes.
func (f FlashStats) TotalProgrammed() uint64 {
	var t uint64
	for _, v := range f.ProgrammedBytes {
		t += v
	}
	return t
}

// ProgrammedByTag reports programmed bytes for one traffic class.
func (f FlashStats) ProgrammedByTag(t WriteTag) uint64 { return f.ProgrammedBytes[t] }

// slot is one block in the device write buffer, packed in a byte: its
// write tag, whether it is acked, and a live bit that tells a buffered
// block from the empty slot, which is zero. A live slot at or above the
// zone's wp is dirty; below wp it is committed, its flash program in
// flight. acked marks content whose write completion reached the host:
// power loss hardens acked blocks (capacitor flush) and drops
// unacknowledged ones.
type slot uint8

const (
	slotLive  slot = 1 << 7
	slotAcked slot = 1 << 6
)

func (s slot) live() bool    { return s&slotLive != 0 }
func (s slot) acked() bool   { return s&slotAcked != 0 }
func (s slot) tag() WriteTag { return WriteTag(s &^ (slotLive | slotAcked)) }

// payload is what a read or a program of a buffered block returns, kept
// only on a device with StoreData: without it the buffer holds no payload
// or OOB record, since nothing would read them. When own is non-nil, data
// is a borrowed view into the caller's refcounted buffer (one reference
// held per block) instead of a device-side copy — the zero-copy form of
// the defensive payload copy. Either way the block only lends its bytes:
// the flash store copies them at program time, and the scratch or the
// reference goes back where it came from when the block leaves the buffer
// (unbuffer).
type payload struct {
	data, oob []byte
	own       *buf.Buf // reference pinning data when it is a borrowed view
}

type zone struct {
	idx     int
	state   ZoneState
	zrwa    bool  // opened with ZRWA
	wp      int64 // committed boundary in blocks; ZRWA window starts here
	written int64 // highest block index written + 1 (for reads)
	// buffered is the write buffer by block offset. Dirty blocks lie in
	// [wp, wp+ZRWABlocks) — the ZRWA path admits no write outside it and a
	// commit takes every dirty block below the new wp — and committed ones
	// below wp, wherever a caller driving the device directly put them.
	// With StoreData, payloads holds each buffered block's payload at the
	// same offset; without it, it is nil (and the zone a size class
	// smaller).
	buffered pagetab.Table[slot]
	payloads *pagetab.Table[payload]
	credit   int64 // free buffer slots (blocks)
	// head and tail are the credit FIFO: every delivered ZRWA write not yet
	// granted credit, linked through writeOp.next in controller order,
	// which is the order of their controller completions' keys. armed
	// marks head's completion as in the heap (see admit).
	head, tail *writeOp
	armed      bool
	// store is the flash contents, OOB records included; it keeps nothing
	// without StoreData. Reset erases it.
	store      flash.Store
	eraseCount uint64
	channel    int
}

type channel struct {
	writeBus *sim.Resource // serializes programs on this channel (zone write cap)
	readBus  *sim.Resource
	dies     *sim.Resource // die pipeline shared by reads, programs, erases
}

// Device is a simulated ZNS SSD. All methods must be called from the
// simulation goroutine; completions fire as virtual-time events.
type Device struct {
	cfg   Config
	eng   *sim.Engine
	zones []*zone
	chans []*channel

	controller *sim.Resource
	writeLink  *sim.Resource
	readLink   *sim.Resource

	openCount   int
	activeCount int

	// epoch invalidates in-flight command records across a power loss:
	// each pooled op snapshots it at submission and aborts silently at
	// its next Fire when the device has since power-cycled.
	epoch uint64

	stats FlashStats

	tr    *obs.Trace
	trDev int
	// spanHint carries the caller's span id into the next data-path command
	// (the driver queue sets it just before delivering a command; the
	// simulation is single-goroutine, so it is consumed immediately).
	// hintValid distinguishes "caller traced but sampled out" (hint 0, no
	// device-owned span either) from "caller untraced".
	spanHint  obs.SpanID
	hintValid bool

	// recs are the engine's record free lists, shared by every device on
	// it (see ops.go).
	recs *recs

	// The zones' buffer and payload tables share their pages, and their
	// flash stores their extents (nil without StoreData): a reset zone's
	// go to the next zone to fill.
	bufPages pagetab.Pool[slot]
	payPages pagetab.Pool[payload]
	media    *flash.Pool

	// pool recycles the write buffer's payload and OOB copies (StoreData
	// only). It is the device's own, never the array's: the array pool's
	// Stats are published run output, and device-internal scratch must not
	// move them.
	pool *buf.Pool
}

// New creates a device. The zone-to-channel map is fixed at creation:
// round-robin, with Config.ShuffleFraction of zones remapped pseudo-randomly
// (deterministic in Config.Seed) to model wear-leveling on aged devices.
func New(eng *sim.Engine, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxActiveZone == 0 {
		cfg.MaxActiveZone = 2 * cfg.MaxOpenZones
	}
	d := &Device{
		cfg:        cfg,
		eng:        eng,
		controller: sim.NewResource(eng, 1),
		writeLink:  sim.NewResource(eng, 1),
		readLink:   sim.NewResource(eng, 1),
		pool:       buf.NewPool(),
		recs:       sim.Local[recs](eng),
	}
	d.chans = make([]*channel, cfg.NumChannels)
	for i := range d.chans {
		d.chans[i] = &channel{
			writeBus: sim.NewResource(eng, 1),
			readBus:  sim.NewResource(eng, 1),
			dies:     sim.NewResource(eng, cfg.DiesPerChannel),
		}
	}
	if cfg.StoreData {
		d.media = flash.NewPool(cfg.BlockSize, cfg.OOBBytesPerBlock)
	}
	rng := sim.NewRNG(cfg.Seed ^ 0xb12a)
	d.zones = make([]*zone, cfg.NumZones)
	for i := range d.zones {
		ch := i % cfg.NumChannels
		if cfg.ShuffleFraction > 0 && rng.Float64() < cfg.ShuffleFraction {
			ch = rng.Intn(cfg.NumChannels)
		}
		zn := &zone{idx: i, channel: ch, buffered: d.bufPages.Table(), store: d.media.Store()}
		if cfg.StoreData {
			pl := d.payPages.Table()
			zn.payloads = &pl
		}
		d.zones[i] = zn
	}
	return d, nil
}

// SetTracer attaches an observability trace; dev labels this device in the
// trace. Passing nil detaches.
func (d *Device) SetTracer(tr *obs.Trace, dev int) {
	d.tr = tr
	d.trDev = dev
}

// TraceSpan hints the span id the next data-path command (Write, Read,
// Append) should attach its service marks to. Drivers that own the
// lifecycle span call this immediately before delivering the command.
func (d *Device) TraceSpan(id obs.SpanID) {
	d.spanHint = id
	d.hintValid = true
}

// takeHint consumes the pending span hint.
func (d *Device) takeHint() (obs.SpanID, bool) {
	id, ok := d.spanHint, d.hintValid
	d.spanHint, d.hintValid = 0, false
	return id, ok
}

// setState moves zn to next, keeping the open and active zone counts in
// step, and traces the transition and the open-zone gauge. Re-opening an
// open zone leaves the gauge unsampled.
func (d *Device) setState(zn *zone, next ZoneState) {
	prev := zn.state
	zn.state = next
	d.openCount += b2i(next.IsOpen()) - b2i(prev.IsOpen())
	d.activeCount += b2i(next.active()) - b2i(prev.active())
	if d.tr == nil {
		return
	}
	now := int64(d.eng.Now())
	if prev != next {
		d.tr.Event(now, obs.LayerZNS, obs.EvZoneState, d.trDev, zn.idx, int64(prev), int64(next), 0)
	}
	if !prev.IsOpen() || !next.IsOpen() {
		d.tr.Counter(now, obs.ProbeKey(obs.ProbeOpenZones, d.trDev, 0), int64(d.openCount))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ChannelWriteBusy reports cumulative busy time of channel ch's program
// bus (observability finalizers snapshot it into counter probes).
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

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Stats returns a snapshot of flash traffic counters.
func (d *Device) Stats() FlashStats { return d.stats }

// ResetStats zeroes the traffic counters (experiments call this after
// preconditioning).
func (d *Device) ResetStats() { d.stats = FlashStats{} }

// NumChannels reports the channel count — datasheet-level information a
// host legitimately has. Which zone maps to which channel stays hidden.
func (d *Device) NumChannels() int { return d.cfg.NumChannels }

// TrueChannelOf exposes the hidden zone-to-channel mapping. It exists for
// tests and oracle baselines only; AFA engines must not call it — BIZA's
// whole §4.3 mechanism exists because real devices do not reveal this.
func (d *Device) TrueChannelOf(z int) int { return d.zones[z].channel }

// EraseCount reports how many times zone z has been erased.
func (d *Device) EraseCount(z int) uint64 { return d.zones[z].eraseCount }

// ZoneInfo is the REPORT ZONES view of one zone.
type ZoneInfo struct {
	State      ZoneState
	WritePtr   int64 // committed boundary in blocks
	ZRWA       bool
	Capacity   int64
	EraseCount uint64
}

// Zones reports the zone count.
func (d *Device) Zones() int { return d.cfg.NumZones }

// ZoneInfo returns the current state of zone z (a REPORT ZONES lookup;
// engines should use it sparingly on hot paths — BIZA tracks the window
// host-side instead, §4.4).
func (d *Device) ZoneInfo(z int) (ZoneInfo, error) {
	if z < 0 || z >= len(d.zones) {
		return ZoneInfo{}, ErrBadZone
	}
	zn := d.zones[z]
	return ZoneInfo{
		State:      zn.state,
		WritePtr:   zn.wp,
		ZRWA:       zn.zrwa,
		Capacity:   d.cfg.ZoneBlocks,
		EraseCount: zn.eraseCount,
	}, nil
}

// OpenZones reports how many zones are currently open.
func (d *Device) OpenZones() int { return d.openCount }

func (d *Device) zoneArg(z int) (*zone, error) {
	if z < 0 || z >= len(d.zones) {
		return nil, ErrBadZone
	}
	zn := d.zones[z]
	if zn.state == ZoneOffline {
		return nil, ErrZoneOffline
	}
	return zn, nil
}

// OpenReport opens zone z like Open and additionally returns the zone's
// I/O channel when the device implements the §6 future-ZNS proposal
// (Config.ExposeChannelOnOpen); otherwise the channel is reported as -1,
// exactly as today's opaque devices behave.
func (d *Device) OpenReport(z int, withZRWA bool) (channel int, err error) {
	if err := d.Open(z, withZRWA); err != nil {
		return -1, err
	}
	if !d.cfg.ExposeChannelOnOpen {
		return -1, nil
	}
	return d.zones[z].channel, nil
}

// Open transitions zone z to explicit-open, optionally with ZRWA. Opening a
// closed zone re-opens it (ZRWA cannot be re-enabled on a partially
// written zone in this model). Admin commands are synchronous: their cost
// is negligible next to data-path service times.
func (d *Device) Open(z int, withZRWA bool) error {
	zn, err := d.zoneArg(z)
	if err != nil {
		return err
	}
	if withZRWA && d.cfg.ZRWABlocks == 0 {
		return ErrZRWANotSupported
	}
	switch zn.state {
	case ZoneExplicitOpen, ZoneImplicitOpen:
		d.setState(zn, ZoneExplicitOpen)
		return nil
	case ZoneFull, ZoneReadOnly:
		return ErrWrongState
	case ZoneEmpty:
		if d.openCount >= d.cfg.MaxOpenZones || d.activeCount >= d.cfg.MaxActiveZone {
			return ErrTooManyOpen
		}
	case ZoneClosed:
		if d.openCount >= d.cfg.MaxOpenZones {
			return ErrTooManyOpen
		}
		if withZRWA && zn.wp > 0 {
			return ErrWrongState
		}
	}
	d.setState(zn, ZoneExplicitOpen)
	zn.zrwa = withZRWA
	if withZRWA {
		// Buffer credit equals the window: a block entering the ZRWA must
		// wait for an evicted block's flash program to release its slot.
		// This is what starves a single in-flight writer (Fig. 5) while a
		// deep queue keeps the channel pipeline full. A write still in the
		// controller may now find credit at its completion; one past it
		// waits for the next release, as it always has.
		zn.credit = d.cfg.ZRWABlocks
		d.arm(zn)
	}
	return nil
}

// Close transitions an open zone to closed, committing any ZRWA contents.
func (d *Device) Close(z int) error {
	zn, err := d.zoneArg(z)
	if err != nil {
		return err
	}
	if !zn.state.IsOpen() {
		return ErrWrongState
	}
	if d.waiting(zn) {
		return ErrWrongState
	}
	if zn.zrwa {
		d.commitRange(zn, d.maxDirty(zn)+1, obs.CommitClose)
		zn.zrwa = false
	}
	d.setState(zn, ZoneClosed)
	return nil
}

// Finish commits any buffered contents and transitions the zone to full.
func (d *Device) Finish(z int) error {
	zn, err := d.zoneArg(z)
	if err != nil {
		return err
	}
	switch zn.state {
	case ZoneFull:
		return nil
	case ZoneEmpty, ZoneImplicitOpen, ZoneExplicitOpen, ZoneClosed:
	default:
		return ErrWrongState
	}
	if d.waiting(zn) {
		return ErrWrongState
	}
	if zn.zrwa {
		d.commitRange(zn, d.cfg.ZoneBlocks, obs.CommitFinish)
		zn.zrwa = false
	}
	zn.wp = d.cfg.ZoneBlocks
	d.setState(zn, ZoneFull)
	return nil
}

// CommitZRWA explicitly commits the ZRWA up to (not including) block upTo,
// advancing the committed boundary and scheduling flash programs for the
// dirty blocks in the committed range.
func (d *Device) CommitZRWA(z int, upTo int64) error {
	zn, err := d.zoneArg(z)
	if err != nil {
		return err
	}
	if !zn.state.IsOpen() || !zn.zrwa {
		return ErrWrongState
	}
	if upTo < zn.wp || upTo > zn.wp+d.cfg.ZRWABlocks || upTo > d.cfg.ZoneBlocks {
		return ErrBadRange
	}
	d.commitRange(zn, upTo, obs.CommitExplicit)
	return nil
}

// Reset erases zone z back to empty. The erase occupies the zone's channel
// dies for ResetLatency — the physical reason GC interferes with user I/O
// on the same channel. done (optional) fires when the erase finishes.
func (d *Device) Reset(z int, done func(error)) {
	zn, err := d.zoneArg(z)
	if err != nil || d.waiting(zn) {
		if err == nil {
			err = ErrWrongState
		}
		if done != nil {
			err := err
			d.eng.After(d.cfg.CmdOverhead, func() { done(err) })
		}
		return
	}
	d.setState(zn, ZoneEmpty)
	zn.zrwa = false
	zn.wp = 0
	zn.written = 0
	// The erase discards every buffered block, committed ones included:
	// their programs still in flight store nothing (see programOp). The
	// entries go one by one, so the emptied pages return to the device's
	// pool while the zone keeps its directory, as its store keeps its
	// extent vector, for the refill.
	zn.buffered.Range(func(b int64, _ slot) bool {
		d.unbuffer(zn, b, false)
		return true
	})
	// The writes still in the credit FIFO lost their blocks with the
	// erase, so they take no credit from the zone's next window; the head
	// may now be armed.
	for op := zn.head; op != nil; op = op.next {
		op.need = 0
	}
	zn.credit = 0
	d.arm(zn)
	zn.store.Erase()
	zn.eraseCount++
	d.stats.Erases++
	if d.tr != nil {
		d.tr.Event(int64(d.eng.Now()), obs.LayerZNS, obs.EvZoneReset, d.trDev, zn.idx,
			int64(zn.eraseCount), 0, 0)
	}
	// Erase busies every die on the channel.
	op := d.getResetOp()
	op.zn, op.remaining, op.done = zn, d.cfg.DiesPerChannel, done
	ch := d.chans[zn.channel]
	for i := 0; i < d.cfg.DiesPerChannel; i++ {
		ch.dies.SubmitEvent(d.cfg.ResetLatency, op)
	}
}

// windowEnd is the end of the zone's ZRWA window, above which no block is
// dirty.
func (d *Device) windowEnd(zn *zone) int64 {
	return min(zn.wp+d.cfg.ZRWABlocks, d.cfg.ZoneBlocks)
}

// maxDirty returns the highest dirty block, or wp-1 when none is.
func (d *Device) maxDirty(zn *zone) int64 {
	for b := d.windowEnd(zn) - 1; b >= zn.wp; b-- {
		if zn.buffered.Get(b).live() {
			return b
		}
	}
	return zn.wp - 1
}

// commitRange advances the committed boundary to upTo and schedules flash
// programs for dirty blocks in [old wp, upTo), batching contiguous runs.
// reason tags the observability event (implicit/explicit/close/finish).
func (d *Device) commitRange(zn *zone, upTo int64, reason uint8) {
	if upTo > d.cfg.ZoneBlocks {
		upTo = d.cfg.ZoneBlocks
	}
	if upTo <= zn.wp {
		return
	}
	if d.tr != nil {
		d.tr.Event(int64(d.eng.Now()), obs.LayerZNS, obs.EvZRWACommit, d.trDev, zn.idx,
			upTo, upTo-zn.wp, reason)
	}
	// Every buffered block at or above wp is dirty: a run is a stretch of
	// live slots, cut at maxBatch. A block's tag cannot change once it is
	// below wp, so the run's program counts its blocks by tag here.
	const maxBatch = 16 // 64 KiB batches spread commits across dies
	var run *programOp
	for b, end := zn.wp, min(upTo, d.windowEnd(zn)); b < end; b++ {
		s := zn.buffered.Get(b)
		if !s.live() {
			if run != nil {
				d.program(run)
				run = nil
			}
			continue
		}
		if run == nil {
			run = d.getProgramOp()
			run.zn, run.start = zn, b
		}
		run.n++
		run.tags[s.tag()]++
		if run.n == maxBatch {
			d.program(run)
			run = nil
		}
	}
	if run != nil {
		d.program(run)
	}
	zn.wp = upTo
}

// program schedules the flash program of a run of committed blocks through
// its pooled programOp: channel bus transfer, then a die program. On
// completion it persists data/OOB, counts the traffic, releases buffer
// credit, and admits waiting writes (see ops.go and admit).
func (d *Device) program(op *programOp) {
	op.erase, op.stage = op.zn.eraseCount, pBus
	size := op.n * int64(d.cfg.BlockSize)
	d.chans[op.zn.channel].writeBus.SubmitEvent(size*sim.Second/d.cfg.ChannelWriteBW, op)
}

// A ZRWA write takes buffer credit at the end of its controller stage, in
// delivery order: granted then if nothing waits ahead of it and the credit
// covers it, otherwise when a flash program releases enough. Its controller
// completion is reserved as a ticket (sim.Resource.SubmitTicket) and enters
// the heap only when it will grant: when the write heads the zone's credit
// FIFO and the credit covers it. That is exact. Credit falls only when the
// head is granted, so once it covers an unpassed head it keeps covering it
// until that head's completion, which grants it at the key the event
// always had; a head not covered by then would only have started waiting.
// A Reset zeroes the credit and the need of every write in the FIFO
// together, so an armed head stays covered. What a ticket never armed
// leaves out is an event whose only effect was that wait.

// waiting reports whether a write past its controller stage waits for
// buffer credit.
func (d *Device) waiting(zn *zone) bool {
	op := zn.head
	return op != nil && d.eng.Passed(op.ctrlAt, op.tick)
}

// admit grants credit, in FIFO order, to the writes past their controller
// stage while it covers them, then arms the next one's completion.
func (d *Device) admit(zn *zone) {
	for op := zn.head; op != nil && d.eng.Passed(op.ctrlAt, op.tick); op = zn.head {
		if zn.credit < op.need {
			return
		}
		zn.credit -= op.need
		if zn.head = op.next; zn.head == nil {
			zn.tail = nil
		}
		op.next = nil
		op.creditGranted()
	}
	d.arm(zn)
}

// arm schedules the controller completion of the FIFO's head if the head
// is still in the controller and the credit covers it.
func (d *Device) arm(zn *zone) {
	op := zn.head
	if op == nil || zn.armed || zn.credit < op.need || d.eng.Passed(op.ctrlAt, op.tick) {
		return
	}
	zn.armed = true
	d.eng.AtTicket(op.ctrlAt, op.tick, op, 0, 0)
}

func (d *Device) releaseCredit(zn *zone, n int64) {
	zn.credit += n
	d.admit(zn)
}

// Write submits an async write of nblocks starting at block lba of zone z.
// data, if non-nil, must hold nblocks*BlockSize bytes; oob, if non-nil,
// holds one record per block. Rules:
//
//   - zones opened with ZRWA accept writes anywhere in the window
//     [wp, wp+ZRWABlocks); writes beyond the window implicitly commit (shift)
//     it, writes behind wp fail with ErrOutOfWindow;
//   - zones without ZRWA accept only lba == wp (ErrNotSequential otherwise).
//
// Validation happens at submission order — the order the driver delivers
// commands, which is what makes kernel-level reordering dangerous (§3.2).
func (d *Device) Write(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag WriteTag, done func(WriteResult)) {
	span, hinted := d.takeHint()
	d.write(z, lba, nblocks, data, oob, tag, nil, span, hinted, done)
}

// WriteOwned is Write for refcounted payloads: data must be a view into
// own, and the call transfers exactly one reference. With StoreData, blocks
// parked in the ZRWA buffer hold further references of their own (released
// when their flash program retires), so the device never copies the
// payload; without it they hold none. The
// caller must not mutate the buffer after submission — the device may
// read the view until the last program completes, which is after the
// write acknowledgment.
func (d *Device) WriteOwned(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag WriteTag, own *buf.Buf, done func(WriteResult)) {
	span, hinted := d.takeHint()
	d.write(z, lba, nblocks, data, oob, tag, own, span, hinted, done)
}

// write is the shared body of Write, WriteOwned, and Append, driven by a
// pooled writeOp (see ops.go) instead of a per-command closure chain. own,
// if non-nil, carries one transferred reference pinning data; the op
// releases it on every termination path (putWriteOp).
func (d *Device) write(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag WriteTag,
	own *buf.Buf, span obs.SpanID, hinted bool, done func(WriteResult)) {
	op := d.getWriteOp()
	op.z, op.lba, op.n = z, lba, int64(nblocks)
	op.tag, op.data, op.oob, op.own = tag, data, oob, own
	op.span, op.start, op.done = span, d.eng.Now(), done
	zn, err := d.zoneArg(z)
	if err != nil {
		op.fail(err)
		return
	}
	op.zn = zn
	if zn.state == ZoneReadOnly {
		op.fail(ErrReadOnly)
		return
	}
	if zn.state == ZoneFull {
		op.fail(ErrZoneFull)
		return
	}
	n := op.n
	if nblocks <= 0 || lba < 0 || lba+n > d.cfg.ZoneBlocks {
		op.fail(ErrBadRange)
		return
	}
	if data != nil && int64(len(data)) != n*int64(d.cfg.BlockSize) {
		op.fail(fmt.Errorf("zns: data length %d for %d blocks", len(data), nblocks))
		return
	}
	if d.cfg.StoreData {
		for _, rec := range oob {
			if len(rec) > d.cfg.OOBBytesPerBlock {
				op.fail(fmt.Errorf("zns: OOB record of %d bytes, %d per block", len(rec), d.cfg.OOBBytesPerBlock))
				return
			}
		}
	}
	// Implicit open on first write to an empty/closed zone.
	if zn.state == ZoneEmpty || zn.state == ZoneClosed {
		if d.openCount >= d.cfg.MaxOpenZones ||
			(zn.state == ZoneEmpty && d.activeCount >= d.cfg.MaxActiveZone) {
			op.fail(ErrTooManyOpen)
			return
		}
		d.setState(zn, ZoneImplicitOpen)
	}
	// A device with no traced driver above it owns the span itself.
	if !hinted && d.tr != nil {
		op.span = d.tr.SpanBegin(int64(op.start), obs.LayerZNS, obs.OpWrite, d.trDev, z, lba, n)
		op.ownSpan = true
	}

	op.size = n * int64(d.cfg.BlockSize)
	if !zn.zrwa {
		// Plain sequential path: validate against wp, program directly.
		if lba != zn.wp {
			op.fail(ErrNotSequential)
			return
		}
		zn.wp += n
		if zn.written < zn.wp {
			zn.written = zn.wp
		}
		if zn.wp == d.cfg.ZoneBlocks {
			// Last sequential write fills the zone: full; its open and
			// active slots are both freed.
			d.setState(zn, ZoneFull)
		}
		op.stage = wSeqCtrl
		d.controller.SubmitEvent(d.cfg.CmdOverhead, op)
		return
	}

	// ZRWA path.
	if n > d.cfg.ZRWABlocks {
		op.fail(ErrBadRange)
		return
	}
	if lba < zn.wp {
		op.fail(ErrOutOfWindow)
		return
	}
	if end := lba + n; end > zn.wp+d.cfg.ZRWABlocks {
		// Implicit commit: shift the window right so the write fits.
		d.commitRange(zn, end-d.cfg.ZRWABlocks, obs.CommitImplicit)
	}
	// Count slots needed (first-touch blocks only) and install contents in
	// one pass — buffering happens at validation time, before the command
	// waits for credit, so concurrent in-flight writes see consistent
	// dirty state. One table lookup per block; every block is inside the
	// window here, so whatever is buffered at it is dirty.
	var need int64
	bs := int64(d.cfg.BlockSize)
	for i := int64(0); i < n; i++ {
		b := lba + i
		s := zn.buffered.Ptr(b)
		if !s.live() {
			need++
		} else {
			d.stats.AbsorbedBytes += uint64(d.cfg.BlockSize)
		}
		*s = slotLive | *s&slotAcked | slot(tag)
		if d.cfg.StoreData {
			pl := zn.payloads.Ptr(b)
			if data != nil {
				d.setData(pl, data[i*bs:(i+1)*bs], own)
			}
			if int(i) < len(oob) && oob[i] != nil {
				d.setOOB(pl, oob[i])
			}
		}
	}
	if zn.written < lba+n {
		zn.written = lba + n
	}
	op.need = need
	op.stage = wZCtrl
	op.ctrlAt, op.tick = d.controller.SubmitTicket(d.cfg.CmdOverhead)
	if zn.tail == nil {
		zn.head = op
		d.arm(zn)
	} else {
		zn.tail.next = op
	}
	zn.tail = op
}

// storeDirect programs the blocks of a sequential write into the zone's
// flash store.
func (d *Device) storeDirect(zn *zone, lba int64, nblocks int, data []byte, oob [][]byte) {
	bs := int64(d.cfg.BlockSize)
	for i := int64(0); i < int64(nblocks); i++ {
		var blk, rec []byte
		if data != nil {
			blk = data[i*bs : (i+1)*bs]
		}
		if int(i) < len(oob) {
			rec = oob[i]
		}
		zn.store.Put(lba+i, blk, rec)
	}
}

// Append submits a zone append: the device assigns the write position at
// the current write pointer. Appends are rejected on zones opened with
// ZRWA (NVMe makes the features mutually exclusive).
func (d *Device) Append(z int, nblocks int, data []byte, oob [][]byte, tag WriteTag, done func(WriteResult)) {
	// Consume the caller's span hint now so failed validation cannot leave
	// it armed for an unrelated command; pass it through to the write body.
	span, hinted := d.takeHint()
	fail := func(err error) {
		op := d.getWriteOp()
		op.start, op.done = d.eng.Now(), done
		op.fail(err)
	}
	zn, err := d.zoneArg(z)
	if err != nil {
		fail(err)
		return
	}
	if zn.zrwa {
		fail(ErrAppendWithZRWA)
		return
	}
	if zn.state == ZoneFull || zn.wp+int64(nblocks) > d.cfg.ZoneBlocks {
		fail(ErrZoneFull)
		return
	}
	d.write(z, zn.wp, nblocks, data, oob, tag, nil, span, hinted, done)
}

// Read is ReadInto with a destination the device allocates and no OOB.
func (d *Device) Read(z int, lba int64, nblocks int, done func(ReadResult)) {
	d.ReadInto(z, lba, nblocks, nil, false, done)
}

// ReadInto submits an async read of nblocks starting at block lba of zone
// z. Blocks resident in the ZRWA buffer are served from DRAM; anything else
// takes the flash path through the zone's channel (and therefore contends
// with GC traffic on that channel).
//
// With Config.StoreData the payload is gathered into dst at completion and
// returned as ReadResult.Data; dst must hold nblocks*BlockSize bytes and
// stays the caller's (nil: the device allocates it). withOOB additionally
// copies each block's OOB record into ReadResult.OOB — the zone scan of
// crash recovery is the one reader that wants them. Without StoreData
// neither is touched.
func (d *Device) ReadInto(z int, lba int64, nblocks int, dst []byte, withOOB bool, done func(ReadResult)) {
	op := d.getReadOp()
	op.start = d.eng.Now()
	span, hinted := d.takeHint()
	op.span = span
	op.z, op.lba, op.n = z, lba, int64(nblocks)
	op.done = done
	zn, err := d.zoneArg(z)
	if err != nil {
		op.fail(err)
		return
	}
	op.zn = zn
	n := op.n
	if nblocks <= 0 || lba < 0 || lba+n > d.cfg.ZoneBlocks {
		op.fail(ErrBadRange)
		return
	}
	if d.cfg.StoreData {
		if dst == nil {
			dst = make([]byte, n*int64(d.cfg.BlockSize))
		} else if int64(len(dst)) != n*int64(d.cfg.BlockSize) {
			op.fail(fmt.Errorf("zns: read destination of %d bytes for %d blocks", len(dst), nblocks))
			return
		}
		op.dst = dst
		if withOOB {
			op.oob = make([][]byte, n)
			op.oobMem = make([]byte, n*int64(d.cfg.OOBBytesPerBlock))
		}
	}
	op.size = n * int64(d.cfg.BlockSize)
	d.stats.ReadBytes += uint64(op.size)
	// A device with no traced driver above it owns the span itself.
	if !hinted && d.tr != nil {
		op.span = d.tr.SpanBegin(int64(op.start), obs.LayerZNS, obs.OpRead, d.trDev, z, lba, n)
		op.ownSpan = true
	}

	// A read wholly in the write buffer is served from DRAM: the buffer read
	// rides the controller's event.
	for b := lba; b < lba+n; b++ {
		if !zn.buffered.Get(b).live() {
			op.stage = rCtrl
			d.controller.SubmitEvent(d.cfg.CmdOverhead, op)
			return
		}
	}
	op.stage = rCtrlBuf
	d.controller.SubmitEventThen(d.cfg.CmdOverhead, d.cfg.BufReadLatency, op)
}

// ackRange marks buffered blocks of an acknowledged write as
// capacitor-protected: from this ack on, PowerLoss hardens rather than
// drops them. Blocks already programmed to flash need no marking.
func (d *Device) ackRange(zn *zone, lba, n int64) {
	for b := lba; b < lba+n; b++ {
		if s := zn.buffered.Get(b); s.live() {
			zn.buffered.Set(b, s|slotAcked)
		}
	}
}

// unbuffer takes block b out of the zone's write buffer. With StoreData it
// first programs the block's payload into the flash store when keep is
// set, then releases the payload: the scratch copies go back to the
// device's pool, a borrowed view drops its reference.
func (d *Device) unbuffer(zn *zone, b int64, keep bool) {
	if d.cfg.StoreData {
		pl := zn.payloads.Get(b)
		if keep {
			zn.store.Put(b, pl.data, pl.oob)
		}
		if pl.own != nil {
			pl.own.Release()
		} else {
			d.pool.Free(pl.data)
		}
		d.pool.Free(pl.oob)
		zn.payloads.Delete(b)
	}
	zn.buffered.Delete(b)
}

// PowerLoss cuts device power at the current instant, modeling an
// enterprise drive with power-loss protection for acknowledged content:
//
//   - In-flight commands and background flash programs abort (epoch
//     bump); their completions never fire.
//   - Capacitor flush: committed blocks awaiting their flash program and
//     ZRWA blocks whose writes were acknowledged harden to flash
//     instantly at zero service cost, in ascending block order. Committed
//     blocks a reset took out of the buffer were the erased tenant's, and
//     are gone.
//   - Unacknowledged ZRWA contents are dropped — the window truncation a
//     crash exposes; recovery must tolerate the resulting holes.
//   - Writes waiting for buffer credit are discarded with the host that
//     submitted them; those still in the controller die at their
//     controller completion, as every other command does at its next
//     stage.
//
// Zone states, write pointers, and ZRWA configuration survive (firmware
// journals its metadata). The host side must be torn down separately
// (nvme.Queue.Kill) and rebuilt before the device is driven again.
func (d *Device) PowerLoss() {
	d.epoch++
	var dropped, hardened int64
	for _, zn := range d.zones {
		for op := zn.head; op != nil; {
			next := op.next
			op.next = nil
			if d.eng.Passed(op.ctrlAt, op.tick) {
				d.putWriteOp(op)
			} else if op != zn.head || !zn.armed {
				d.eng.AtTicket(op.ctrlAt, op.tick, op, 0, 0)
			}
			op = next
		}
		zn.head, zn.tail, zn.armed = nil, nil, false
		zn.buffered.Range(func(b int64, s slot) bool {
			keep := b < zn.wp || s.acked()
			if keep {
				d.stats.ProgrammedBytes[s.tag()] += uint64(d.cfg.BlockSize)
				hardened++
			} else {
				dropped++
			}
			d.unbuffer(zn, b, keep)
			return true
		})
		zn.buffered.Clear()
		if zn.zrwa {
			zn.credit = d.cfg.ZRWABlocks
		}
	}
	if d.tr != nil {
		d.tr.Event(int64(d.eng.Now()), obs.LayerZNS, obs.EvPowerLoss, d.trDev, -1,
			dropped, hardened, 0)
	}
}

// SetOffline marks a zone dead (fault injection for degraded-mode tests).
func (d *Device) SetOffline(z int) error {
	zn, err := d.zoneArg(z)
	if err != nil {
		return err
	}
	d.setState(zn, ZoneOffline)
	return nil
}
