package zns

import (
	"biza/internal/buf"
	"biza/internal/obs"
	"biza/internal/sim"
)

// Pooled command records. Each data-path command (write, append, read) and
// each flash program batch is driven by one record implementing
// sim.Handler: the record carries a stage counter and re-schedules itself
// through the resource pipeline, replacing the per-command closure chain.
// Records live on free lists that every device on one engine shares (the
// simulation is single-goroutine), so a steady-state command performs no
// allocation inside the device, and a fleet of devices holds records for
// the engine's peak of commands in flight, not for the sum of each
// device's own. A get sets the record's device (and epoch), whichever
// device put it back.

// recs are an engine's free lists (sim.Local).
type recs struct {
	wop []*writeOp
	rop []*readOp
	pop []*programOp
	eop []*resetOp
}

// writeOp stages (sequential, ZRWA, and failure paths share the record).
const (
	wFail     = iota // validation failed: deliver the error after CmdOverhead
	wSeqCtrl         // controller overhead done -> host link transfer
	wSeqXfer         // host link done -> channel program bus
	wSeqBus          // channel bus done -> die program
	wSeqDie          // die program done -> complete
	wZCtrl           // controller overhead done, armed only to be granted buffer credit (admit)
	wZXferBuf        // host link, then the DRAM buffer write, done -> complete
)

type writeOp struct {
	d       *Device
	zn      *zone
	z       int
	lba     int64
	n       int64
	size    int64
	need    int64  // ZRWA buffer credit required
	epoch   uint64 // device power epoch at submission
	tag     WriteTag
	data    []byte
	oob     [][]byte
	own     *buf.Buf // transferred reference pinning data (WriteOwned)
	span    obs.SpanID
	ownSpan bool
	start   sim.Time
	err     error
	stage   uint8
	done    func(WriteResult)
	// ZRWA only: the controller completion's key, reserved at delivery
	// (ctrlAt, tick), and the next write in the zone's credit FIFO.
	ctrlAt sim.Time
	tick   uint64
	next   *writeOp
}

func (d *Device) getWriteOp() *writeOp {
	if n := len(d.recs.wop); n > 0 {
		op := d.recs.wop[n-1]
		d.recs.wop = d.recs.wop[:n-1]
		op.d, op.epoch = d, d.epoch
		return op
	}
	return &writeOp{d: d, epoch: d.epoch}
}

func (d *Device) putWriteOp(op *writeOp) {
	buf.Release(op.own)
	*op = writeOp{d: d}
	d.recs.wop = append(d.recs.wop, op)
}

// fail delivers err after the command overhead, like any other completion.
func (op *writeOp) fail(err error) {
	if op.done == nil && !op.ownSpan {
		op.d.putWriteOp(op)
		return
	}
	op.err = err
	op.stage = wFail
	op.d.eng.AfterEvent(op.d.cfg.CmdOverhead, op, 0, 0)
}

// complete finishes the span, recycles the record, and then invokes the
// caller's callback (recycle-first so a re-entrant submission can reuse it).
func (op *writeOp) complete() {
	d := op.d
	if op.ownSpan {
		d.tr.SpanEnd(op.span, int64(d.eng.Now()), op.err != nil)
	}
	done, res := op.done, WriteResult{Err: op.err, LBA: op.lba, Latency: d.eng.Now() - op.start}
	d.putWriteOp(op)
	if done != nil {
		done(res)
	}
}

// creditGranted continues a ZRWA write once buffer slots are available: the
// host link transfer, then the buffer write, as one event.
func (op *writeOp) creditGranted() {
	d := op.d
	op.stage = wZXferBuf
	d.writeLink.SubmitEventThen(op.size*sim.Second/d.cfg.DeviceWriteBW, d.cfg.BufWriteLatency, op)
}

func (op *writeOp) Fire(s, e sim.Time) {
	d := op.d
	if op.epoch != d.epoch {
		// Power was lost while the command was in flight: it dies
		// silently with the host that issued it.
		d.putWriteOp(op)
		return
	}
	switch op.stage {
	case wFail:
		op.complete()
	case wSeqCtrl:
		op.stage = wSeqXfer
		d.writeLink.SubmitEvent(op.size*sim.Second/d.cfg.DeviceWriteBW, op)
	case wSeqXfer:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseXfer, d.trDev, op.z, -1)
		op.stage = wSeqBus
		d.chans[op.zn.channel].writeBus.SubmitEvent(op.size*sim.Second/d.cfg.ChannelWriteBW, op)
	case wSeqBus:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseBus, d.trDev, op.z, op.zn.channel)
		op.stage = wSeqDie
		d.chans[op.zn.channel].dies.SubmitEvent(op.size*sim.Second/d.cfg.DieWriteBW, op)
	case wSeqDie:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseDie, d.trDev, op.z, op.zn.channel)
		d.storeDirect(op.zn, op.lba, int(op.n), op.data, op.oob)
		d.stats.ProgrammedBytes[op.tag] += uint64(op.size)
		op.complete()
	case wZCtrl:
		op.zn.armed = false
		d.admit(op.zn)
	case wZXferBuf:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseXfer, d.trDev, op.z, -1)
		d.tr.Mark(op.span, int64(e), int64(d.eng.Now()), obs.LayerZNS, obs.PhaseBuffer, d.trDev, op.z, -1)
		// The completion below acknowledges the write: its buffered
		// blocks become capacitor-protected against power loss.
		d.ackRange(op.zn, op.lba, op.n)
		op.complete()
	}
}

// readOp stages.
const (
	rFail    = iota // validation failed
	rCtrl           // controller overhead done -> channel read bus
	rCtrlBuf        // controller overhead, then the DRAM buffer read, done -> host link transfer
	rBus            // channel read bus done -> die read
	rDie            // die read done -> host link transfer
	rXfer           // host link done -> complete
)

type readOp struct {
	d       *Device
	zn      *zone
	z       int
	lba     int64
	n       int64
	size    int64
	epoch   uint64 // device power epoch at submission
	span    obs.SpanID
	ownSpan bool
	start   sim.Time
	err     error
	stage   uint8
	// StoreData only: where gather puts the payload, and (recovery's zone
	// scan) the OOB vector with the slab its records are carved from.
	dst    []byte
	oob    [][]byte
	oobMem []byte
	done   func(ReadResult)
}

func (d *Device) getReadOp() *readOp {
	if n := len(d.recs.rop); n > 0 {
		op := d.recs.rop[n-1]
		d.recs.rop = d.recs.rop[:n-1]
		op.d, op.epoch = d, d.epoch
		return op
	}
	return &readOp{d: d, epoch: d.epoch}
}

func (d *Device) putReadOp(op *readOp) {
	*op = readOp{d: d}
	d.recs.rop = append(d.recs.rop, op)
}

func (op *readOp) fail(err error) {
	if op.done == nil && !op.ownSpan {
		op.d.putReadOp(op)
		return
	}
	op.err = err
	op.stage = rFail
	op.d.eng.AfterEvent(op.d.cfg.CmdOverhead, op, 0, 0)
}

func (op *readOp) complete(res ReadResult) {
	d := op.d
	if op.ownSpan {
		d.tr.SpanEnd(op.span, int64(d.eng.Now()), res.Err != nil)
	}
	done := op.done
	res.Latency = d.eng.Now() - op.start
	d.putReadOp(op)
	if done != nil {
		done(res)
	}
}

// gather assembles the read payload in the destination at completion time
// (StoreData only): buffered blocks win over flash contents, matching what
// a real device would return from its write buffer, and a block never
// written reads as zeros.
func (op *readOp) gather() ReadResult {
	d, zn := op.d, op.zn
	if op.dst == nil {
		return ReadResult{}
	}
	bs, ob := int64(d.cfg.BlockSize), int64(d.cfg.OOBBytesPerBlock)
	for i := int64(0); i < op.n; i++ {
		b := op.lba + i
		pl := zn.payloads.Get(b)
		src, so := pl.data, pl.oob
		if src == nil {
			src, so = zn.store.Get(b)
		}
		if blk := op.dst[i*bs : (i+1)*bs]; src != nil {
			copy(blk, src)
		} else {
			clear(blk)
		}
		if op.oob != nil && len(so) > 0 {
			rec := op.oobMem[i*ob:][:len(so)]
			copy(rec, so)
			op.oob[i] = rec
		}
	}
	return ReadResult{Data: op.dst, OOB: op.oob}
}

func (op *readOp) Fire(s, e sim.Time) {
	d := op.d
	if op.epoch != d.epoch {
		d.putReadOp(op)
		return
	}
	switch op.stage {
	case rFail:
		op.complete(ReadResult{Err: op.err})
	case rCtrl:
		op.stage = rBus
		d.chans[op.zn.channel].readBus.SubmitEvent(op.size*sim.Second/d.cfg.ChannelReadBW, op)
	case rCtrlBuf:
		d.tr.Mark(op.span, int64(e), int64(d.eng.Now()), obs.LayerZNS, obs.PhaseBuffer, d.trDev, op.z, -1)
		op.stage = rXfer
		d.readLink.SubmitEvent(op.size*sim.Second/d.cfg.DeviceReadBW, op)
	case rBus:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseBus, d.trDev, op.z, op.zn.channel)
		op.stage = rDie
		d.chans[op.zn.channel].dies.SubmitEvent(d.cfg.DieReadLatency+op.size*sim.Second/d.cfg.DieReadBW, op)
	case rDie:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseDie, d.trDev, op.z, op.zn.channel)
		op.stage = rXfer
		d.readLink.SubmitEvent(op.size*sim.Second/d.cfg.DeviceReadBW, op)
	case rXfer:
		d.tr.Mark(op.span, int64(s), int64(e), obs.LayerZNS, obs.PhaseXfer, d.trDev, op.z, -1)
		op.complete(op.gather())
	}
}

// programOp drives one flash program batch, the committed blocks [start,
// start+n) of its zone: channel bus transfer, then die program, then
// persistence/accounting and buffer-credit release. The blocks stay in the
// zone's buffer until the program retires; tags counts them by write tag.
const (
	pBus = iota
	pDie
)

type programOp struct {
	d     *Device
	zn    *zone
	start int64
	n     int64
	epoch uint64 // device power epoch at submission
	erase uint64 // the zone's erase count at submission
	tags  [numTags]uint8
	stage uint8
}

func (d *Device) getProgramOp() *programOp {
	if n := len(d.recs.pop); n > 0 {
		op := d.recs.pop[n-1]
		d.recs.pop = d.recs.pop[:n-1]
		op.d, op.epoch = d, d.epoch
		return op
	}
	return &programOp{d: d, epoch: d.epoch}
}

func (op *programOp) Fire(s, e sim.Time) {
	d, zn := op.d, op.zn
	if op.epoch != d.epoch {
		// Power loss aborted the program mid-flight: PowerLoss hardened
		// its blocks, unless a reset had dropped them before the cut.
		*op = programOp{d: d}
		d.recs.pop = append(d.recs.pop, op)
		return
	}
	chIdx := zn.channel
	ch := d.chans[chIdx]
	nblk := int(op.n)
	switch op.stage {
	case pBus:
		d.tr.Segment(int64(s), int64(e), obs.LayerZNS, obs.SegProgramBus, d.trDev, zn.idx, chIdx, nblk)
		op.stage = pDie
		dieTime := int64(nblk) * int64(d.cfg.BlockSize) * sim.Second / d.cfg.DieWriteBW
		ch.dies.SubmitEvent(dieTime, op)
	case pDie:
		d.tr.Segment(int64(s), int64(e), obs.LayerZNS, obs.SegProgramDie, d.trDev, zn.idx, chIdx, nblk)
		// The blocks leave the buffer for the flash store and release their
		// buffer slots, unless the zone was reset while the program was in
		// flight: the reset dropped them and zeroed the credit, a re-Open
		// granted the full window afresh, and the buffer may hold the zone's
		// next tenant of the offsets, which stays until its own program
		// retires. Either way the program took its time and counts as
		// programmed.
		for t, k := range op.tags {
			d.stats.ProgrammedBytes[t] += uint64(k) * uint64(d.cfg.BlockSize)
		}
		start, n, live := op.start, op.n, op.erase == zn.eraseCount
		*op = programOp{d: d}
		d.recs.pop = append(d.recs.pop, op)
		if live {
			for b := start; b < start+n; b++ {
				d.unbuffer(zn, b, true)
			}
			d.releaseCredit(zn, n)
		}
	}
}

// resetOp is one zone erase: every die of the zone's channel fires it once
// (the erase is not cut short by a power loss), the last one completes the
// command.
type resetOp struct {
	d         *Device
	zn        *zone
	remaining int
	done      func(error)
}

func (d *Device) getResetOp() *resetOp {
	if n := len(d.recs.eop); n > 0 {
		op := d.recs.eop[n-1]
		d.recs.eop = d.recs.eop[:n-1]
		op.d = d
		return op
	}
	return &resetOp{d: d}
}

func (op *resetOp) Fire(s, e sim.Time) {
	d, zn := op.d, op.zn
	d.tr.Segment(int64(s), int64(e), obs.LayerZNS, obs.SegErase, d.trDev, zn.idx, zn.channel, 0)
	op.remaining--
	if op.remaining > 0 {
		return
	}
	done := op.done
	*op = resetOp{d: d}
	d.recs.eop = append(d.recs.eop, op)
	if done != nil {
		done(nil)
	}
}

// Write-buffer payloads (StoreData only). The data and OOB copies are
// scratch from the device's private pool, recycled when the block leaves
// the buffer, after the flash store has copied them.

// setData installs src as the block's contents. With own non-nil the block
// borrows the caller's refcounted slab (one Retain per block, zero copy);
// otherwise it defensively copies into pooled scratch, counted in
// FlashStats.BufCopiedBytes — the copy the zero-copy gates assert away.
func (d *Device) setData(pl *payload, src []byte, own *buf.Buf) {
	if pl.own != nil {
		pl.own.Release()
		pl.own, pl.data = nil, nil
	}
	if own != nil {
		d.pool.Free(pl.data)
		own.Retain()
		pl.own = own
		pl.data = src
		return
	}
	if pl.data == nil {
		pl.data = d.pool.Alloc(d.cfg.BlockSize)
	}
	pl.data = append(pl.data[:0], src...)
	d.stats.BufCopiedBytes += uint64(len(src))
}

// setOOB copies src into the block's OOB scratch.
func (d *Device) setOOB(pl *payload, src []byte) {
	if cap(pl.oob) < len(src) {
		d.pool.Free(pl.oob)
		pl.oob = d.pool.Alloc(len(src))
	}
	pl.oob = append(pl.oob[:0], src...)
}
