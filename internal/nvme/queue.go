// Package nvme models the host I/O stack between an AFA engine and a ZNS
// device: the block layer and NVMe driver, which give no ordering guarantee
// between in-flight submissions (§3.2). Each command is delivered to the
// device after a bounded pseudo-random delay, so two commands submitted
// back-to-back can arrive reordered — exactly the hazard that makes naive
// parallel zone writes fail and that BIZA's sliding-window scheduler and
// dm-zap's one-in-flight lock each work around.
//
// A Queue can optionally enforce per-zone delivery order (ZoneOrdered),
// modeling the kernel's zone-write-locking I/O schedulers (mq-deadline),
// which RAIZN depends on.
package nvme

import (
	"errors"

	"biza/internal/buf"
	"biza/internal/fault"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zns"
)

// Config controls delivery behaviour.
type Config struct {
	// ReorderWindow is the maximum extra delivery delay per command. Zero
	// delivers immediately in submission order.
	ReorderWindow sim.Time
	// ZoneOrdered preserves submission order among writes to the same zone
	// (zone write locking). Reads take the same jitter but carry no
	// ordering hazard, so they are never held back.
	ZoneOrdered bool
	Seed        uint64
}

// A command failing with storerr.ErrTransient is retried maxRetries times,
// retryBackoff after its first failure and doubling per attempt (20, 40,
// 80 µs): comfortably above device command overhead, far below any host
// timeout.
const (
	maxRetries   = 3
	retryBackoff = 20 * sim.Microsecond
)

// Queue sits between one engine and one ZNS device.
type Queue struct {
	eng *sim.Engine
	dev *zns.Device
	cfg Config
	rng *sim.RNG

	// Per-zone last scheduled delivery time, nil unless ZoneOrdered.
	// Delivery times are never negative, so a zero entry clamps nothing.
	zoneLast []sim.Time

	submitted uint64
	reordered uint64
	retries   uint64
	lastPlan  sim.Time

	inj  *fault.Injector
	dead bool // Kill()ed: host side gone, commands and completions vanish

	tr       *obs.Trace
	trDev    int
	inflight int64

	// opFree is the engine's list of pooled delivery records, shared by
	// every queue on it.
	opFree *qops
}

// qops is an engine's free list of delivery records (sim.Local).
type qops []*qop

// qop is a pooled in-flight command record: one event schedules its
// delivery to the device, and a completion callback cached on the record
// (bound when it first carries that kind of command, kept across recycles)
// forwards the result, so a steady-state submission allocates nothing here.
type qop struct {
	q       *Queue
	kind    uint8 // opWrite, opRead, opAppend, opReset
	z       int
	lba     int64
	nblocks int
	data    []byte // write payload, or the read destination
	oob     [][]byte
	withOOB bool     // read: copy OOB records too
	own     *buf.Buf // transferred reference pinning data (WriteOwned)
	tag     zns.WriteTag
	span    obs.SpanID
	start   sim.Time
	at      sim.Time
	attempt int                   // transient-error retries so far
	delayed bool                  // injector already charged its latency for this delivery
	wdone   func(zns.WriteResult) // write or append
	rdone   func(zns.ReadResult)
	edone   func(error)
	// Cached forwarding callbacks: the record's finish methods, bound.
	wfwd func(zns.WriteResult)
	rfwd func(zns.ReadResult)
	efwd func(error)
}

const (
	opWrite = iota
	opRead
	opAppend
	opReset
)

func (q *Queue) getOp() *qop {
	if free := *q.opFree; len(free) > 0 {
		op := free[len(free)-1]
		*q.opFree = free[:len(free)-1]
		op.q = q
		return op
	}
	return &qop{q: q}
}

func (q *Queue) putOp(op *qop) {
	buf.Release(op.own)
	op.data, op.oob, op.own = nil, nil, nil
	op.attempt, op.delayed, op.withOOB = 0, false, false
	op.wdone, op.rdone, op.edone = nil, nil, nil
	*q.opFree = append(*q.opFree, op)
}

// faultOp classifies the command for the fault injector.
func (op *qop) faultOp() fault.Op {
	switch op.kind {
	case opRead:
		return fault.Read
	case opReset:
		return fault.Reset
	}
	return fault.Write
}

// deliverErr completes the command with an injected error without
// touching the device. Transient errors route through the retry path in
// the finish functions like any other completion.
func (op *qop) deliverErr(err error) {
	switch op.kind {
	case opWrite, opAppend:
		op.finishWrite(zns.WriteResult{Err: err})
	case opRead:
		op.finishRead(zns.ReadResult{Err: err})
	case opReset:
		op.finishReset(err)
	}
}

// retryable reports whether a failed command should be retried rather
// than completed. Only the injector produces storerr.ErrTransient — the
// device model's own errors are all permanent — so a retry always
// re-delivers a command the device never executed.
func (op *qop) retryable(err error) bool {
	q := op.q
	if q.dead || op.attempt >= maxRetries {
		return false
	}
	return errors.Is(err, storerr.ErrTransient)
}

// retry re-schedules delivery with exponential backoff.
func (op *qop) retry() {
	q := op.q
	op.attempt++
	q.retries++
	op.delayed = false // consult the injector afresh on redelivery
	op.at = q.eng.Now() + retryBackoff<<(op.attempt-1)
	q.eng.AtEvent(op.at, op, 0, 0)
}

// Fire delivers the command to the device at its scheduled time.
func (op *qop) Fire(_, _ sim.Time) {
	q := op.q
	if q.dead {
		// Power loss tore down the host stack: the command vanishes and
		// its completion never fires.
		q.putOp(op)
		return
	}
	if q.inj != nil && !op.delayed {
		d := q.inj.OnDeliver(q.eng.Now(), op.faultOp(), op.z, op.lba, op.nblocks)
		if d.Err != nil {
			op.deliverErr(d.Err)
			return
		}
		if d.Delay > 0 {
			op.delayed = true
			op.at += d.Delay
			q.eng.AtEvent(op.at, op, 0, 0)
			return
		}
	}
	op.delayed = false
	if q.tr != nil && op.kind != opReset {
		q.tr.Mark(op.span, int64(op.start), int64(op.at), obs.LayerNVMe, obs.PhaseQueue, q.trDev, op.z, -1)
		q.dev.TraceSpan(op.span)
	}
	switch op.kind {
	case opWrite, opAppend:
		if op.wfwd == nil {
			op.wfwd = op.finishWrite
		}
		if op.kind == opAppend {
			q.dev.Append(op.z, op.nblocks, op.data, op.oob, op.tag, op.wfwd)
		} else if op.own != nil {
			// The record keeps its own reference across retries; each
			// delivery transfers a fresh one to the device.
			op.own.Retain()
			q.dev.WriteOwned(op.z, op.lba, op.nblocks, op.data, op.oob, op.tag, op.own, op.wfwd)
		} else {
			q.dev.Write(op.z, op.lba, op.nblocks, op.data, op.oob, op.tag, op.wfwd)
		}
	case opRead:
		if op.rfwd == nil {
			op.rfwd = op.finishRead
		}
		q.dev.ReadInto(op.z, op.lba, op.nblocks, op.data, op.withOOB, op.rfwd)
	case opReset:
		if op.efwd == nil {
			op.efwd = op.finishReset
		}
		q.dev.Reset(op.z, op.efwd)
	}
}

func (op *qop) finishReset(err error) {
	q := op.q
	if q.dead {
		q.putOp(op)
		return
	}
	if err != nil && op.retryable(err) {
		op.retry()
		return
	}
	done := op.edone
	q.putOp(op)
	if done != nil {
		done(err)
	}
}

func (op *qop) finishWrite(r zns.WriteResult) {
	q := op.q
	if q.dead {
		q.putOp(op)
		return
	}
	if r.Err != nil && op.retryable(r.Err) {
		op.retry()
		return
	}
	r.Latency = q.eng.Now() - op.start
	if q.tr != nil {
		q.tr.SpanEnd(op.span, int64(q.eng.Now()), r.Err != nil)
		q.qd(-1)
	}
	done := op.wdone
	q.putOp(op)
	if done != nil {
		done(r)
	}
}

func (op *qop) finishRead(r zns.ReadResult) {
	q := op.q
	if q.dead {
		q.putOp(op)
		return
	}
	if r.Err != nil && op.retryable(r.Err) {
		op.retry()
		return
	}
	r.Latency = q.eng.Now() - op.start
	if q.tr != nil {
		q.tr.SpanEnd(op.span, int64(q.eng.Now()), r.Err != nil)
		q.qd(-1)
	}
	done := op.rdone
	q.putOp(op)
	if done != nil {
		done(r)
	}
}

// New wraps dev with a delivery queue.
func New(dev *zns.Device, cfg Config) *Queue {
	q := &Queue{
		eng:    dev.Engine(),
		dev:    dev,
		cfg:    cfg,
		rng:    sim.NewRNG(cfg.Seed ^ 0x9a7e),
		opFree: sim.Local[qops](dev.Engine()),
	}
	if cfg.ZoneOrdered {
		q.zoneLast = make([]sim.Time, dev.Zones())
	}
	return q
}

// Device returns the underlying device (admin commands and stats go
// straight to it; ordering is irrelevant for them in this model).
func (q *Queue) Device() *zns.Device { return q.dev }

// SetTracer attaches an observability trace; dev labels this queue's
// device in the trace. The queue owns the span for each I/O (covering the
// full submit → complete lifecycle) and hands the span id down to the
// device so channel/die service marks attach to the same span.
func (q *Queue) SetTracer(tr *obs.Trace, dev int) {
	q.tr = tr
	q.trDev = dev
	q.dev.SetTracer(tr, dev)
}

// qd records a queue-depth change; only touched when tracing is on.
func (q *Queue) qd(delta int64) {
	q.inflight += delta
	q.tr.Counter(int64(q.eng.Now()), obs.ProbeKey(obs.ProbeQueueDepth, q.trDev, 0), q.inflight)
}

// Reordered reports how many deliveries were scheduled before an
// earlier-submitted command's delivery (diagnostics for tests).
func (q *Queue) Reordered() uint64 { return q.reordered }

// Retries reports how many transient-error retries the queue has issued.
func (q *Queue) Retries() uint64 { return q.retries }

// SetInjector installs a fault injector consulted at each command
// delivery. nil removes injection.
func (q *Queue) SetInjector(in *fault.Injector) { q.inj = in }

// Injector returns the installed fault injector, or nil.
func (q *Queue) Injector() *fault.Injector { return q.inj }

// Kill tears down the host side of the queue (power loss): undelivered
// commands vanish, and completions of commands already at the device are
// dropped instead of invoking host callbacks. The device itself is cut
// separately via zns.Device.PowerLoss.
func (q *Queue) Kill() { q.dead = true }

// deliverAt computes the delivery time for a command to zone z.
func (q *Queue) deliverAt(z int, ordered bool) sim.Time {
	at := q.eng.Now()
	if q.cfg.ReorderWindow > 0 {
		at += q.rng.Int63n(int64(q.cfg.ReorderWindow) + 1)
	}
	// A zone outside the device stays unordered: the device refuses it.
	if ordered && uint(z) < uint(len(q.zoneLast)) {
		at = max(at, q.zoneLast[z])
		q.zoneLast[z] = at
	}
	if at < q.lastPlan {
		q.reordered++
	}
	q.lastPlan = at
	q.submitted++
	return at
}

// Write submits a zone write through the driver stack.
func (q *Queue) Write(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	q.WriteOwned(z, lba, nblocks, data, oob, tag, nil, done)
}

// WriteOwned is Write for refcounted payloads: data must be a view into
// own, and the call transfers exactly one reference, released when the
// command leaves the driver (completion, drop on a killed queue, or
// exhausted retries). The device takes further references of its own, so
// the payload travels to flash without a copy.
func (q *Queue) WriteOwned(z int, lba int64, nblocks int, data []byte, oob [][]byte, tag zns.WriteTag, own *buf.Buf, done func(zns.WriteResult)) {
	op := q.getOp()
	op.kind, op.z, op.lba, op.nblocks = opWrite, z, lba, nblocks
	op.data, op.oob, op.own, op.tag, op.wdone = data, oob, own, tag, done
	op.start = q.eng.Now()
	op.at = q.deliverAt(z, true)
	if q.tr != nil {
		op.span = q.tr.SpanBegin(int64(op.start), obs.LayerNVMe, obs.OpWrite, q.trDev, z, lba, int64(nblocks))
		q.qd(+1)
	}
	q.eng.AtEvent(op.at, op, 0, 0)
}

// ReadInto submits a zone read through the driver stack; dst and withOOB
// are the device's (zns.Device.ReadInto). dst stays the caller's: it comes
// back as the result's Data, and a command that vanishes with a killed
// queue simply never touches it.
func (q *Queue) ReadInto(z int, lba int64, nblocks int, dst []byte, withOOB bool, done func(zns.ReadResult)) {
	op := q.getOp()
	op.kind, op.z, op.lba, op.nblocks = opRead, z, lba, nblocks
	op.data, op.withOOB, op.rdone = dst, withOOB, done
	op.start = q.eng.Now()
	op.at = q.deliverAt(z, false)
	if q.tr != nil {
		op.span = q.tr.SpanBegin(int64(op.start), obs.LayerNVMe, obs.OpRead, q.trDev, z, lba, int64(nblocks))
		q.qd(+1)
	}
	q.eng.AtEvent(op.at, op, 0, 0)
}

// Append submits a zone append through the driver stack.
func (q *Queue) Append(z int, nblocks int, data []byte, oob [][]byte, tag zns.WriteTag, done func(zns.WriteResult)) {
	op := q.getOp()
	op.kind, op.z, op.lba, op.nblocks = opAppend, z, -1, nblocks
	op.data, op.oob, op.tag, op.wdone = data, oob, tag, done
	op.start = q.eng.Now()
	op.at = q.deliverAt(z, true)
	if q.tr != nil {
		op.span = q.tr.SpanBegin(int64(op.start), obs.LayerNVMe, obs.OpAppend, q.trDev, z, -1, int64(nblocks))
		q.qd(+1)
	}
	q.eng.AtEvent(op.at, op, 0, 0)
}

// Reset forwards a zone reset (admin path, still jittered so resets land
// amid data traffic realistically).
func (q *Queue) Reset(z int, done func(error)) {
	op := q.getOp()
	op.kind, op.z, op.edone = opReset, z, done
	op.start = q.eng.Now()
	op.at = q.deliverAt(z, true)
	q.eng.AtEvent(op.at, op, 0, 0)
}
