// Package volume multiplexes many named tenant volumes onto one array
// front end (any blockdev.Device) with per-tenant QoS isolation — the
// "millions of users" layer over a biza.Array.
//
// Each volume is a fixed, contiguous LBA range of the array, taken from
// the allocation frontier at open time and never resized or released;
// tenants address their own space from zero and the manager relocates
// every request. Isolation is enforced at the manager's submission shim
// into the array by two mechanisms, both running entirely in virtual
// time:
//
//   - a per-tenant token bucket (RateBytesPerSec, BurstBytes) that delays
//     admission of requests exceeding the tenant's provisioned rate, and
//   - weighted-fair queueing (fairQueue, self-clocked fair queueing) over
//     the admitted backlog, dispatched into the array through a bounded
//     in-flight window (MaxInflight) so one saturating tenant can neither
//     monopolize the array's internal queues nor starve other tenants.
//
// The hot path follows the repository's event-core discipline: request
// records are pooled per manager with cached completion closures, the fair
// queue reuses its slices, and the per-tenant probes compile to nothing
// when no tracer is attached — steady-state submission allocates nothing.
//
// Everything runs on the array's simulation engine; a manager (and all of
// its volumes) belongs to one engine and therefore one goroutine.
// Determinism follows from the engine's: identical request sequences
// replay identically at any -parallel setting.
package volume

import (
	"fmt"
	"math"

	"biza/internal/blockdev"
	"biza/internal/fifo"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// Config parameterizes a Manager.
type Config struct {
	// MaxInflight bounds the ops concurrently outstanding at the array
	// across all volumes — the fair queue's dispatch window. 0 uses
	// DefaultMaxInflight.
	MaxInflight int
	// DisableQoS bypasses admission control: no token bucket and no
	// dispatch window, so requests map their LBA range and go straight to
	// the array in arrival order. Stats are still kept. This is the
	// noisy-neighbor baseline, not a fast path.
	DisableQoS bool
}

// DefaultMaxInflight is sized to keep a 4-member array busy without
// letting any tenant build deep device-side queues: roughly two requests
// per member channel group.
const DefaultMaxInflight = 32

func (c *Config) maxInflight() int {
	if c.DisableQoS {
		return math.MaxInt
	}
	if c.MaxInflight < 1 {
		return DefaultMaxInflight
	}
	return c.MaxInflight
}

// QoS is one tenant's service class.
type QoS struct {
	// Weight is the tenant's fair-queueing share against other backlogged
	// tenants (minimum 1).
	Weight int
	// RateBytesPerSec caps the tenant's sustained throughput via a token
	// bucket; 0 = unlimited.
	RateBytesPerSec int64
	// BurstBytes is the bucket depth: how many bytes may be admitted
	// instantaneously after an idle period. 0 uses max(256 KiB, one
	// hundredth of the rate).
	BurstBytes int64
}

func (q *QoS) weight() int {
	if q.Weight < 1 {
		return 1
	}
	return q.Weight
}

func (q *QoS) burst() int64 {
	if q.BurstBytes > 0 {
		return q.BurstBytes
	}
	b := q.RateBytesPerSec / 100
	if b < 256<<10 {
		b = 256 << 10
	}
	return b
}

// Options configures one volume at open time.
type Options struct {
	// Blocks is the volume capacity in array blocks (required).
	Blocks int64
	// QoS is the tenant's service class; the zero value is weight 1,
	// unlimited rate.
	QoS QoS
}

// Stats is a snapshot of one volume's accounting.
type Stats struct {
	Ops, Reads, Writes uint64
	Trims              uint64
	Bytes              uint64 // payload bytes of completed reads+writes
	ThrottleStalls     uint64 // ops delayed by the token bucket
	ThrottleNanos      int64  // cumulative virtual ns spent gated
	QueueDepth         int    // queued + in-flight right now
	MaxQueueDepth      int
}

// Manager multiplexes tenant volumes onto one array front end.
type Manager struct {
	eng *sim.Engine
	dev blockdev.Device
	cfg Config
	bs  int

	vols   map[string]*Volume
	nextLB int64 // allocation frontier: every block below it is a volume's

	fq       fairQueue
	inflight int

	opFree []*vop

	tr *obs.Trace
}

// New returns a manager carving volumes out of dev on eng.
func New(eng *sim.Engine, dev blockdev.Device, cfg Config) *Manager {
	return &Manager{
		eng:  eng,
		dev:  dev,
		cfg:  cfg,
		bs:   dev.BlockSize(),
		vols: make(map[string]*Volume),
	}
}

// SetTracer attaches an observability trace: per-tenant queue depth,
// throttle stalls, and achieved bytes emit as probes keyed by tenant id.
// Nil detaches (hot-path emission then costs one pointer check).
func (m *Manager) SetTracer(tr *obs.Trace) { m.tr = tr }

// Open carves a new named volume of opts.Blocks blocks out of the
// array's remaining capacity, at the allocation frontier.
func (m *Manager) Open(name string, opts Options) (*Volume, error) {
	if opts.Blocks < 1 {
		return nil, fmt.Errorf("volume: %q: capacity must be positive: %w", name, storerr.ErrBadArgument)
	}
	if _, ok := m.vols[name]; ok {
		return nil, fmt.Errorf("volume: %q already open: %w", name, storerr.ErrExists)
	}
	if free := m.dev.Blocks() - m.nextLB; opts.Blocks > free {
		return nil, fmt.Errorf("volume: %q: %d blocks requested, %d free: %w",
			name, opts.Blocks, free, storerr.ErrNoSpace)
	}
	v := &Volume{
		m:      m,
		id:     len(m.vols),
		base:   m.nextLB,
		blocks: opts.Blocks,
		rate:   opts.QoS.RateBytesPerSec,
		weight: uint64(opts.QoS.weight()),
	}
	if v.rate > 0 {
		v.burstNs = opts.QoS.burst() * nsPerSec
		v.tokensNs = v.burstNs // a fresh tenant starts with a full bucket
	}
	m.nextLB += opts.Blocks
	m.vols[name] = v
	return v, nil
}

const nsPerSec = int64(sim.Second)

// vop is a pooled request record traveling from tenant submission through
// the token bucket and the fair queue into the array. The completion
// closures are cached on the record (allocated once, reused across
// recycles) so a steady-state request allocates nothing in this layer.
type vop struct {
	v       *Volume
	write   bool
	lba     int64 // array-space
	nblocks int
	data    []byte
	cost    int64  // payload bytes (token-bucket and fair-queue currency)
	tag     uint64 // virtual finish tag in the fair queue
	start   sim.Time
	span    obs.SpanID // volume-layer span (0 when untraced)
	gateAt  sim.Time   // when the op entered the token-bucket gate
	admitAt sim.Time   // when the op entered the fair-queue backlog
	wdone   func(blockdev.WriteResult)
	rdone   func(blockdev.ReadResult)
	wfwd    func(blockdev.WriteResult)
	rfwd    func(blockdev.ReadResult)
}

func (m *Manager) getOp() *vop {
	if n := len(m.opFree); n > 0 {
		op := m.opFree[n-1]
		m.opFree = m.opFree[:n-1]
		return op
	}
	op := &vop{}
	op.wfwd = func(r blockdev.WriteResult) { op.finishWrite(r) }
	op.rfwd = func(r blockdev.ReadResult) { op.finishRead(r) }
	return op
}

func (m *Manager) putOp(op *vop) {
	op.v, op.data = nil, nil
	op.wdone, op.rdone = nil, nil
	op.span = 0
	m.opFree = append(m.opFree, op)
}

// Volume is one tenant's LBA range plus its QoS state. All methods must
// run on the manager's engine goroutine (simulation discipline).
type Volume struct {
	m      *Manager
	id     int // open order: the tenant id in probe names
	base   int64
	blocks int64

	// Token bucket, scaled by nsPerSec so refill arithmetic is exact
	// integer math: tokensNs/nsPerSec is the byte balance.
	rate     int64 // bytes per second; 0 = unlimited
	burstNs  int64
	tokensNs int64
	refillAt sim.Time
	gated    fifo.Queue[*vop] // awaiting tokens
	gateSet  bool             // admission timer scheduled

	// Fair-queue state: the share, the last finish tag handed out, and
	// the admitted ops in tag order.
	weight  uint64
	lastTag uint64
	ready   fifo.Queue[*vop]

	st Stats
}

// Blocks reports the volume capacity in blocks.
func (v *Volume) Blocks() int64 { return v.blocks }

// BlockSize reports the logical block size in bytes.
func (v *Volume) BlockSize() int { return v.m.bs }

// Stats snapshots the volume's accounting.
func (v *Volume) Stats() Stats { return v.st }

func (v *Volume) check(lba int64, nblocks int) error {
	if nblocks < 1 || lba < 0 {
		return blockdev.ErrBadArgument
	}
	if lba+int64(nblocks) > v.blocks {
		return blockdev.ErrOutOfRange
	}
	return nil
}

// qd tracks the tenant queue depth (queued + in-flight), emitting the
// gauge probe when tracing is attached.
func (v *Volume) qd(delta int) {
	v.st.QueueDepth += delta
	if v.st.QueueDepth > v.st.MaxQueueDepth {
		v.st.MaxQueueDepth = v.st.QueueDepth
	}
	m := v.m
	if m.tr != nil {
		m.tr.Counter(int64(m.eng.Now()), obs.ProbeKey(obs.ProbeTenantQD, v.id, 0), int64(v.st.QueueDepth))
	}
}

// Write stores nblocks at the volume-relative lba. data may be nil
// (traffic without payload) or hold nblocks*BlockSize bytes.
func (v *Volume) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	if err := v.check(lba, nblocks); err != nil {
		v.m.eng.After(0, func() {
			if done != nil {
				done(blockdev.WriteResult{Err: err})
			}
		})
		return
	}
	m := v.m
	op := m.getOp()
	op.v, op.write = v, true
	op.lba, op.nblocks, op.data = v.base+lba, nblocks, data
	op.cost = int64(nblocks) * int64(m.bs)
	op.start = m.eng.Now()
	op.span = m.tr.SpanBegin(op.start, obs.LayerVolume, obs.OpWrite, v.id, -1, lba, int64(nblocks))
	op.wdone = done
	v.st.Writes++
	v.submit(op)
}

// Read fetches nblocks at the volume-relative lba.
func (v *Volume) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	if err := v.check(lba, nblocks); err != nil {
		v.m.eng.After(0, func() {
			if done != nil {
				done(blockdev.ReadResult{Err: err})
			}
		})
		return
	}
	m := v.m
	op := m.getOp()
	op.v, op.write = v, false
	op.lba, op.nblocks, op.data = v.base+lba, nblocks, nil
	op.cost = int64(nblocks) * int64(m.bs)
	op.start = m.eng.Now()
	op.span = m.tr.SpanBegin(op.start, obs.LayerVolume, obs.OpRead, v.id, -1, lba, int64(nblocks))
	op.rdone = done
	v.st.Reads++
	v.submit(op)
}

// Trim declares a volume-relative range dead and forwards it to the
// array. Trims are advisory and bypass QoS admission.
func (v *Volume) Trim(lba int64, nblocks int) {
	if v.check(lba, nblocks) != nil {
		return
	}
	v.st.Trims++
	v.m.dev.Trim(v.base+lba, nblocks)
}

// submit routes an op through admission control into the array.
func (v *Volume) submit(op *vop) {
	v.qd(+1)
	if v.rate > 0 && !v.m.cfg.DisableQoS {
		// FIFO behind any op already gated, so tenants cannot reorder
		// around their own throttle.
		if v.gated.Len() > 0 || !v.takeTokens(op.cost) {
			v.gatePush(op)
			return
		}
	}
	v.admit(op)
}

// admit hands an op to the fair queue and kicks dispatch.
func (v *Volume) admit(op *vop) {
	op.admitAt = v.m.eng.Now()
	v.m.fq.push(v, op)
	v.m.dispatch()
}

// --- token bucket ---

// refill credits tokens for the time elapsed since the last refill.
func (v *Volume) refill() {
	now := v.m.eng.Now()
	if now > v.refillAt {
		v.tokensNs += (now - v.refillAt) * v.rate
		if v.tokensNs > v.burstNs {
			v.tokensNs = v.burstNs
		}
		v.refillAt = now
	}
}

// takeTokens consumes cost bytes of tokens if available.
func (v *Volume) takeTokens(cost int64) bool {
	v.refill()
	need := cost * nsPerSec
	if v.tokensNs < need {
		return false
	}
	v.tokensNs -= need
	return true
}

// gatePush queues an op behind the token bucket and (re)arms the
// admission timer for the head op's ready time.
func (v *Volume) gatePush(op *vop) {
	v.gated.Push(op)
	op.gateAt = v.m.eng.Now()
	v.st.ThrottleStalls++
	m := v.m
	if m.tr != nil {
		m.tr.Counter(int64(m.eng.Now()), obs.ProbeKey(obs.ProbeTenantStalls, v.id, 0), int64(v.st.ThrottleStalls))
	}
	v.armGate()
}

// armGate schedules the admission event at the virtual time the bucket
// will afford the head gated op. The volume itself is the pooled event
// record (sim.Handler), so arming allocates nothing.
func (v *Volume) armGate() {
	if v.gateSet || v.gated.Len() == 0 {
		return
	}
	v.refill()
	need := v.gated.Peek().cost*nsPerSec - v.tokensNs
	wait := (need + v.rate - 1) / v.rate // ceil: never wake a hair early
	if wait < 1 {
		wait = 1
	}
	v.gateSet = true
	v.m.eng.AfterEvent(wait, v, 0, 0)
}

// Fire implements sim.Handler: the admission timer. It drains every
// affordable gated op into the fair queue, re-arms for the next one, and
// kicks dispatch.
func (v *Volume) Fire(_, _ sim.Time) {
	v.gateSet = false
	for v.gated.Len() > 0 && v.takeTokens(v.gated.Peek().cost) {
		op := v.gated.Pop()
		now := v.m.eng.Now()
		v.st.ThrottleNanos += now - op.start
		// The admission stall is a span stage: attribution charges it to
		// "qos-stall" so throttled tenants can see their own backpressure.
		v.m.tr.Mark(op.span, op.gateAt, now, obs.LayerVolume, obs.PhaseQoS, v.id, -1, -1)
		v.admit(op)
	}
	v.armGate()
}

// --- fair-queue dispatch (the submission shim into the array) ---

// dispatch fills the bounded in-flight window from the fair queue.
func (m *Manager) dispatch() {
	for m.inflight < m.cfg.maxInflight() {
		op := m.fq.pop()
		if op == nil {
			return
		}
		m.inflight++
		if now := m.eng.Now(); now > op.admitAt {
			// Time spent backlogged in the fair queue or held by the
			// in-flight window: the volume layer's "queue" stage.
			m.tr.Mark(op.span, op.admitAt, now, obs.LayerVolume, obs.PhaseQueue, op.v.id, -1, -1)
		}
		if op.write {
			m.dev.Write(op.lba, op.nblocks, op.data, op.wfwd)
		} else {
			m.dev.Read(op.lba, op.nblocks, op.rfwd)
		}
	}
}

// account folds a completion into the tenant stats and frees the
// in-flight slot.
func (op *vop) account() (m *Manager, v *Volume) {
	v = op.v
	m = v.m
	m.inflight--
	v.st.Ops++
	v.st.Bytes += uint64(op.cost)
	v.qd(-1)
	if m.tr != nil {
		m.tr.Counter(int64(m.eng.Now()), obs.ProbeKey(obs.ProbeTenantBytes, v.id, 0), int64(v.st.Bytes))
	}
	return m, v
}

func (op *vop) finishWrite(r blockdev.WriteResult) {
	m, _ := op.account()
	now := m.eng.Now()
	r.Latency = now - op.start // end-to-end: includes QoS queueing
	m.tr.SpanEnd(op.span, now, r.Err != nil)
	done := op.wdone
	m.putOp(op)
	if done != nil {
		done(r)
	}
	m.dispatch()
}

func (op *vop) finishRead(r blockdev.ReadResult) {
	m, _ := op.account()
	now := m.eng.Now()
	r.Latency = now - op.start
	m.tr.SpanEnd(op.span, now, r.Err != nil)
	done := op.rdone
	m.putOp(op)
	if done != nil {
		done(r)
	}
	m.dispatch()
}
