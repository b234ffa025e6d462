// Package volume multiplexes many named tenant volumes onto one array
// front end (any blockdev.Device) with per-tenant QoS isolation — the
// "millions of users" layer over a biza.Array.
//
// Each volume is a contiguous LBA range of the array carved out at open
// time; tenants address their own space from zero and the manager
// relocates every request. Isolation is enforced at the manager's
// submission shim into the array by two mechanisms, both running entirely
// in virtual time:
//
//   - a per-tenant token bucket (RateBytesPerSec, BurstBytes) that delays
//     admission of requests exceeding the tenant's provisioned rate, and
//   - weighted-fair queueing (nvme.WFQ, self-clocked fair queueing) over
//     the admitted backlog, dispatched into the array through a bounded
//     in-flight window (MaxInflight) so one saturating tenant can neither
//     monopolize the array's internal queues nor starve other tenants.
//
// The hot path follows the repository's event-core discipline: request
// records are pooled per manager with cached completion closures, the WFQ
// arbiter reuses its slices, and the per-tenant probes compile to nothing
// when no tracer is attached — steady-state submission allocates nothing.
//
// Everything runs on the array's simulation engine; a manager (and all of
// its volumes) belongs to one engine and therefore one goroutine.
// Determinism follows from the engine's: identical request sequences
// replay identically at any -parallel setting.
package volume

import (
	"errors"
	"fmt"
	"sort"

	"biza/internal/blockdev"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/storerr"
)

// ErrIncomplete reports a synchronous operation that did not finish when
// the event queue drained (e.g. the underlying array crashed mid-flight).
var ErrIncomplete = errors.New("volume: operation did not complete")

// Config parameterizes a Manager.
type Config struct {
	// MaxInflight bounds the ops concurrently outstanding at the array
	// across all volumes — the WFQ dispatch window. 0 uses
	// DefaultMaxInflight.
	MaxInflight int
	// DisableQoS bypasses admission control entirely: requests map their
	// LBA range and go straight to the array in arrival order. Stats are
	// still kept. This is the noisy-neighbor baseline, not a fast path.
	DisableQoS bool
}

// DefaultMaxInflight is sized to keep a 4-member array busy without
// letting any tenant build deep device-side queues: roughly two requests
// per member channel group.
const DefaultMaxInflight = 32

func (c *Config) maxInflight() int {
	if c.MaxInflight < 1 {
		return DefaultMaxInflight
	}
	return c.MaxInflight
}

// QoS is one tenant's service class.
type QoS struct {
	// Weight is the tenant's WFQ share against other backlogged tenants
	// (minimum 1).
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
	byID   []*Volume // dense open-order ids; deleted volumes tombstone to nil
	nextLB int64
	free   []extent // reclaimed ranges below nextLB, sorted and coalesced

	wfq      *nvme.WFQ
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
		wfq:  nvme.NewWFQ(),
	}
}

// SetTracer attaches an observability trace: per-tenant queue depth,
// throttle stalls, and achieved bytes emit as probes keyed by tenant id.
// Nil detaches (hot-path emission then costs one pointer check).
func (m *Manager) SetTracer(tr *obs.Trace) { m.tr = tr }

// Engine returns the simulation engine the manager runs on.
func (m *Manager) Engine() *sim.Engine { return m.eng }

// BlockSize reports the array's logical block size in bytes.
func (m *Manager) BlockSize() int { return m.bs }

// FreeBlocks reports unallocated array capacity: the untouched frontier
// plus every reclaimed extent (contiguity not guaranteed — Open needs one
// extent large enough).
func (m *Manager) FreeBlocks() int64 {
	free := m.dev.Blocks() - m.nextLB
	for _, e := range m.free {
		free += e.blocks
	}
	return free
}

// Volumes reports the number of open volumes.
func (m *Manager) Volumes() int { return len(m.vols) }

// Volume returns the open volume with the given name, or nil.
func (m *Manager) Volume(name string) *Volume { return m.vols[name] }

// ByID returns the volume with the given dense id (open order), or nil
// if that volume has been deleted.
func (m *Manager) ByID(id int) *Volume { return m.byID[id] }

// extent is one contiguous free LBA range of the array.
type extent struct{ base, blocks int64 }

// alloc finds blocks of contiguous array space: first fit over the
// reclaimed-extent list, else the untouched frontier.
func (m *Manager) alloc(blocks int64) (int64, error) {
	for i, e := range m.free {
		if e.blocks >= blocks {
			base := e.base
			if e.blocks == blocks {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = extent{base: e.base + blocks, blocks: e.blocks - blocks}
			}
			return base, nil
		}
	}
	if m.nextLB+blocks > m.dev.Blocks() {
		return 0, fmt.Errorf("volume: %d blocks requested, %d free: %w",
			blocks, m.FreeBlocks(), storerr.ErrNoSpace)
	}
	base := m.nextLB
	m.nextLB += blocks
	return base, nil
}

// reclaim returns [base, base+blocks) to the free list, coalescing with
// adjacent extents and retracting the allocation frontier when the freed
// range reaches it.
func (m *Manager) reclaim(base, blocks int64) {
	i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base > base })
	m.free = append(m.free, extent{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = extent{base: base, blocks: blocks}
	if i+1 < len(m.free) && m.free[i].base+m.free[i].blocks == m.free[i+1].base {
		m.free[i].blocks += m.free[i+1].blocks
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+m.free[i-1].blocks == m.free[i].base {
		m.free[i-1].blocks += m.free[i].blocks
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
	if n := len(m.free); n > 0 && m.free[n-1].base+m.free[n-1].blocks == m.nextLB {
		m.nextLB = m.free[n-1].base
		m.free = m.free[:n-1]
	}
}

// Open carves a new named volume of opts.Blocks blocks out of the
// array's remaining capacity (reclaimed extents first, then the
// frontier).
func (m *Manager) Open(name string, opts Options) (*Volume, error) {
	if opts.Blocks < 1 {
		return nil, fmt.Errorf("volume: %q: capacity must be positive: %w", name, storerr.ErrBadArgument)
	}
	if _, ok := m.vols[name]; ok {
		return nil, fmt.Errorf("volume: %q already open: %w", name, storerr.ErrExists)
	}
	base, err := m.alloc(opts.Blocks)
	if err != nil {
		return nil, fmt.Errorf("volume: %q: %w", name, err)
	}
	v := &Volume{
		m:      m,
		id:     len(m.byID),
		name:   name,
		base:   base,
		blocks: opts.Blocks,
		rate:   opts.QoS.RateBytesPerSec,
	}
	if v.rate > 0 {
		v.burstNs = opts.QoS.burst() * nsPerSec
		v.tokensNs = v.burstNs // a fresh tenant starts with a full bucket
	}
	flow := m.wfq.AddFlow(opts.QoS.weight())
	if flow != v.id {
		panic("volume: wfq flow ids diverged from volume ids")
	}
	m.vols[name] = v
	m.byID = append(m.byID, v)
	return v, nil
}

// Resize grows or shrinks an open volume in place. Growth needs the
// blocks immediately after the volume to be free (an adjacent reclaimed
// extent or the allocation frontier) — volumes are contiguous ranges and
// are never relocated, so a blocked grow returns storerr.ErrNoSpace even
// when total free capacity would suffice. Shrink requires the volume
// quiescent (no queued or in-flight I/O, else storerr.ErrBusy); the cut
// tail is trimmed on the array and reclaimed for future opens.
func (m *Manager) Resize(name string, newBlocks int64) error {
	v := m.vols[name]
	if v == nil {
		return fmt.Errorf("volume: %q not open: %w", name, storerr.ErrNotFound)
	}
	if newBlocks < 1 {
		return fmt.Errorf("volume: %q: capacity must be positive: %w", name, storerr.ErrBadArgument)
	}
	switch {
	case newBlocks == v.blocks:
		return nil
	case newBlocks < v.blocks:
		if v.st.QueueDepth > 0 {
			return fmt.Errorf("volume: %q has %d ops in flight: %w", name, v.st.QueueDepth, storerr.ErrBusy)
		}
		cut := v.blocks - newBlocks
		v.blocks = newBlocks
		m.dev.Trim(v.base+newBlocks, int(cut))
		m.reclaim(v.base+newBlocks, cut)
		return nil
	default:
		grow := newBlocks - v.blocks
		end := v.base + v.blocks
		i := sort.Search(len(m.free), func(i int) bool { return m.free[i].base >= end })
		switch {
		case i < len(m.free) && m.free[i].base == end && m.free[i].blocks >= grow:
			if m.free[i].blocks == grow {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = extent{base: end + grow, blocks: m.free[i].blocks - grow}
			}
		case end == m.nextLB && m.nextLB+grow <= m.dev.Blocks():
			m.nextLB += grow
		default:
			return fmt.Errorf("volume: %q: no contiguous space to grow by %d blocks: %w",
				name, grow, storerr.ErrNoSpace)
		}
		v.blocks = newBlocks
		return nil
	}
}

// Delete closes an open volume and reclaims its LBA range: the whole
// range is trimmed on the array (dead-block advisory for GC) and returned
// to the free list. The volume must be quiescent (storerr.ErrBusy
// otherwise). Its dense id is tombstoned, never reused — WFQ flow ids
// stay aligned with volume ids, and the dead flow can never pop because a
// quiesced volume has nothing queued.
func (m *Manager) Delete(name string) error {
	v := m.vols[name]
	if v == nil {
		return fmt.Errorf("volume: %q not open: %w", name, storerr.ErrNotFound)
	}
	if v.st.QueueDepth > 0 {
		return fmt.Errorf("volume: %q has %d ops in flight: %w", name, v.st.QueueDepth, storerr.ErrBusy)
	}
	delete(m.vols, name)
	m.byID[v.id] = nil
	v.deleted = true
	m.dev.Trim(v.base, int(v.blocks))
	m.reclaim(v.base, v.blocks)
	return nil
}

const nsPerSec = int64(sim.Second)

// vop is a pooled request record traveling from tenant submission through
// the token bucket and WFQ into the array. The completion closures are
// cached on the record (allocated once, reused across recycles) so a
// steady-state request allocates nothing in this layer.
type vop struct {
	v       *Volume
	write   bool
	lba     int64 // array-space
	nblocks int
	data    []byte
	cost    int64 // payload bytes (token-bucket and WFQ currency)
	start   sim.Time
	span    obs.SpanID // volume-layer span (0 when untraced)
	gateAt  sim.Time   // when the op entered the token-bucket gate
	admitAt sim.Time   // when the op entered the WFQ backlog
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
	id     int
	name   string
	base   int64
	blocks int64

	// Token bucket, scaled by nsPerSec so refill arithmetic is exact
	// integer math: tokensNs/nsPerSec is the byte balance.
	rate     int64 // bytes per second; 0 = unlimited
	burstNs  int64
	tokensNs int64
	refillAt sim.Time
	gated    []*vop // FIFO awaiting tokens
	gateHead int
	gateSet  bool // admission timer scheduled

	// ready is the admitted FIFO mirrored by the WFQ flow queue.
	ready     []*vop
	readyHead int

	deleted bool

	st Stats
}

// Name reports the volume's name.
func (v *Volume) Name() string { return v.name }

// ID reports the volume's dense id (open order) — the tenant id used in
// probe names.
func (v *Volume) ID() int { return v.id }

// Blocks reports the volume capacity in blocks.
func (v *Volume) Blocks() int64 { return v.blocks }

// BlockSize reports the logical block size in bytes.
func (v *Volume) BlockSize() int { return v.m.bs }

// Stats snapshots the volume's accounting.
func (v *Volume) Stats() Stats { return v.st }

func (v *Volume) check(lba int64, nblocks int) error {
	if v.deleted {
		return fmt.Errorf("volume: %q deleted: %w", v.name, storerr.ErrNotFound)
	}
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

// WriteSync writes nblocks at the volume-relative lba and drives the
// simulation until the write completes.
func (v *Volume) WriteSync(lba int64, nblocks int, data []byte) error {
	var res blockdev.WriteResult
	ok := false
	v.Write(lba, nblocks, data, func(r blockdev.WriteResult) { res = r; ok = true })
	v.m.eng.Run()
	if !ok {
		return ErrIncomplete
	}
	return res.Err
}

// ReadSync reads nblocks at the volume-relative lba, driving the
// simulation to completion. The payload is nil unless the array stores
// data.
func (v *Volume) ReadSync(lba int64, nblocks int) ([]byte, error) {
	var res blockdev.ReadResult
	ok := false
	v.Read(lba, nblocks, func(r blockdev.ReadResult) { res = r; ok = true })
	v.m.eng.Run()
	if !ok {
		return nil, ErrIncomplete
	}
	return res.Data, res.Err
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
	m := v.m
	if m.cfg.DisableQoS {
		m.issue(op)
		return
	}
	if v.rate > 0 {
		// FIFO behind any op already gated, so tenants cannot reorder
		// around their own throttle.
		if v.gateLen() > 0 || !v.takeTokens(op.cost) {
			v.gatePush(op)
			return
		}
	}
	v.admit(op)
}

// admit hands an op to the WFQ backlog and kicks dispatch.
func (v *Volume) admit(op *vop) {
	if v.readyHead == len(v.ready) {
		v.ready = v.ready[:0]
		v.readyHead = 0
	}
	op.admitAt = v.m.eng.Now()
	v.ready = append(v.ready, op)
	v.m.wfq.Push(v.id, op.cost)
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

func (v *Volume) gateLen() int { return len(v.gated) - v.gateHead }

// gatePush queues an op behind the token bucket and (re)arms the
// admission timer for the head op's ready time.
func (v *Volume) gatePush(op *vop) {
	if v.gateHead == len(v.gated) {
		v.gated = v.gated[:0]
		v.gateHead = 0
	}
	v.gated = append(v.gated, op)
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
	if v.gateSet || v.gateLen() == 0 {
		return
	}
	v.refill()
	need := v.gated[v.gateHead].cost*nsPerSec - v.tokensNs
	wait := (need + v.rate - 1) / v.rate // ceil: never wake a hair early
	if wait < 1 {
		wait = 1
	}
	v.gateSet = true
	v.m.eng.AfterEvent(wait, v, 0, 0)
}

// Fire implements sim.Handler: the admission timer. It drains every
// affordable gated op into the WFQ backlog, re-arms for the next one, and
// kicks dispatch.
func (v *Volume) Fire(_, _ sim.Time) {
	v.gateSet = false
	for v.gateLen() > 0 {
		op := v.gated[v.gateHead]
		if !v.takeTokens(op.cost) {
			break
		}
		v.gated[v.gateHead] = nil
		v.gateHead++
		now := v.m.eng.Now()
		v.st.ThrottleNanos += now - op.start
		// The admission stall is a span stage: attribution charges it to
		// "qos-stall" so throttled tenants can see their own backpressure.
		v.m.tr.Mark(op.span, op.gateAt, now, obs.LayerVolume, obs.PhaseQoS, v.id, -1, -1)
		v.admit(op)
	}
	v.armGate()
}

// --- WFQ dispatch (the submission shim into the array) ---

// dispatch fills the bounded in-flight window from the WFQ backlog.
func (m *Manager) dispatch() {
	for m.inflight < m.cfg.maxInflight() {
		flow, ok := m.wfq.Pop()
		if !ok {
			return
		}
		v := m.byID[flow]
		op := v.ready[v.readyHead]
		v.ready[v.readyHead] = nil
		v.readyHead++
		m.inflight++
		if now := m.eng.Now(); now > op.admitAt {
			// Time spent backlogged in the fair queue or held by the
			// in-flight window: the volume layer's "queue" stage.
			m.tr.Mark(op.span, op.admitAt, now, obs.LayerVolume, obs.PhaseQueue, v.id, -1, -1)
		}
		m.issue(op)
	}
}

// issue submits one op to the array front end.
func (m *Manager) issue(op *vop) {
	if op.write {
		m.dev.Write(op.lba, op.nblocks, op.data, op.wfwd)
	} else {
		m.dev.Read(op.lba, op.nblocks, op.rfwd)
	}
}

// account folds a completion into the tenant stats and frees the
// in-flight slot.
func (op *vop) account() (m *Manager, v *Volume) {
	v = op.v
	m = v.m
	if !m.cfg.DisableQoS {
		m.inflight--
	}
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
	if !m.cfg.DisableQoS {
		m.dispatch()
	}
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
	if !m.cfg.DisableQoS {
		m.dispatch()
	}
}
