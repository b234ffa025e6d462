// Package obs is the virtual-time observability layer: per-I/O spans,
// typed zone/GC event records, and counter/gauge probes, captured into a
// fixed-capacity ring of flat records with no allocation on the hot path.
//
// Every layer of the simulated storage stack (nvme queue, zns device, ftl
// device, and the array engines) holds an optional *Trace; all record
// methods are nil-receiver safe, so an untraced run pays only a nil check
// per call site. Timestamps are virtual nanoseconds from the simulation
// engine that owns the traced platform, which makes trace output a pure
// function of (seed, experiment, point): byte-identical at any worker
// count.
//
// One Trace covers one simulation engine (one assembled platform). A
// benchmark sweep produces a list of Traces in canonical point order;
// WritePerfetto and WriteJSONL serialize such a list deterministically.
package obs

import (
	"fmt"
	"sort"

	"biza/internal/metrics"
)

// SpanID identifies one traced I/O. The zero SpanID means "not traced"
// (tracer disabled, or the span was sampled out); Mark and SpanEnd ignore
// it, so call sites never branch on sampling themselves.
type SpanID = uint64

// Every name obs exports is declared once, in a table indexed by the
// value it names. nameAt is the one lookup: a value outside its table (a
// corrupt record, or a value newer than this reader) renders as "unknown".
func nameAt(names []string, v int64) string {
	if v >= 0 && v < int64(len(names)) {
		return names[v]
	}
	return "unknown"
}

// Layer identifies the stack layer that recorded a span or segment.
type Layer uint8

// Stack layers.
const (
	LayerNVMe Layer = iota
	LayerZNS
	LayerFTL
	LayerBIZA
	LayerRAIZN
	LayerZapRAID
	LayerVolume

	numLayers // sentinel for exhaustiveness tests; keep last
)

var layerNames = [numLayers]string{
	LayerNVMe: "nvme", LayerZNS: "zns", LayerFTL: "ftl", LayerBIZA: "biza",
	LayerRAIZN: "raizn", LayerZapRAID: "zapraid", LayerVolume: "volume",
}

func (l Layer) String() string { return nameAt(layerNames[:], int64(l)) }

// Op is the operation a span covers.
type Op uint8

// Span operations.
const (
	OpWrite Op = iota
	OpRead
	OpAppend
	OpReset

	numOps // sentinel for exhaustiveness tests; keep last
)

var opNames = [numOps]string{OpWrite: "write", OpRead: "read", OpAppend: "append", OpReset: "reset"}

func (o Op) String() string { return nameAt(opNames[:], int64(o)) }

// Phase is one service interval inside a span's lifecycle.
type Phase uint8

// Span phases, in lifecycle order: QoS admission stall, queueing in the
// driver, the host-device transfer link, the flash channel bus, the die
// program/read pipeline, and the ZRWA/DRAM buffer write.
const (
	PhaseQueue Phase = iota
	PhaseXfer
	PhaseBus
	PhaseDie
	PhaseBuffer
	// PhaseQoS: time a volume-layer op spent stalled on token-bucket
	// admission before entering the fair queue.
	PhaseQoS

	numPhases // sentinel for exhaustiveness tests; keep last
)

var phaseNames = [numPhases]string{
	PhaseQueue: "queue", PhaseXfer: "xfer", PhaseBus: "bus", PhaseDie: "die",
	PhaseBuffer: "buffer", PhaseQoS: "qos-stall",
}

func (p Phase) String() string { return nameAt(phaseNames[:], int64(p)) }

// Seg classifies standalone service segments: device-internal work not tied
// to one host I/O, which is exactly the hidden traffic (ZRWA flush programs,
// GC erases) that causes cross-I/O interference.
type Seg uint8

// Standalone segments.
const (
	SegProgramBus Seg = iota // channel bus transfer of a ZRWA commit batch
	SegProgramDie            // die program of a ZRWA commit batch
	SegErase                 // per-die zone reset erase

	numSegs // sentinel for exhaustiveness tests; keep last
)

var segNames = [numSegs]string{SegProgramBus: "program-bus", SegProgramDie: "program-die", SegErase: "erase"}

func (s Seg) String() string { return nameAt(segNames[:], int64(s)) }

// EventKind is a typed instantaneous event.
type EventKind uint8

// Event kinds.
const (
	// EvZoneState: a zone changed state. Arg0 = old state, Arg1 = new
	// state (ZoneStateName numbering).
	EvZoneState EventKind = iota
	// EvZoneReset: a zone was erased. Arg0 = resulting erase count.
	EvZoneReset
	// EvZRWACommit: a ZRWA window commit. Arg0 = new committed boundary
	// (blocks), Arg1 = blocks committed, Flag = commit reason.
	EvZRWACommit
	// EvGCVictim: the host engine selected a GC victim zone. Arg0 = live
	// chunks in the victim, Arg1 = free zones remaining on the device.
	EvGCVictim
	// EvFault: the fault layer injected a failure into a delivered
	// command. Arg0 = op (obs.Op numbering), Arg1 = lba (-1 none),
	// Flag = fault kind (FaultKindName numbering).
	EvFault
	// EvReconstruct: the array served a chunk by parity reconstruction
	// instead of reading a failed member. Dev = the failed member,
	// Arg0 = logical block number, Arg1 = 0 on success / 1 on failure.
	EvReconstruct
	// EvMemberState: an array member changed health state. Arg0 = new
	// state, Arg1 = old state (MemberStateName numbering).
	EvMemberState
	// EvPowerLoss: the device lost power. Arg0 = unacknowledged buffer
	// blocks dropped, Arg1 = pending blocks hardened by the capacitor
	// flush.
	EvPowerLoss

	numEventKinds // sentinel for exhaustiveness tests; keep last
)

var eventNames = [numEventKinds]string{
	EvZoneState: "zone-state", EvZoneReset: "zone-reset", EvZRWACommit: "zrwa-commit",
	EvGCVictim: "gc-victim", EvFault: "fault", EvReconstruct: "reconstruct",
	EvMemberState: "member-state", EvPowerLoss: "power-loss",
}

func (e EventKind) String() string { return nameAt(eventNames[:], int64(e)) }

// ZRWA commit reasons (Record.Flag of EvZRWACommit).
const (
	CommitImplicit uint8 = iota // window shifted by a write beyond it
	CommitExplicit              // explicit COMMIT ZRWA command
	CommitClose                 // zone close flushed the window
	CommitFinish                // zone finish flushed the window
)

var commitReasonNames = [...]string{
	CommitImplicit: "implicit", CommitExplicit: "explicit", CommitClose: "close", CommitFinish: "finish",
}

// CommitReason names a commit reason flag.
func CommitReason(f uint8) string { return nameAt(commitReasonNames[:], int64(f)) }

// The state enums below belong to packages that hold a *Trace, so obs
// cannot import them. Their owners' String methods read these tables
// instead, and each owner's tests pin its numbering to them.

// faultKindNames is indexed by fault.Kind.
var faultKindNames = [...]string{"transient", "latency", "unreadable", "device-death", "power-loss"}

// FaultKindName names a fault.Kind value carried in an EvFault record.
func FaultKindName(f uint8) string { return nameAt(faultKindNames[:], int64(f)) }

// memberStateNames is indexed by core.MemberState.
var memberStateNames = [...]string{"healthy", "degraded", "rebuilding"}

// MemberStateName names a core.MemberState value carried in an
// EvMemberState record.
func MemberStateName(v int64) string { return nameAt(memberStateNames[:], v) }

// zoneStateNames is indexed by zns.ZoneState.
var zoneStateNames = [...]string{
	"empty", "implicit-open", "explicit-open", "closed", "full", "read-only", "offline",
}

// ZoneStateName names a zns.ZoneState value carried in an EvZoneState record.
func ZoneStateName(v int64) string { return nameAt(zoneStateNames[:], v) }

// RecKind discriminates ring records.
type RecKind uint8

// Record kinds.
const (
	RecSpanBegin RecKind = iota
	RecSpanEnd
	RecMark    // service interval [TS, Arg0) inside span Span, Sub = Phase
	RecSegment // standalone service interval [TS, Arg0), Sub = Seg
	RecEvent   // instantaneous typed event, Sub = EventKind
	RecCounter // probe sample, Span = probe key, Arg0 = value
)

// Record is one flat ring entry. Field use by kind:
//
//	SpanBegin: Span=id  Sub=Op        Arg0=lba    Arg1=blocks
//	SpanEnd:   Span=id               Flag=1 on error
//	Mark:      Span=id  Sub=Phase     Arg0=end ts Arg1=channel (-1 none)
//	Segment:            Sub=Seg       Arg0=end ts Arg1=channel  Flag=blocks
//	Event:              Sub=EventKind Arg0, Arg1, Flag per kind
//	Counter:   Span=probe key         Arg0=value
type Record struct {
	TS    int64 // virtual ns
	Span  uint64
	Arg0  int64
	Arg1  int64
	Dev   int32
	Zone  int32
	Kind  RecKind
	Layer Layer
	Sub   uint8
	Flag  uint8
}

// ProbeKind identifies a probe family. Together with (dev, aux) it forms
// the probe key, so hot-path emission never touches a string.
type ProbeKind uint8

// Probe families, each declared by its probeDefs row.
const (
	ProbeQueueDepth ProbeKind = iota
	ProbeOpenZones
	ProbeChanWriteBusy
	ProbeChanReadBusy
	ProbeFaults
	ProbeReconstructs
	ProbeTenantQD
	ProbeTenantStalls
	ProbeTenantBytes
	ProbeTrimDropped
	ProbePoolMiss
	ProbePoolLive
	ProbePayloadCopy

	numProbeKinds // sentinel for exhaustiveness tests; keep last
)

// probeScope is the suffix a probe key's (dev, aux) adds to its family, as
// a format with explicit argument indexes, so it may use either or both.
type probeScope string

const (
	global     probeScope = ""
	perDev     probeScope = "/dev%[1]d"
	perChannel probeScope = "/dev%[1]d/ch%[2]d" // aux = channel
	perTenant  probeScope = "/t%[1]d"           // dev = tenant id
)

// probeDef is one probe family: export-name prefix, suffix scope, and
// nature (a gauge's summary is its maximum, a counter's its final value).
type probeDef struct {
	family string
	scope  probeScope
	nature metrics.ProbeKind
}

// probeDefs is the probe registry, one row per family.
var probeDefs = [numProbeKinds]probeDef{
	// In-flight commands in one driver queue.
	ProbeQueueDepth: {"qd", perDev, metrics.ProbeGauge},
	// Open zones on one device.
	ProbeOpenZones: {"open_zones", perDev, metrics.ProbeGauge},
	// Cumulative program-bus busy ns of one channel.
	ProbeChanWriteBusy: {"chan_write_busy_ns", perChannel, metrics.ProbeCounter},
	// Cumulative read-bus busy ns of one channel.
	ProbeChanReadBusy: {"chan_read_busy_ns", perChannel, metrics.ProbeCounter},
	// Cumulative faults injected into one device's command stream.
	ProbeFaults: {"faults", perDev, metrics.ProbeCounter},
	// Cumulative chunks the array served by parity reconstruction (dev =
	// the failed member).
	ProbeReconstructs: {"reconstructs", perDev, metrics.ProbeCounter},
	// Queued plus in-flight ops of one tenant volume (tenant id capped at
	// int16 by the key packing).
	ProbeTenantQD: {"tenant_qd", perTenant, metrics.ProbeGauge},
	// Cumulative token-bucket throttle stalls of one tenant volume.
	ProbeTenantStalls: {"tenant_stalls", perTenant, metrics.ProbeCounter},
	// Cumulative payload bytes completed for one tenant volume — the
	// achieved share over a run.
	ProbeTenantBytes: {"tenant_bytes", perTenant, metrics.ProbeCounter},
	// Blocks whose trims a stack without a discard path silently dropped
	// (see stack.Platform.TrimDrops).
	ProbeTrimDropped: {"trim_dropped", global, metrics.ProbeCounter},
	// Buffer-pool requests that heap-allocated because no recycled slab of
	// the size class was available. A cold pool misses once per slab;
	// sustained growth means the working set outruns recycling.
	ProbePoolMiss: {"pool_miss", global, metrics.ProbeCounter},
	// Refcounted buffers held by the data path at finalize — pool
	// occupancy; nonzero after drain is a leak.
	ProbePoolLive: {"pool_live", global, metrics.ProbeGauge},
	// Payload copies performed between the workload generator and the
	// flash model — the zero-copy path keeps this flat during steady-state
	// stripe writes.
	ProbePayloadCopy: {"payload_copy", global, metrics.ProbeCounter},
}

// ProbeKey packs a probe identity into a ring-record key.
func ProbeKey(kind ProbeKind, dev, aux int) uint64 {
	return uint64(kind)<<32 | uint64(uint16(dev))<<16 | uint64(uint16(aux))
}

func probeKeyParts(key uint64) (kind ProbeKind, dev, aux int) {
	return ProbeKind(key >> 32), int(int16(key >> 16)), int(int16(key))
}

// ProbeName renders a probe key's stable export name.
func ProbeName(key uint64) string {
	kind, dev, aux := probeKeyParts(key)
	if kind >= numProbeKinds {
		return fmt.Sprintf("probe%d/dev%d/%d", kind, dev, aux)
	}
	d := probeDefs[kind]
	if d.scope == global {
		return d.family
	}
	return fmt.Sprintf(d.family+string(d.scope), dev, aux)
}

// probeNature reports a probe key's gauge/counter nature; a kind outside
// the registry aggregates as a counter.
func probeNature(key uint64) metrics.ProbeKind {
	if kind, _, _ := probeKeyParts(key); kind < numProbeKinds {
		return probeDefs[kind].nature
	}
	return metrics.ProbeCounter
}

type probeAgg struct {
	key  uint64
	last int64
	max  int64
}

// Config sizes a Trace.
type Config struct {
	// Capacity bounds retained records; once full, the oldest records are
	// overwritten (Dropped counts them). 0 = DefaultCapacity.
	Capacity int
	// SampleN records every Nth I/O span (plus all events, segments, and
	// counters). 0 or 1 = every span.
	SampleN int
}

// DefaultCapacity retains 2^18 records (~12 MiB), ample for a quick-scale
// experiment point; long sweeps rely on SampleN or accept oldest-first drop.
const DefaultCapacity = 1 << 18

// Trace captures the observability records of one simulation engine.
// It is single-goroutine, like the engine it observes.
type Trace struct {
	name    string
	cap     int
	sampleN uint64

	recs    []Record
	start   int
	dropped uint64

	spanCtr  uint64 // spans offered (sampling clock)
	nextSpan uint64 // ids handed out

	probes   map[uint64]*probeAgg
	probeSeq []uint64 // insertion order, for deterministic export
	finals   []func()
	final    bool

	// Optional virtual-time series sampler (see EnableSampler). Driven by
	// probe emissions: Counter advances it past any due ticks before
	// applying the update, so each tick records the values visible at its
	// exact virtual time. Probe emission order within one engine is
	// shard-count- and worker-count-invariant, so the series are too.
	sampler *metrics.Sampler
}

// New returns an empty trace.
func New(cfg Config) *Trace {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	n := cfg.SampleN
	if n < 1 {
		n = 1
	}
	return &Trace{
		cap:     cfg.Capacity,
		sampleN: uint64(n),
		probes:  make(map[uint64]*probeAgg),
	}
}

// SetName labels the trace (export process name). Nil-safe.
func (t *Trace) SetName(name string) {
	if t != nil {
		t.name = name
	}
}

// Name reports the trace label.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Len reports retained records.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// Dropped reports records overwritten after the ring filled.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

func (t *Trace) emit(r Record) {
	if len(t.recs) < t.cap {
		t.recs = append(t.recs, r)
		return
	}
	t.recs[t.start] = r
	t.start++
	if t.start == t.cap {
		t.start = 0
	}
	t.dropped++
}

// SpanBegin opens a span for one I/O, subject to sampling. dev/zone may be
// -1 when the layer has no such notion (array-level spans). Returns 0 when
// the span is not recorded.
func (t *Trace) SpanBegin(ts int64, layer Layer, op Op, dev, zone int, lba, blocks int64) SpanID {
	if t == nil {
		return 0
	}
	t.spanCtr++
	if t.sampleN > 1 && t.spanCtr%t.sampleN != 0 {
		return 0
	}
	t.nextSpan++
	id := t.nextSpan
	t.emit(Record{TS: ts, Span: id, Arg0: lba, Arg1: blocks,
		Dev: int32(dev), Zone: int32(zone), Kind: RecSpanBegin, Layer: layer, Sub: uint8(op)})
	return id
}

// Mark records a service interval [start, end) inside span id. ch is the
// flash channel serving it, or -1.
func (t *Trace) Mark(id SpanID, start, end int64, layer Layer, ph Phase, dev, zone, ch int) {
	if t == nil || id == 0 {
		return
	}
	t.emit(Record{TS: start, Span: id, Arg0: end, Arg1: int64(ch),
		Dev: int32(dev), Zone: int32(zone), Kind: RecMark, Layer: layer, Sub: uint8(ph)})
}

// SpanEnd closes span id.
func (t *Trace) SpanEnd(id SpanID, ts int64, failed bool) {
	if t == nil || id == 0 {
		return
	}
	var flag uint8
	if failed {
		flag = 1
	}
	t.emit(Record{TS: ts, Span: id, Kind: RecSpanEnd, Flag: flag})
}

// Segment records a standalone service interval [start, end) — device
// background work such as ZRWA flush programs and erases. blocks is
// clamped into the record's byte-sized field.
func (t *Trace) Segment(start, end int64, layer Layer, seg Seg, dev, zone, ch, blocks int) {
	if t == nil {
		return
	}
	if blocks > 255 {
		blocks = 255
	}
	t.emit(Record{TS: start, Arg0: end, Arg1: int64(ch),
		Dev: int32(dev), Zone: int32(zone), Kind: RecSegment, Layer: layer,
		Sub: uint8(seg), Flag: uint8(blocks)})
}

// Event records an instantaneous typed event.
func (t *Trace) Event(ts int64, layer Layer, kind EventKind, dev, zone int, a0, a1 int64, flag uint8) {
	if t == nil {
		return
	}
	t.emit(Record{TS: ts, Arg0: a0, Arg1: a1,
		Dev: int32(dev), Zone: int32(zone), Kind: RecEvent, Layer: layer,
		Sub: uint8(kind), Flag: flag})
}

// Counter records a probe sample and folds it into the probe aggregates.
func (t *Trace) Counter(ts int64, key uint64, v int64) {
	if t == nil {
		return
	}
	// Catch up the sampler BEFORE applying the update: each due tick then
	// snapshots the values that were current at its virtual time, giving
	// exact piecewise-constant series without the sampler needing its own
	// engine events (which would keep the run's event heap from draining).
	if t.sampler != nil && t.sampler.Due(ts) {
		t.sampler.Advance(ts)
	}
	agg := t.probes[key]
	if agg == nil {
		agg = &probeAgg{key: key}
		t.probes[key] = agg
		t.probeSeq = append(t.probeSeq, key)
		if t.sampler != nil {
			t.registerProbeSeries(agg)
		}
	}
	agg.last = v
	if v > agg.max {
		agg.max = v
	}
	t.emit(Record{TS: ts, Span: key, Arg0: v, Kind: RecCounter})
}

// OnFinalize registers fn to run once at Finalize — platforms register
// snapshots of cumulative device telemetry (channel busy time, final open
// zone counts) here.
func (t *Trace) OnFinalize(fn func()) {
	if t != nil {
		t.finals = append(t.finals, fn)
	}
}

// Finalize runs registered finalizers once, in registration order.
func (t *Trace) Finalize() {
	if t == nil || t.final {
		return
	}
	t.final = true
	for _, fn := range t.finals {
		fn()
	}
}

// Records returns retained records oldest-first.
func (t *Trace) Records() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.recs))
	out = append(out, t.recs[t.start:]...)
	out = append(out, t.recs[:t.start]...)
	return out
}

// ProbeStats summarizes every probe the trace touched, sorted by name:
// gauges report their maximum, counters their final value. The result
// folds into metrics.RunStats.Probes.
func (t *Trace) ProbeStats() []metrics.ProbeStat {
	if t == nil || len(t.probeSeq) == 0 {
		return nil
	}
	out := make([]metrics.ProbeStat, 0, len(t.probeSeq))
	for _, key := range t.probeSeq {
		agg := t.probes[key]
		ps := metrics.ProbeStat{Name: ProbeName(key), Kind: probeNature(key), Value: float64(agg.last)}
		if ps.Kind == metrics.ProbeGauge {
			ps.Value = float64(agg.max)
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
