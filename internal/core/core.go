// Package core implements BIZA, the paper's contribution: a self-governing
// block-interface AFA over ZNS SSDs (§4). It exposes the block interface
// upward while proactively scheduling I/O and SSD-internal work through
// the ZNS interface downward:
//
//   - writes are logged as 4 KiB chunks into dynamically formed RAID
//     stripes; a Block Mapping Table (BMT) and Stripe Mapping Table (SMT)
//     track placement (§4.1);
//   - the zone group selector classifies chunks with the ghost-cache
//     hierarchy and steers high-profit chunks to ZRWA-aware zone groups,
//     high-revenue chunks to GC-aware groups, and the rest to trivial
//     groups (§4.2);
//   - partial parities always live in the ZRWA of their stripe's parity
//     slot and are updated in place, never reaching flash until the stripe
//     is sealed (§4.2, Fig. 16);
//   - a guess-and-verify channel detector maintains the zone-to-I/O-channel
//     map (round-robin guess, vote-based online correction), enabling the
//     GC-avoidance mechanism to steer user writes away from BUSY channels
//     (§4.3);
//   - a ZRWA-aware sliding-window scheduler keeps many writes in flight
//     per zone without reorder failures (§4.4);
//   - mapping metadata piggybacks in per-block OOB areas, from which the
//     tables are rebuilt after a crash (§4.1).
package core

import (
	"errors"
	"fmt"
	"math"

	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/erasure"
	"biza/internal/fifo"
	"biza/internal/ghostcache"
	"biza/internal/metrics"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/pagetab"
	"biza/internal/sim"
)

// Class is a chunk placement class, mapping 1:1 onto zone-group types.
type Class uint8

// Placement classes (§4.2). classGC is internal: the destination class for
// GC migration, so migrated (cold) data never pollutes user groups.
const (
	ClassTrivial Class = iota
	ClassGCAware       // high revenue, long reuse distance
	ClassZRWA          // high profit: revenue + short reuse distance
	classGC
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassTrivial:
		return "trivial"
	case ClassGCAware:
		return "gc-aware"
	case ClassZRWA:
		return "zrwa-aware"
	case classGC:
		return "gc-dest"
	}
	return "unknown"
}

// Config tunes the engine.
type Config struct {
	// Parity is the fault tolerance m (1 = RAID 5, 2 = RAID 6).
	Parity int

	// ZonesPerGroup is how many open zones (ideally on distinct channels)
	// each class group keeps per device.
	ZonesPerGroup int

	// GCLowWater / GCHighWater are per-device free-zone watermarks.
	GCLowWater  int
	GCHighWater int

	// OverProvisionZones are per-device zones withheld from capacity.
	OverProvisionZones int

	// EnableSelector toggles the §4.2 zone group selector; disabled, all
	// chunks are trivial (the BIZAw/oSelector ablation).
	EnableSelector bool
	// EnableGCAvoid toggles the §4.3 BUSY-channel avoidance (the
	// BIZAw/oAvoid ablation).
	EnableGCAvoid bool

	// DetectVotes is the vote threshold for correcting a zone's guessed
	// channel (§4.3; paper uses 3).
	DetectVotes int
	// DiagnoseZones is how many zones are confirmed by the zone-to-zone
	// diagnosis at array creation.
	DiagnoseZones int
	// SpikeFactor: a completed write slower than SpikeFactor times the
	// moving average during GC casts a vote.
	SpikeFactor float64

	// MaxBatchBlocks caps how many contiguous chunk appends merge into one
	// device command (0 = ZRWA/4, the default; 1 disables merging — the
	// ablation showing per-command overhead drowning 4 KiB chunk traffic).
	MaxBatchBlocks int64
}

// DefaultConfig returns the paper's settings for the given per-device zone
// count.
func DefaultConfig(zonesPerDevice int) Config {
	op := zonesPerDevice / 8
	if op < 4 {
		op = 4
	}
	low := op/2 + 1
	if low < 3 {
		low = 3
	}
	high := op - 1
	if high <= low {
		high = low + 1
	}
	return Config{
		Parity:             1,
		ZonesPerGroup:      2,
		GCLowWater:         low,
		GCHighWater:        high,
		OverProvisionZones: op,
		EnableSelector:     true,
		EnableGCAvoid:      true,
		DetectVotes:        3,
		DiagnoseZones:      4,
		SpikeFactor:        3.0,
	}
}

// pa is a physical chunk address: device, zone, block offset. It is 8
// bytes; newCore refuses members whose zones or offsets it cannot address.
type pa struct {
	off  uint32
	zone uint16
	dev  int16 // -1: no slot
}

var paNone = pa{dev: -1}

// Bounds of the packed tables. Stripe numbers are 31 bits: a reverse-map
// slot holds -(sn+2) for a parity slot in an int32, so maxSN is the highest
// stripe number newStripe hands out and Recover adopts. newCore refuses
// any geometry beyond the rest: pa holds a zone in 16 bits and an offset
// in 32, the BMT holds member + 1 in a byte (which also bounds the SMT's
// uint8 chunk counts), and the SMT holds a logical block + 1 in 32 bits.
const (
	maxSN         = math.MaxInt32 - 1
	maxMembers    = 254
	maxZones      = math.MaxUint16
	maxZoneBlocks = math.MaxUint32 + 1
	maxBlocks     = math.MaxUint32
)

// errStripeNumbers fails a write that needs a new stripe once every stripe
// number up to maxSN has been handed out, and a recovery that finds one
// beyond it.
var errStripeNumbers = errors.New("core: stripe numbers exhausted")

// bmtEntry maps a logical block to its chunk location and owning stripe,
// in 12 bytes. The zero value is "no mapping, not pinned", which is what
// an absent BMT slot reads as. The mapping and the pin are independent: a
// block trimmed or not yet re-homed while GC migrates it has a pin and no
// mapping.
type bmtEntry struct {
	sn     int32
	off    uint32
	zone   uint16
	dev1   uint8 // member device + 1; 0 = the block has no mapping
	pinned bool  // being migrated by GC or rebuild: in-place updates defer
}

func mapTo(p pa, sn int64) bmtEntry {
	return bmtEntry{sn: int32(sn), off: p.off, zone: p.zone, dev1: uint8(p.dev + 1)}
}

func (e bmtEntry) mapped() bool { return e.dev1 != 0 }

// loc is the chunk's address; paNone for an unmapped block.
func (e bmtEntry) loc() pa { return pa{dev: int16(e.dev1) - 1, zone: e.zone, off: e.off} }

// smtEntry records a stripe: its parity and data chunk locations, and the
// logical blocks its chunks carry (needed for stripe-dissolving GC and
// degraded reads). Both live in its slab (smtSlab, pool.go), at its row:
// the m parity slots, then the chunks in stripe order beside their blocks;
// n counts the chunks added. Entries are recycled (getSE in pool.go). The
// SMT holds one per stripe written, so an entry is the slab pointer and the
// counters and state packed after it, 24 bytes, plus 32 of slots and 12 of
// blocks in the slab for a 3+1 stripe. A stripe has at most 253 data chunks
// (newCore), which bounds n, valid and pending.
type smtEntry struct {
	slab *smtSlab

	// holds counts the SMT (the entry's taker until the stripe enters it)
	// and the asynchronous users that may touch the entry (its open stripe,
	// in-place updates in flight, parked rewrites); dropSE recycles it at 0.
	holds int32

	// In-place parity updates are read-modify-write on the parity slot;
	// concurrent updates to one stripe must serialize or deltas are lost.
	// The rewrites (chunk records) and dissolutions that arrive meanwhile
	// park on a queue of Core.ipqs, which ipq names (index+1; 0 while
	// nothing is parked); each is fired as an event when its turn comes.
	ipq int32

	row     uint8 // the entry's index in its slab
	n       uint8 // data chunks added
	valid   uint8 // live data chunks
	pending uint8 // chunk writes not yet completed (crash-consistency)
	state   stripeState
}

// stripeState is where a stripe stands in its lifecycle (§4.2, §4.4); every
// move goes through Core.setState.
type stripeState uint8

const (
	stripeFree     stripeState = iota // recycled, or taken with no parity row yet
	stripeClaiming                    // newStripe holds some of its parity rows
	stripeOpen                        // taking chunks, its partial parity in ZRWA
	stripeSealing                     // every chunk added; the final parity generation waits behind one in flight
	stripeSealed                      // the final parity generation issued: in-place updates may start
	stripeUpdating                    // a payload in-place update in flight; rewrites park behind it
	// Claimed by GC or rebuild: a migration racing an in-place update would
	// lose it, so rewrites append elsewhere, and a claim of a stripe with an
	// update in flight parks the dissolution behind it.
	stripeDissolving
	stripeDissolvingUpdate
)

// isSealed reports whether the stripe takes no more chunks.
func (s stripeState) isSealed() bool { return s >= stripeSealing }

// updating reports whether a payload in-place update is in flight.
func (s stripeState) updating() bool { return s == stripeUpdating || s == stripeDissolvingUpdate }

// stripeMoves[s] has bit t set when a stripe in state s may move to t.
// Two moves the code makes are missing, each a known defect:
//   - sealing → updating: tryInPlace admits a stripe whose final parity
//     generation is not issued yet, so the update's read-modify-write reads
//     parity short of the last chunks, or that generation overwrites the
//     update's delta (ROADMAP 1(f));
//   - claiming → free: newStripe's rollback leaves the rows' slots taken
//     (ROADMAP item 22).
var stripeMoves = [...]uint16{
	stripeFree:             1<<stripeFree | 1<<stripeClaiming | 1<<stripeSealed, // the last: Recover
	stripeClaiming:         1<<stripeClaiming | 1<<stripeOpen,
	stripeOpen:             1<<stripeSealing | 1<<stripeDissolving,
	stripeSealing:          1<<stripeSealed | 1<<stripeDissolving,
	stripeSealed:           1<<stripeSealed | 1<<stripeUpdating | 1<<stripeDissolving | 1<<stripeFree,
	stripeUpdating:         1<<stripeSealed | 1<<stripeDissolvingUpdate,
	stripeDissolving:       1<<stripeDissolving | 1<<stripeFree,
	stripeDissolvingUpdate: 1<<stripeDissolvingUpdate | 1<<stripeDissolving,
}

// setState moves se to next, counting a move stripeMoves lacks.
func (c *Core) setState(se *smtEntry, next stripeState) {
	if stripeMoves[se.state]&(1<<next) == 0 {
		c.illegalMoves++
	}
	se.state = next
}

// slots returns the stripe's parity locations, then its data chunks'; a
// chunk's content feeds parity even when stale.
func (se *smtEntry) slots() []pa {
	s := se.slab
	i := int(se.row) * int(s.m+s.k)
	return s.slots[i : i+int(s.m)+int(se.n) : i+int(s.m+s.k)]
}

// parity returns the stripe's m parity locations.
func (se *smtEntry) parity() []pa { m := se.slab.m; return se.slots()[:m:m] }

// chunks returns the stripe's data chunk locations in stripe order.
func (se *smtEntry) chunks() []pa { return se.slots()[se.slab.m:] }

// lbns returns the logical block + 1 each chunk carries, 0 when stale.
func (se *smtEntry) lbns() []uint32 {
	s := se.slab
	i := int(se.row) * int(s.k)
	return s.lbns[i : i+int(se.n) : i+int(s.k)]
}

// addChunk appends a data chunk carrying lbn (-1: none) at p.
func (se *smtEntry) addChunk(p pa, lbn int64) {
	se.n++
	se.chunks()[se.n-1] = p
	se.lbns()[se.n-1] = uint32(lbn + 1)
}

// Core is the BIZA engine. It implements blockdev.Device.
type Core struct {
	cfg        Config
	eng        *sim.Engine
	devs       []*devState
	acct       *cpumodel.Accountant
	ghost      *ghostcache.Cache
	coder      *erasure.Coder // parity coefficients (XOR for m=1, RS beyond)
	nData      int            // data chunks per stripe (devices - parity)
	blockSize  int
	zoneBlocks int64
	zrwaBlocks int64

	bmt    pagetab.Table[bmtEntry]  // by logical block
	smt    pagetab.Table[*smtEntry] // by stripe number
	failed []bool                   // per-device failure flags (degraded mode)

	// Member health (see health.go): dead is permanent device death
	// detected from completion errors; failed additionally routes reads
	// through reconstruction during rebuilds; rebuilding tracks an
	// in-progress ReplaceDevicePaced for Health reporting.
	dead           []bool
	rebuilding     []bool
	onDeath        func(dev int)
	reconstructs   []uint64 // per-member chunks served via parity
	reconTotal     uint64
	degradedWrites uint64 // chunk writes acked while their member was down

	// allocWaiters holds chunks parked on transient open-slot exhaustion.
	allocWaiters []*chunkRec

	// round is the staging round zones staged now may join, nil when none
	// is armed (zones.go); rounds counts the rounds fired.
	round  *stageRound
	rounds uint64

	nextSN    int64
	seq       uint64 // monotonic write sequence for OOB disambiguation
	clock     uint64 // cumulative user bytes written (ghost-cache clock)
	parityRot int

	// Open stripes per class.
	open [numClasses]*openStripe

	// Latency EWMA for spike detection.
	ewmaLatency float64
	latSamples  uint64

	// Diagnostic channel oracle (tests/benches only): when set, writes
	// issued while GC is active are scored against the true mapping.
	oracle     func(dev, zone int) int
	busyWrites uint64
	busyHits   uint64

	// Accounting.
	userBytes      uint64
	parityBytes    uint64 // partial+final parity chunk writes issued
	gcMigrated     uint64
	gcEvents       uint64
	inplaceHits    uint64
	detectCorrects uint64
	illegalMoves   uint64 // stripe state moves stripeMoves lacks

	tr *obs.Trace

	// Unified buffer pool (see pool.go and internal/buf): block scratch,
	// OOB records, and coalesced batch payloads all come from one
	// size-class-segregated pool shared down the stack, so steady-state
	// stripe writes allocate nothing. The remaining free lists recycle
	// vectors and the write and read paths' records, which have no
	// byte-pool equivalent; recs are the engine's (see pool.go).
	pool     *buf.Pool
	recs     *recs
	smtFree  []*smtEntry
	smtSlab  []smtEntry                // fresh entries not yet handed out
	ipqs     []fifo.Queue[sim.Handler] // parked-rewrite queues, named by smtEntry.ipq
	ipqFree  []int32                   // ipqs indices not in use
	liveRecs recCounts
}

// Pool returns the core's unified buffer pool. The stack layer publishes
// its occupancy and copy counters as observability probes, and callers of
// WriteBuf draw their payload buffers from it.
func (c *Core) Pool() *buf.Pool { return c.pool }

// SetTracer attaches an observability trace: array-level spans cover each
// block-interface Write/Read end to end, and GC victim selections are
// logged as typed events.
func (c *Core) SetTracer(tr *obs.Trace) { c.tr = tr }

// openStripe is the append-side state of a stripe still taking chunks or
// still writing parity. Its parity slots are its SMT entry's (se.parity),
// which it holds until retired. A recycled record (getStripe in pool.go).
type openStripe struct {
	c     *Core
	live  bool
	sn    int64
	se    *smtEntry
	class Class
	count int
	accs  [][]byte // running partial parity per row; nil without payloads

	// One parity generation in flight per stripe; extra appends coalesce.
	// remaining and firstErr belong to that generation; the chunks waiting
	// for parity form a FIFO list through chunkRec.nextWaiter.
	gen       parityGen
	remaining int
	firstErr  error
	waitHead  *chunkRec
	waitTail  *chunkRec
}

// parityGen is an open stripe's parity generation state.
type parityGen uint8

const (
	genUnwritten parityGen = iota // none issued: the first appends, later ones rewrite in place
	genIdle
	genBusy  // one in flight
	genDirty // one in flight, and appends since that the next must carry
)

// New builds a BIZA array over the member queues. Queues must wrap
// homogeneous devices. acct may be nil.
func New(queues []*nvme.Queue, cfg Config, acct *cpumodel.Accountant) (*Core, error) {
	c, err := newCore(queues, cfg, acct)
	if err != nil {
		return nil, err
	}
	for i, q := range queues {
		ds, err := newDevState(c, i, q)
		if err != nil {
			return nil, err
		}
		c.devs = append(c.devs, ds)
	}
	for _, ds := range c.devs {
		ds.diagnose(cfg.DiagnoseZones)
	}
	return c, nil
}

// newCore validates cfg against the member queues and returns an array
// with no device state yet; New and Recover each add their own.
// The ghost cache is sized from the array's total ZRWA (§4.2).
func newCore(queues []*nvme.Queue, cfg Config, acct *cpumodel.Accountant) (*Core, error) {
	if len(queues) < 3 {
		return nil, fmt.Errorf("core: need >= 3 members, got %d", len(queues))
	}
	if cfg.Parity < 1 || cfg.Parity >= len(queues)-1 {
		return nil, fmt.Errorf("core: parity %d with %d members", cfg.Parity, len(queues))
	}
	if len(queues) > maxMembers {
		return nil, fmt.Errorf("core: %d members, at most %d", len(queues), maxMembers)
	}
	base := queues[0].Device().Config()
	for _, q := range queues[1:] {
		c := q.Device().Config()
		if c.ZoneBlocks != base.ZoneBlocks || c.NumZones != base.NumZones ||
			c.BlockSize != base.BlockSize || c.ZRWABlocks != base.ZRWABlocks {
			return nil, fmt.Errorf("core: heterogeneous members")
		}
	}
	if base.NumZones > maxZones || base.ZoneBlocks > maxZoneBlocks {
		return nil, fmt.Errorf("core: %d zones of %d blocks, at most %d of %d", base.NumZones, base.ZoneBlocks, maxZones, int64(maxZoneBlocks))
	}
	if base.ZRWABlocks == 0 {
		return nil, fmt.Errorf("core: members lack ZRWA support")
	}
	zonesNeeded := cfg.ZonesPerGroup*int(numClasses) + 1
	if base.MaxOpenZones < zonesNeeded {
		return nil, fmt.Errorf("core: device allows %d open zones, need %d", base.MaxOpenZones, zonesNeeded)
	}
	if cfg.OverProvisionZones < 2 || cfg.OverProvisionZones >= base.NumZones {
		return nil, fmt.Errorf("core: bad over-provisioning %d", cfg.OverProvisionZones)
	}
	nData := len(queues) - cfg.Parity
	if blocks := int64(base.NumZones-cfg.OverProvisionZones) * base.ZoneBlocks * int64(nData); blocks > maxBlocks {
		return nil, fmt.Errorf("core: %d logical blocks, at most %d", blocks, int64(maxBlocks))
	}
	if cfg.GCLowWater < 1 || cfg.GCHighWater <= cfg.GCLowWater {
		return nil, fmt.Errorf("core: bad GC watermarks")
	}
	if acct == nil {
		acct = &cpumodel.Accountant{}
	}
	coder, err := erasure.NewCoder(nData, cfg.Parity)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:        cfg,
		eng:        queues[0].Device().Engine(),
		acct:       acct,
		nData:      nData,
		coder:      coder,
		blockSize:  base.BlockSize,
		zoneBlocks: base.ZoneBlocks,
		zrwaBlocks: base.ZRWABlocks,
		failed:     make([]bool, len(queues)),
		dead:       make([]bool, len(queues)),
		rebuilding: make([]bool, len(queues)),
		pool:       buf.NewPool(),
		recs:       sim.Local[recs](queues[0].Device().Engine()),
	}
	c.reconstructs = make([]uint64, len(queues))
	totalZRWA := uint64(base.ZRWABlocks) * uint64(base.BlockSize) * uint64(base.MaxOpenZones) * uint64(len(queues))
	c.ghost = ghostcache.New(ghostcache.DefaultConfig(totalZRWA))
	return c, nil
}

// BlockSize implements blockdev.Device.
func (c *Core) BlockSize() int { return c.blockSize }

// StoresData implements blockdev.DataStorer: reads return payloads only
// when every member device retains them.
func (c *Core) StoresData() bool {
	for _, ds := range c.devs {
		if !ds.storeData {
			return false
		}
	}
	return true
}

// Blocks implements blockdev.Device: user capacity. Each stripe stores
// nData data chunks across the array; capacity follows from the per-device
// zone budget minus over-provisioning.
func (c *Core) Blocks() int64 {
	zones := int64(c.devs[0].q.Device().Config().NumZones - c.cfg.OverProvisionZones)
	// Across all devices, each zone block holds data or parity in ratio
	// nData : parity.
	total := zones * c.zoneBlocks * int64(len(c.devs))
	return total * int64(c.nData) / int64(len(c.devs))
}

// WriteAmp reports engine-level traffic (flash truth is in the devices).
func (c *Core) WriteAmp() metrics.WriteAmp {
	return metrics.WriteAmp{
		UserBytes:        c.userBytes,
		FlashDataBytes:   c.userBytes + c.gcMigrated,
		FlashParityBytes: c.parityBytes,
		GCMigratedBytes:  c.gcMigrated,
	}
}

// GCEvents reports completed victim collections.
func (c *Core) GCEvents() uint64 { return c.gcEvents }

// InPlaceHits reports chunk updates absorbed in place in ZRWA.
func (c *Core) InPlaceHits() uint64 { return c.inplaceHits }

// DetectCorrections reports how many zone-channel guesses the vote-based
// detector has corrected.
func (c *Core) DetectCorrections() uint64 { return c.detectCorrects }

// GhostCache exposes the selector's cache (diagnostics).
func (c *Core) GhostCache() *ghostcache.Cache { return c.ghost }

func (c *Core) chunkBytes() int64 { return int64(c.blockSize) }

// classify maps a ghost-cache level to a placement class.
func (c *Core) classify(lbn int64) Class {
	if !c.cfg.EnableSelector {
		return ClassTrivial
	}
	c.acct.Charge(cpumodel.CompBIZA, cpumodel.CostGhostAccess)
	switch c.ghost.Access(uint64(lbn), c.clock) {
	case ghostcache.LevelHP:
		return ClassZRWA
	case ghostcache.LevelHR:
		return ClassGCAware
	default:
		return ClassTrivial
	}
}

// Flush commits every open zone's ZRWA so all acknowledged data reaches
// flash — used by endurance experiments before reading the device
// counters (absorbed overwrites stay absorbed; only the current buffer
// contents are programmed). The caller drains the engine afterwards.
func (c *Core) Flush() {
	for _, ds := range c.devs {
		for class := Class(0); class < numClasses; class++ {
			for _, zs := range ds.groups[class] {
				if zs == nil || zs.sealedF || zs.wpAlloc == 0 {
					continue
				}
				dev := ds.q.Device()
				info, err := dev.ZoneInfo(zs.id)
				if err != nil || !info.ZRWA {
					continue
				}
				upTo := zs.wpAlloc
				if max := info.WritePtr + c.zrwaBlocks; upTo > max {
					upTo = max
				}
				if upTo > info.WritePtr {
					dev.CommitZRWA(zs.id, upTo)
				}
			}
		}
	}
}

// ResetAccounting zeroes the engine's traffic counters (experiments call
// it after preconditioning; device counters reset separately).
func (c *Core) ResetAccounting() {
	c.userBytes, c.parityBytes, c.gcMigrated = 0, 0, 0
	c.gcEvents, c.inplaceHits = 0, 0
	c.busyWrites, c.busyHits = 0, 0
}
