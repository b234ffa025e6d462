// Package stack assembles the evaluation platforms of §5.1 behind one
// interface: BIZA, RAIZN (via a sequential block shim), dmzap+RAIZN,
// mdraid+dmzap, mdraid+ConvSSD, plus the BIZAw/oSelector and BIZAw/oAvoid
// ablations. Each platform owns its simulated devices and exposes flash
// truth for write-amplification accounting.
package stack

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/cpumodel"
	"biza/internal/dmzap"
	"biza/internal/fault"
	"biza/internal/ftl"
	"biza/internal/mdraid"
	"biza/internal/metrics"
	"biza/internal/nvme"
	"biza/internal/obs"
	"biza/internal/raizn"
	"biza/internal/sim"
	"biza/internal/storerr"
	"biza/internal/zapraid"
	"biza/internal/zns"
	"biza/internal/zoneapi"
)

// Kind names a platform.
type Kind string

// Platform kinds (§5.1's five settings plus the two ablations).
const (
	KindBIZA          Kind = "BIZA"
	KindBIZANoSel     Kind = "BIZAw/oSelector"
	KindBIZANoAvoid   Kind = "BIZAw/oAvoid"
	KindRAIZN         Kind = "RAIZN"
	KindDmzapRAIZN    Kind = "dmzap+RAIZN"
	KindMdraidDmzap   Kind = "mdraid+dmzap"
	KindMdraidConvSSD Kind = "mdraid+ConvSSD"
	// KindZapRAID is the APPEND-based design alternative of §3.2/§6
	// (ZapRAID-style): parallel zone appends, no ZRWA.
	KindZapRAID Kind = "ZapRAID"
)

// AllBlockPlatforms lists every platform exposing the block interface.
var AllBlockPlatforms = []Kind{
	KindBIZA, KindDmzapRAIZN, KindMdraidDmzap, KindMdraidConvSSD,
}

// Options parameterize platform construction.
type Options struct {
	Members int        // SSD count (default 4)
	ZNS     zns.Config // member geometry for ZNS-based platforms
	FTL     ftl.Config // member geometry for mdraid+ConvSSD
	Seed    uint64

	// BIZAConfig overrides the engine defaults (zero value = defaults).
	BIZAConfig *core.Config
	// RAIZNStripeCacheBytes enables RAIZN's volatile parity cache (§5.4).
	RAIZNStripeCacheBytes int64

	// Trace, when non-nil, instruments every layer of the platform: driver
	// queues and devices record per-I/O spans and zone events, the array
	// engine records array-level spans, and a finalizer snapshots
	// per-channel busy time into counter probes. Nil costs one pointer
	// check per hot-path call.
	Trace *obs.Trace

	// Faults, when non-nil, compiles a deterministic fault plan (seeded
	// from Seed) and interposes an injector on every member driver queue,
	// so every ZNS-based stack sees identical fault schedules. Power-loss
	// rules additionally schedule a Crash+Recover cycle (BIZA platforms
	// only).
	Faults *fault.Spec

	// AutoReplace hot-swaps a fresh spare (via ReplaceDevicePaced, unpaced)
	// as soon as the engine declares a member dead. BIZA platforms only.
	AutoReplace bool
}

// BenchZNS returns the scaled ZN540 geometry the experiments run on:
// datasheet service rates with 16 MiB zones so GC cycles fit in short
// simulations. numZones scales capacity.
func BenchZNS(numZones int) zns.Config {
	cfg := zns.ZN540(numZones)
	cfg.ZoneBlocks = 16 << 20 / 4096 // 16 MiB zones
	cfg.ZRWABlocks = 1 << 20 / 4096  // 1 MiB ZRWA (Table 2)
	cfg.StoreData = false
	return cfg
}

// BenchFTL returns the matching SN640 geometry.
func BenchFTL(flashBlocks int) ftl.Config {
	cfg := ftl.SN640(flashBlocks)
	cfg.StoreData = false
	return cfg
}

// Platform is one assembled storage stack under test.
type Platform struct {
	Kind Kind
	Eng  *sim.Engine
	Dev  blockdev.Device // block front-end (nil for raw RAIZN)
	Acct *cpumodel.Accountant

	// Underlying stores for flash accounting.
	ZNSDevs []*zns.Device
	FTLDevs []*ftl.Device

	// Engine internals for diagnostics.
	BIZA  *core.Core
	RAIZN *raizn.Array

	opts         Options
	queues       []*nvme.Queue // member driver queues (ZNS-based platforms)
	plan         *fault.Plan
	bizaCfg      core.Config // resolved engine config (BIZA kinds)
	crashed      bool
	recoveries   uint64
	replacements uint64
}

// New assembles a platform of the given kind on a fresh simulation engine.
func New(kind Kind, opts Options) (*Platform, error) {
	eng := sim.NewEngine()
	return NewOn(eng, kind, opts)
}

// NewOn assembles a platform on an existing engine.
func NewOn(eng *sim.Engine, kind Kind, opts Options) (*Platform, error) {
	if opts.Members == 0 {
		opts.Members = 4
	}
	if opts.ZNS.NumZones == 0 {
		opts.ZNS = BenchZNS(128)
	}
	if opts.FTL.FlashBlocks == 0 {
		opts.FTL = BenchFTL(2048)
	}
	p := &Platform{Kind: kind, Eng: eng, Acct: &cpumodel.Accountant{}, opts: opts}

	if opts.Faults != nil {
		plan, err := fault.Compile(opts.Faults, opts.Seed, opts.Members)
		if err != nil {
			return nil, err
		}
		isBIZA := kind == KindBIZA || kind == KindBIZANoSel || kind == KindBIZANoAvoid
		if len(plan.PowerLossTimes()) > 0 && !isBIZA {
			return nil, fmt.Errorf("stack: %s does not support power-loss recovery", kind)
		}
		p.plan = plan
	}

	build, ok := builders[kind]
	if !ok {
		return nil, fmt.Errorf("stack: unknown platform %q", kind)
	}
	if err := build(p); err != nil {
		return nil, err
	}
	if tr := opts.Trace; tr != nil {
		// Snapshot cumulative device telemetry when the run finalizes:
		// per-channel busy time (the contention ground truth) and the
		// closing open-zone counts.
		tr.OnFinalize(func() {
			now := int64(eng.Now())
			for i, d := range p.ZNSDevs {
				for ch := 0; ch < d.NumChannels(); ch++ {
					tr.Counter(now, obs.ProbeKey(obs.ProbeChanWriteBusy, i, ch), int64(d.ChannelWriteBusy(ch)))
					tr.Counter(now, obs.ProbeKey(obs.ProbeChanReadBusy, i, ch), int64(d.ChannelReadBusy(ch)))
				}
				tr.Counter(now, obs.ProbeKey(obs.ProbeOpenZones, i, 0), int64(d.OpenZones()))
			}
			for i, d := range p.FTLDevs {
				for ch := 0; ch < d.Config().NumChannels; ch++ {
					tr.Counter(now, obs.ProbeKey(obs.ProbeChanWriteBusy, i, ch), int64(d.ChannelWriteBusy(ch)))
					tr.Counter(now, obs.ProbeKey(obs.ProbeChanReadBusy, i, ch), int64(d.ChannelReadBusy(ch)))
				}
			}
			// Unified-buffer-pool health (BIZA kinds): heap fallbacks,
			// buffers still held at finalize (leak indicator), and payload
			// copies on the data path — the engine's own NoteCopy count
			// plus the flash models' defensive setData copies.
			if c := p.BIZA; c != nil {
				st := c.Pool().Stats()
				tr.Counter(now, obs.ProbeKey(obs.ProbePoolMiss, 0, 0), st.Misses)
				tr.Counter(now, obs.ProbeKey(obs.ProbePoolLive, 0, 0), c.Pool().Live())
				copies := st.Copies
				for _, d := range p.ZNSDevs {
					if bsz := d.Config().BlockSize; bsz > 0 {
						copies += int64(d.Stats().BufCopiedBytes) / int64(bsz)
					}
				}
				tr.Counter(now, obs.ProbeKey(obs.ProbePayloadCopy, 0, 0), copies)
			}
		})
	}
	return p, nil
}

// builders assembles each platform kind into p.
var builders = map[Kind]func(p *Platform) error{
	KindBIZA:          (*Platform).buildBIZA,
	KindBIZANoSel:     (*Platform).buildBIZA,
	KindBIZANoAvoid:   (*Platform).buildBIZA,
	KindRAIZN:         (*Platform).buildRAIZN,
	KindDmzapRAIZN:    (*Platform).buildRAIZN,
	KindMdraidDmzap:   (*Platform).buildMdraid,
	KindMdraidConvSSD: (*Platform).buildMdraid,
	KindZapRAID:       (*Platform).buildZapRAID,
}

// newZNSQueues simulates the member ZNS SSDs and their driver queues.
func (p *Platform) newZNSQueues(zoneOrdered bool) ([]*nvme.Queue, error) {
	for i := 0; i < p.opts.Members; i++ {
		dc := p.opts.ZNS
		dc.Seed = p.opts.Seed + uint64(i)
		d, err := zns.New(p.Eng, dc)
		if err != nil {
			return nil, err
		}
		p.ZNSDevs = append(p.ZNSDevs, d)
		p.queues = append(p.queues, p.newMemberQueue(i, d, p.opts.Seed+uint64(i)+1000, zoneOrdered, true))
	}
	return p.queues, nil
}

func (p *Platform) buildBIZA() error {
	queues, err := p.newZNSQueues(false) // BIZA's scheduler replaces zone locking
	if err != nil {
		return err
	}
	ccfg := core.DefaultConfig(p.opts.ZNS.NumZones)
	if p.opts.BIZAConfig != nil {
		ccfg = *p.opts.BIZAConfig
	}
	switch p.Kind {
	case KindBIZANoSel:
		ccfg.EnableSelector = false
	case KindBIZANoAvoid:
		ccfg.EnableGCAvoid = false
	}
	p.bizaCfg = ccfg
	c, err := core.New(queues, ccfg, p.Acct)
	if err != nil {
		return err
	}
	p.installBIZA(c)
	if p.plan != nil {
		for _, t := range p.plan.PowerLossTimes() {
			p.Eng.At(t, func() {
				if err := p.Crash(); err != nil {
					return
				}
				p.Recover(nil)
			})
		}
	}
	return nil
}

// buildRAIZN assembles RAIZN behind the sequential shim, or under dm-zap.
func (p *Platform) buildRAIZN() error {
	queues, err := p.newZNSQueues(true) // RAIZN relies on zone write locking
	if err != nil {
		return err
	}
	r, err := raizn.New(queues, raizn.Config{StripeCacheBytes: p.opts.RAIZNStripeCacheBytes})
	if err != nil {
		return err
	}
	r.SetAccountant(p.Acct)
	r.SetTracer(p.opts.Trace)
	p.RAIZN = r
	if p.Kind == KindRAIZN {
		p.Dev = &seqZoneDevice{a: r, eng: p.Eng, tr: p.opts.Trace}
		return nil
	}
	p.Dev, err = dmzap.New(r, dmzap.DefaultConfig(r.Zones(), r.MaxOpenZones()), p.Acct)
	return err
}

// dmzapMembers simulates one dm-zap adapter per ZNS SSD.
func (p *Platform) dmzapMembers() ([]blockdev.Device, error) {
	queues, err := p.newZNSQueues(false) // dmzap keeps one write in flight per zone itself
	if err != nil {
		return nil, err
	}
	var members []blockdev.Device
	for _, q := range queues {
		ad, err := dmzap.New(zoneapi.SingleDevice{Q: q},
			dmzap.DefaultConfig(p.opts.ZNS.NumZones, p.opts.ZNS.MaxOpenZones), p.Acct)
		if err != nil {
			return nil, err
		}
		members = append(members, ad)
	}
	return members, nil
}

// ftlMembers simulates the conventional SSDs.
func (p *Platform) ftlMembers() ([]blockdev.Device, error) {
	var members []blockdev.Device
	for i := 0; i < p.opts.Members; i++ {
		fc := p.opts.FTL
		fc.Seed = p.opts.Seed + uint64(i)
		d, err := ftl.New(p.Eng, fc)
		if err != nil {
			return nil, err
		}
		p.FTLDevs = append(p.FTLDevs, d)
		d.SetTracer(p.opts.Trace, i)
		members = append(members, d)
	}
	return members, nil
}

// buildMdraid puts the md engine over the kind's block members.
func (p *Platform) buildMdraid() error {
	newMembers := p.ftlMembers
	if p.Kind == KindMdraidDmzap {
		newMembers = p.dmzapMembers
	}
	members, err := newMembers()
	if err != nil {
		return err
	}
	md, err := mdraid.New(p.Eng, members, mdraid.DefaultConfig(), p.Acct)
	if err != nil {
		return err
	}
	p.Dev = md
	return nil
}

func (p *Platform) buildZapRAID() error {
	queues, err := p.newZNSQueues(false) // appends need no ordering
	if err != nil {
		return err
	}
	z, err := zapraid.New(queues, zapraid.DefaultConfig(p.opts.ZNS.NumZones))
	if err != nil {
		return err
	}
	z.SetTracer(p.opts.Trace)
	p.Dev = z
	return nil
}

// FlashWriteAmp reports the ground-truth endurance view: user bytes
// admitted at the front-end versus bytes physically programmed (split
// data/parity) on the member devices.
func (p *Platform) FlashWriteAmp() metrics.WriteAmp {
	var wa metrics.WriteAmp
	if e, ok := p.Dev.(blockdev.WriteAmper); ok {
		wa.UserBytes = e.WriteAmp().UserBytes
	}
	for _, d := range p.ZNSDevs {
		st := d.Stats()
		wa.FlashDataBytes += st.ProgrammedByTag(zns.TagUserData) + st.ProgrammedByTag(zns.TagGCData)
		wa.FlashParityBytes += st.ProgrammedByTag(zns.TagParity) +
			st.ProgrammedByTag(zns.TagGCParity) + st.ProgrammedByTag(zns.TagMeta)
		wa.GCMigratedBytes += st.ProgrammedByTag(zns.TagGCData) + st.ProgrammedByTag(zns.TagGCParity)
	}
	for _, d := range p.FTLDevs {
		fwa := d.WriteAmp()
		wa.FlashDataBytes += fwa.FlashDataBytes
		wa.GCMigratedBytes += fwa.GCMigratedBytes
	}
	// Members below mdraid see untagged block traffic; split the flash
	// volume by the engine's own data/parity output ratio.
	if md, ok := p.Dev.(*mdraid.Array); ok {
		w := md.WriteAmp()
		d, par := w.FlashDataBytes, w.FlashParityBytes
		if total := d + par; total > 0 {
			flash := wa.FlashDataBytes + wa.FlashParityBytes
			wa.FlashParityBytes = uint64(float64(flash) * float64(par) / float64(total))
			wa.FlashDataBytes = flash - wa.FlashParityBytes
		}
	}
	return wa
}

// AbsorbedBytes reports overwrites absorbed in device write buffers.
func (p *Platform) AbsorbedBytes() uint64 {
	var t uint64
	for _, d := range p.ZNSDevs {
		t += d.Stats().AbsorbedBytes
	}
	return t
}

// Trace returns the observability trace the platform was assembled with
// (nil when tracing is off), so harnesses can hang extra instrumented
// layers — e.g. the volume manager — off the same trace.
func (p *Platform) Trace() *obs.Trace { return p.opts.Trace }

// seqZoneDevice exposes RAIZN's zoned interface as a linear block space
// for sequential-only benchmarks (random writes fail, matching the paper's
// missing RAIZN bars in random tests).
type seqZoneDevice struct {
	a         *raizn.Array
	eng       *sim.Engine
	tr        *obs.Trace
	trimDrops uint64

	reqFree []*shimReq // recycled request records
	reqMade int
}

// shimReq is one Write or Read through the shim: a recycled record whose
// fan-in collects the array's answers, one per logical zone the request
// touches, and turns them into the block interface's. Put back before the
// caller's callback runs.
type shimReq struct {
	s       *seqZoneDevice
	live    bool
	start   sim.Time
	wdone   func(blockdev.WriteResult)
	rdone   func(blockdev.ReadResult)
	data    []byte // read: the result — the array's own, or stitched from two zones
	hi      int64  // read: where the second zone's bytes start in data
	f       sim.FanIn
	onWrote func(zns.WriteResult) // r.wrote
	onLo    func(zns.ReadResult)  // r.readLo
	onHi    func(zns.ReadResult)  // r.readHi
	onWAll  func(error)           // r.wroteAll
	onRAll  func(error)           // r.readAll
}

func (s *seqZoneDevice) getReq() *shimReq {
	n := len(s.reqFree)
	if n == 0 {
		s.reqMade++
		r := &shimReq{s: s, live: true}
		r.onWrote, r.onLo, r.onHi, r.onWAll, r.onRAll = r.wrote, r.readLo, r.readHi, r.wroteAll, r.readAll
		return r
	}
	r := s.reqFree[n-1]
	s.reqFree = s.reqFree[:n-1]
	r.live = true
	return r
}

// putReq recycles r, keeping the callbacks bound to it.
func (s *seqZoneDevice) putReq(r *shimReq) {
	if !r.live {
		panic("stack: shim request record put twice")
	}
	r.live, r.wdone, r.rdone, r.data = false, nil, nil, nil
	s.reqFree = append(s.reqFree, r)
}

func (s *seqZoneDevice) BlockSize() int { return s.a.BlockSize() }

func (s *seqZoneDevice) Blocks() int64 {
	return s.a.ZoneBlocks() * int64(s.a.Zones())
}

// WriteAmp implements blockdev.WriteAmper with the array's accounting.
func (s *seqZoneDevice) WriteAmp() metrics.WriteAmp { return s.a.WriteAmp() }

func (s *seqZoneDevice) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	r := s.getReq()
	r.start, r.wdone = s.eng.Now(), done
	r.f.Arm(r.onWAll)
	zb, bs := s.a.ZoneBlocks(), int64(s.a.BlockSize())
	// One zone write per logical zone the range touches; a range the array
	// refuses (empty, off the write pointer, beyond the last zone) is one
	// write too, which it fails.
	for {
		off := lba % zb
		n := nblocks
		if off+int64(n) > zb {
			n = int(zb - off) // split at the zone boundary
		}
		var part []byte
		if data != nil {
			part, data = data[:int64(n)*bs], data[int64(n)*bs:]
		}
		r.f.Add(1)
		s.a.Write(int(lba/zb), off, n, part, zns.TagUserData, r.onWrote)
		if lba, nblocks = lba+int64(n), nblocks-n; nblocks <= 0 {
			break
		}
	}
	r.f.Seal()
}

func (r *shimReq) wrote(res zns.WriteResult) {
	if !r.live {
		panic("stack: shim request record used after put")
	}
	r.f.Done(res.Err)
}

func (r *shimReq) wroteAll(err error) {
	done, res := r.wdone, blockdev.WriteResult{Err: err, Latency: r.s.eng.Now() - r.start}
	r.s.putReq(r)
	if done != nil {
		done(res)
	}
}

func (s *seqZoneDevice) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	r := s.getReq()
	r.start, r.rdone = s.eng.Now(), done
	r.f.Arm(r.onRAll)
	zb := s.a.ZoneBlocks()
	z, off := int(lba/zb), lba%zb
	if off+int64(nblocks) > zb {
		// Split at the zone boundary and stitch the halves; like the
		// one-zone path, a stack that stores no data returns none.
		n1 := int(zb - off)
		bs := int64(s.a.BlockSize())
		if s.a.StoresData() {
			r.data = make([]byte, int64(nblocks)*bs)
		}
		r.hi = int64(n1) * bs
		r.f.Add(2)
		s.a.Read(z, off, n1, r.onLo)
		s.a.Read(z+1, 0, nblocks-n1, r.onHi)
	} else {
		r.f.Add(1)
		s.a.Read(z, off, nblocks, r.onLo)
	}
	r.f.Seal()
}

func (r *shimReq) readLo(res zns.ReadResult) { r.readPart(0, res) }
func (r *shimReq) readHi(res zns.ReadResult) { r.readPart(r.hi, res) }

// readPart takes one zone's answer: copied into place when the request
// stitches two, handed through as it is when it has no buffer of its own.
func (r *shimReq) readPart(at int64, res zns.ReadResult) {
	if !r.live {
		panic("stack: shim request record used after put")
	}
	if r.data == nil {
		r.data = res.Data
	} else if res.Data != nil {
		copy(r.data[at:], res.Data)
	}
	r.f.Done(res.Err)
}

func (r *shimReq) readAll(err error) {
	done, res := r.rdone, blockdev.ReadResult{Err: err, Data: r.data, Latency: r.s.eng.Now() - r.start}
	r.s.putReq(r)
	if done != nil {
		done(res)
	}
}

// Trim is dropped, not forwarded: RAIZN has no sub-zone discard path — a
// zoned array reclaims space only by whole-zone reset, so a block-range
// trim has no zoned equivalent short of rewriting the zone. Upper layers
// (lsfs, the volume manager) issue trims as advisories and must not rely
// on them reclaiming space here. Each drop is counted so experiments can
// see how much advisory reclaim the platform silently ignores.
func (s *seqZoneDevice) Trim(lba int64, nblocks int) {
	if nblocks < 1 {
		return
	}
	s.trimDrops += uint64(nblocks)
	if s.tr != nil {
		s.tr.Counter(int64(s.eng.Now()), obs.ProbeKey(obs.ProbeTrimDropped, 0, 0), int64(s.trimDrops))
	}
}

// reorderWindow bounds the driver queues' extra delivery delay per
// command (§3.2's host-stack reordering).
const reorderWindow = 5 * sim.Microsecond

// newMemberQueue builds member i's driver queue over dev, traced like the
// rest of the platform and, when withFaults, carrying the member's
// injector from the fault plan (with the state it has accumulated).
func (p *Platform) newMemberQueue(i int, dev *zns.Device, seed uint64, zoneOrdered, withFaults bool) *nvme.Queue {
	q := nvme.New(dev, nvme.Config{
		ReorderWindow: reorderWindow,
		ZoneOrdered:   zoneOrdered,
		Seed:          seed,
	})
	if p.opts.Trace != nil {
		q.SetTracer(p.opts.Trace, i)
	}
	if withFaults && p.plan != nil {
		in := p.plan.Injector(i)
		if p.opts.Trace != nil {
			in.SetTracer(p.opts.Trace, i)
		}
		q.SetInjector(in)
	}
	return q
}

// installBIZA wires a (new or recovered) engine into the platform.
func (p *Platform) installBIZA(c *core.Core) {
	if p.opts.Trace != nil {
		c.SetTracer(p.opts.Trace)
	}
	p.BIZA = c
	p.Dev = c
	if p.opts.AutoReplace {
		c.OnMemberDeath(func(dev int) { p.ReplaceDevicePaced(dev, core.RebuildControl{}, nil) })
	}
}

// ReplaceDevicePaced hot-swaps BIZA member dev with a freshly simulated
// device of the same geometry and rebuilds redundancy at the pace ctl sets
// (see core.RebuildControl; the zero value does not throttle); done fires
// when the rebuild completes. The spare sits outside the fault plan (its
// injector, if any, is dropped). BIZA platforms only; a member beyond the
// array is refused before a spare is built or counted.
func (p *Platform) ReplaceDevicePaced(dev int, ctl core.RebuildControl, done func(error)) {
	if p.BIZA == nil {
		sim.Deliver(p.Eng, 0, done, fmt.Errorf("stack: %s cannot rebuild: %w", p.Kind, storerr.ErrNotSupported))
		return
	}
	if dev < 0 || dev >= len(p.ZNSDevs) {
		sim.Deliver(p.Eng, 0, done, fmt.Errorf("stack: device %d out of range: %w", dev, storerr.ErrNotFound))
		return
	}
	p.replacements++
	gen := fmt.Sprintf("%d", p.replacements)
	member := fmt.Sprintf("dev%d", dev)
	dc := p.opts.ZNS
	dc.Seed = sim.DeriveSeed(p.opts.Seed, "replace", gen, member)
	nd, err := zns.New(p.Eng, dc)
	if err != nil {
		sim.Deliver(p.Eng, 0, done, err)
		return
	}
	p.ZNSDevs[dev] = nd
	nq := p.newMemberQueue(dev, nd, sim.DeriveSeed(p.opts.Seed, "replace-queue", gen, member), false, false)
	p.queues[dev] = nq
	p.BIZA.ReplaceDevicePaced(dev, nq, ctl, done)
}

// Replacements reports how many device replacements the platform has
// started (auto-replace plus explicit ReplaceDevicePaced calls).
func (p *Platform) Replacements() uint64 { return p.replacements }

// Crash models a host power loss: every member driver queue dies with its
// in-flight commands, and every device drops write-buffer contents that
// were never acknowledged (acknowledged ZRWA blocks harden, PLP-style).
// The platform rejects work until Recover rebuilds the engine. BIZA
// platforms only.
func (p *Platform) Crash() error {
	if p.BIZA == nil {
		return fmt.Errorf("stack: %s cannot crash-recover: %w", p.Kind, storerr.ErrNotSupported)
	}
	if p.crashed {
		return fmt.Errorf("stack: already crashed: %w", storerr.ErrWrongState)
	}
	p.crashed = true
	for _, q := range p.queues {
		q.Kill()
	}
	for _, d := range p.ZNSDevs {
		d.PowerLoss()
	}
	return nil
}

// Crashed reports whether the platform awaits Recover.
func (p *Platform) Crashed() bool { return p.crashed }

// Queues exposes the member driver queues (fault-injection and retry
// statistics for harnesses). The slice is replaced wholesale on Recover.
func (p *Platform) Queues() []*nvme.Queue { return p.queues }

// Recover restarts a crashed BIZA platform: fresh driver queues (seeded
// deterministically per recovery generation) attach to the surviving
// devices, fault injectors reattach with their accumulated state, and the
// engine's mapping tables are rebuilt from the OOB scan. done fires once
// the scan completes; the scan runs in virtual time, so the engine must
// be driven for it to finish. Every member must be readable — replace a
// dead member first.
func (p *Platform) Recover(done func(error)) {
	if p.BIZA == nil {
		sim.Deliver(p.Eng, 0, done, fmt.Errorf("stack: %s cannot crash-recover: %w", p.Kind, storerr.ErrNotSupported))
		return
	}
	if !p.crashed {
		sim.Deliver(p.Eng, 0, done, fmt.Errorf("stack: not crashed: %w", storerr.ErrWrongState))
		return
	}
	p.recoveries++
	gen := fmt.Sprintf("%d", p.recoveries)
	queues := make([]*nvme.Queue, len(p.ZNSDevs))
	for i, d := range p.ZNSDevs {
		queues[i] = p.newMemberQueue(i, d, sim.DeriveSeed(p.opts.Seed, "recover", gen, fmt.Sprintf("dev%d", i)), false, true)
	}
	p.queues = queues
	core.Recover(queues, p.bizaCfg, p.Acct, func(c *core.Core, err error) {
		if err != nil {
			if done != nil {
				done(err)
			}
			return
		}
		p.installBIZA(c)
		p.crashed = false
		if done != nil {
			done(nil)
		}
	})
}

// Flush pushes buffered engine state to flash so endurance accounting sees
// every acknowledged byte: BIZA commits its open ZRWA windows; mdraid's
// volatile stripe cache and the FTL cache drain on their own timers when
// the engine runs.
func (p *Platform) Flush() {
	if p.BIZA != nil {
		p.BIZA.Flush()
	}
	p.Eng.Run()
}

// ResetAccounting zeroes traffic counters at every layer — called after
// preconditioning so measurements cover steady state only.
func (p *Platform) ResetAccounting() {
	for _, d := range p.ZNSDevs {
		d.ResetStats()
	}
	for _, d := range p.FTLDevs {
		d.ResetAccounting()
	}
	if p.BIZA != nil {
		p.BIZA.ResetAccounting()
	}
	if p.RAIZN != nil {
		p.RAIZN.ResetAccounting()
	}
	if r, ok := p.Dev.(interface{ ResetAccounting() }); ok {
		r.ResetAccounting()
	}
}
