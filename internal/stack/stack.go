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
	// MdraidConfig overrides mdraid defaults.
	MdraidConfig *mdraid.Config
	// ReorderWindow for the driver queues (default 5us).
	ReorderWindow sim.Time

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

	// AutoReplace hot-swaps a fresh spare (via ReplaceDevice) as soon as
	// the engine declares a member dead. BIZA platforms only.
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

	userBytes    func() uint64
	opts         Options
	members      []blockdev.Device
	queues       []*nvme.Queue // member driver queues (ZNS-based platforms)
	plan         *fault.Plan
	bizaCfg      core.Config // resolved engine config (BIZA kinds)
	crashed      bool
	recoveries   uint64
	replacements uint64
	// engineParity reports (data, parity) engine-level output for
	// platforms whose members cannot tag traffic (mdraid over block
	// devices); FlashWriteAmp redistributes flash bytes by that ratio.
	engineParity func() (uint64, uint64)
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
	if opts.ReorderWindow == 0 {
		opts.ReorderWindow = 5 * sim.Microsecond
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

	newZNSQueues := func(zoneOrdered bool) ([]*nvme.Queue, error) {
		for i := 0; i < opts.Members; i++ {
			dc := opts.ZNS
			dc.Seed = opts.Seed + uint64(i)
			d, err := zns.New(eng, dc)
			if err != nil {
				return nil, err
			}
			p.ZNSDevs = append(p.ZNSDevs, d)
			p.queues = append(p.queues, p.newMemberQueue(i, d, opts.Seed+uint64(i)+1000, zoneOrdered, true))
		}
		return p.queues, nil
	}

	switch kind {
	case KindBIZA, KindBIZANoSel, KindBIZANoAvoid:
		queues, err := newZNSQueues(false) // BIZA's scheduler replaces zone locking
		if err != nil {
			return nil, err
		}
		ccfg := core.DefaultConfig(opts.ZNS.NumZones)
		if opts.BIZAConfig != nil {
			ccfg = *opts.BIZAConfig
		}
		switch kind {
		case KindBIZANoSel:
			ccfg.EnableSelector = false
		case KindBIZANoAvoid:
			ccfg.EnableGCAvoid = false
		}
		p.bizaCfg = ccfg
		c, err := core.New(queues, ccfg, p.Acct)
		if err != nil {
			return nil, err
		}
		p.installBIZA(c)
		if p.plan != nil {
			for _, t := range p.plan.PowerLossTimes() {
				eng.At(t, func() {
					if err := p.Crash(); err != nil {
						return
					}
					p.Recover(nil)
				})
			}
		}

	case KindRAIZN, KindDmzapRAIZN:
		queues, err := newZNSQueues(true) // RAIZN relies on zone write locking
		if err != nil {
			return nil, err
		}
		r, err := raizn.New(queues, raizn.Config{StripeCacheBytes: opts.RAIZNStripeCacheBytes})
		if err != nil {
			return nil, err
		}
		r.SetAccountant(p.Acct)
		if opts.Trace != nil {
			r.SetTracer(opts.Trace)
		}
		p.RAIZN = r
		if kind == KindRAIZN {
			sd := &seqZoneDevice{a: r, eng: p.Eng, tr: opts.Trace}
			p.Dev = sd
			p.userBytes = func() uint64 { return r.WriteAmp().UserBytes }
			break
		}
		ad, err := dmzap.New(r, dmzap.DefaultConfig(r.Zones(), r.MaxOpenZones()), p.Acct)
		if err != nil {
			return nil, err
		}
		p.Dev = ad
		waA := ad.WriteAmp
		p.userBytes = func() uint64 { return waA().UserBytes }

	case KindMdraidDmzap:
		queues, err := newZNSQueues(false) // dmzap keeps one write in flight per zone itself
		if err != nil {
			return nil, err
		}
		var members []blockdev.Device
		for _, q := range queues {
			ad, err := dmzap.New(zoneapi.SingleDevice{Q: q},
				dmzap.DefaultConfig(opts.ZNS.NumZones, opts.ZNS.MaxOpenZones), p.Acct)
			if err != nil {
				return nil, err
			}
			members = append(members, ad)
		}
		mcfg := mdraid.DefaultConfig()
		if opts.MdraidConfig != nil {
			mcfg = *opts.MdraidConfig
		}
		md, err := mdraid.New(eng, members, mcfg, p.Acct)
		if err != nil {
			return nil, err
		}
		p.members = members
		p.Dev = md
		waM := md.WriteAmp
		p.userBytes = func() uint64 { return waM().UserBytes }
		p.engineParity = func() (uint64, uint64) {
			w := waM()
			return w.FlashDataBytes, w.FlashParityBytes
		}

	case KindZapRAID:
		queues, err := newZNSQueues(false) // appends need no ordering
		if err != nil {
			return nil, err
		}
		z, err := zapraid.New(queues, zapraid.DefaultConfig(opts.ZNS.NumZones))
		if err != nil {
			return nil, err
		}
		if opts.Trace != nil {
			z.SetTracer(opts.Trace)
		}
		p.Dev = z
		waZ := z.WriteAmp
		p.userBytes = func() uint64 { return waZ().UserBytes }

	case KindMdraidConvSSD:
		var members []blockdev.Device
		for i := 0; i < opts.Members; i++ {
			fc := opts.FTL
			fc.Seed = opts.Seed + uint64(i)
			d, err := ftl.New(eng, fc)
			if err != nil {
				return nil, err
			}
			p.FTLDevs = append(p.FTLDevs, d)
			if opts.Trace != nil {
				d.SetTracer(opts.Trace, i)
			}
			members = append(members, d)
		}
		mcfg := mdraid.DefaultConfig()
		if opts.MdraidConfig != nil {
			mcfg = *opts.MdraidConfig
		}
		md, err := mdraid.New(eng, members, mcfg, p.Acct)
		if err != nil {
			return nil, err
		}
		p.Dev = md
		waM := md.WriteAmp
		p.userBytes = func() uint64 { return waM().UserBytes }
		p.engineParity = func() (uint64, uint64) {
			w := waM()
			return w.FlashDataBytes, w.FlashParityBytes
		}

	default:
		return nil, fmt.Errorf("stack: unknown platform %q", kind)
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

// FlashWriteAmp reports the ground-truth endurance view: user bytes
// admitted at the front-end versus bytes physically programmed (split
// data/parity) on the member devices.
func (p *Platform) FlashWriteAmp() metrics.WriteAmp {
	var wa metrics.WriteAmp
	if p.userBytes != nil {
		wa.UserBytes = p.userBytes()
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
	if p.engineParity != nil {
		d, par := p.engineParity()
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

// TrimDrops reports how many blocks of trim advisories the platform has
// silently dropped (RAIZN's sequential shim has no discard path; all
// other platforms forward trims and report 0).
func (p *Platform) TrimDrops() uint64 {
	if sd, ok := p.Dev.(*seqZoneDevice); ok {
		return sd.trimDrops
	}
	return 0
}

// seqZoneDevice exposes RAIZN's zoned interface as a linear block space
// for sequential-only benchmarks (random writes fail, matching the paper's
// missing RAIZN bars in random tests).
type seqZoneDevice struct {
	a         *raizn.Array
	eng       *sim.Engine
	tr        *obs.Trace
	trimDrops uint64
}

func (s *seqZoneDevice) BlockSize() int { return s.a.BlockSize() }

func (s *seqZoneDevice) Blocks() int64 {
	return s.a.ZoneBlocks() * int64(s.a.Zones())
}

func (s *seqZoneDevice) Write(lba int64, nblocks int, data []byte, done func(blockdev.WriteResult)) {
	zb := s.a.ZoneBlocks()
	z := int(lba / zb)
	off := lba % zb
	if off+int64(nblocks) > zb {
		// Split at the zone boundary.
		first := int(zb - off)
		var bs int64
		if data != nil {
			bs = int64(s.a.BlockSize())
		}
		remaining := 2
		var firstErr error
		part := func(r blockdev.WriteResult) {
			if r.Err != nil && firstErr == nil {
				firstErr = r.Err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(blockdev.WriteResult{Err: firstErr, Latency: r.Latency})
			}
		}
		var d1, d2 []byte
		if data != nil {
			d1, d2 = data[:int64(first)*bs], data[int64(first)*bs:]
		}
		s.Write(lba, first, d1, part)
		s.Write(lba+int64(first), nblocks-first, d2, part)
		return
	}
	s.a.Write(z, off, nblocks, data, zns.TagUserData, func(r zns.WriteResult) {
		if done != nil {
			done(blockdev.WriteResult{Err: r.Err, Latency: r.Latency})
		}
	})
}

func (s *seqZoneDevice) Read(lba int64, nblocks int, done func(blockdev.ReadResult)) {
	zb := s.a.ZoneBlocks()
	z := int(lba / zb)
	off := lba % zb
	if off+int64(nblocks) > zb {
		n1 := int(zb - off)
		buf := make([]byte, int64(nblocks)*int64(s.a.BlockSize()))
		remaining := 2
		var firstErr error
		var last blockdev.ReadResult
		part := func(base int64) func(zns.ReadResult) {
			return func(r zns.ReadResult) {
				if r.Err != nil && firstErr == nil {
					firstErr = r.Err
				}
				if r.Data != nil {
					copy(buf[base:], r.Data)
				}
				remaining--
				if remaining == 0 && done != nil {
					last = blockdev.ReadResult{Err: firstErr, Data: buf, Latency: r.Latency}
					done(last)
				}
			}
		}
		s.a.Read(z, off, n1, part(0))
		s.a.Read(z+1, 0, nblocks-n1, part(int64(n1)*int64(s.a.BlockSize())))
		return
	}
	s.a.Read(z, off, nblocks, func(r zns.ReadResult) {
		if done != nil {
			done(blockdev.ReadResult{Err: r.Err, Data: r.Data, Latency: r.Latency})
		}
	})
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

// newMemberQueue builds member i's driver queue over dev, traced like the
// rest of the platform and, when withFaults, carrying the member's
// injector from the fault plan (with the state it has accumulated).
func (p *Platform) newMemberQueue(i int, dev *zns.Device, seed uint64, zoneOrdered, withFaults bool) *nvme.Queue {
	q := nvme.New(dev, nvme.Config{
		ReorderWindow: p.opts.ReorderWindow,
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
	wa := c.WriteAmp
	p.userBytes = func() uint64 { return wa().UserBytes }
	if p.opts.AutoReplace {
		c.OnMemberDeath(func(dev int) { p.ReplaceDevice(dev, nil) })
	}
}

// ReplaceDevice hot-swaps BIZA member dev with a freshly simulated device
// of the same geometry and rebuilds redundancy; done fires when the
// rebuild completes. The spare sits outside the fault plan (its injector,
// if any, is dropped). BIZA platforms only.
func (p *Platform) ReplaceDevice(dev int, done func(error)) {
	p.ReplaceDevicePaced(dev, core.RebuildControl{}, done)
}

// ReplaceDevicePaced is ReplaceDevice with the rebuild throttled by ctl
// (see core.RebuildControl): the admin orchestrator uses it to trade
// rebuild rate against foreground tail latency.
func (p *Platform) ReplaceDevicePaced(dev int, ctl core.RebuildControl, done func(error)) {
	if p.BIZA == nil {
		if done != nil {
			p.Eng.After(0, func() {
				done(fmt.Errorf("stack: %s cannot rebuild: %w", p.Kind, storerr.ErrNotSupported))
			})
		}
		return
	}
	p.replacements++
	gen := fmt.Sprintf("%d", p.replacements)
	member := fmt.Sprintf("dev%d", dev)
	dc := p.opts.ZNS
	dc.Seed = sim.DeriveSeed(p.opts.Seed, "replace", gen, member)
	nd, err := zns.New(p.Eng, dc)
	if err != nil {
		if done != nil {
			p.Eng.After(0, func() { done(err) })
		}
		return
	}
	if dev >= 0 && dev < len(p.ZNSDevs) {
		p.ZNSDevs[dev] = nd
	}
	nq := p.newMemberQueue(dev, nd, sim.DeriveSeed(p.opts.Seed, "replace-queue", gen, member), false, false)
	if dev >= 0 && dev < len(p.queues) {
		p.queues[dev] = nq
	}
	p.BIZA.ReplaceDevicePaced(dev, nq, ctl, done)
}

// Replacements reports how many device replacements the platform has
// started (auto-replace plus explicit admin jobs).
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
	fail := func(err error) {
		if done != nil {
			p.Eng.After(0, func() { done(err) })
		}
	}
	if p.BIZA == nil {
		fail(fmt.Errorf("stack: %s cannot crash-recover: %w", p.Kind, storerr.ErrNotSupported))
		return
	}
	if !p.crashed {
		fail(fmt.Errorf("stack: not crashed: %w", storerr.ErrWrongState))
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

// Members exposes the member block devices under an mdraid platform
// (diagnostics).
func (p *Platform) Members() []blockdev.Device { return p.members }
