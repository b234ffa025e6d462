package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"biza/internal/blockdev"
	"biza/internal/buf"
	"biza/internal/cpumodel"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/volume"
)

// workload is one named set of inputs. run performs one repetition.
type workload struct {
	name string
	run  func(r *rep)
}

var workloads = []workload{
	{"seq-write", runSeqWrite},
	{"hot-rmw", runHotRMW},
	{"tenant-mix", runTenantMix},
	{"baseline-mix", runBaselineMix},
	{"fleet-1shard", runFleet1},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Seed streams: the platform's own seed (driver jitter) and each load
// generator draw from separate streams of the run's seed.
const (
	streamStack = iota
	streamLoad
	streamVerify
	streamClient // + client or tenant index
)

const blockSize = 4096 // every platform in this repository uses 4 KiB blocks

// coreProbe reads the BIZA engine's boundary counters over the timed
// window; the ones without a reset are snapshotted when it opens.
type coreProbe struct {
	ps                       []*stack.Platform
	gets, hits, copied       int64
	corrections, reconstruct uint64
}

func (cp *coreProbe) read() (gets, hits, copied int64, corrections, reconstruct uint64) {
	for _, p := range cp.ps {
		st := p.BIZA.Pool().Stats()
		gets += st.Gets
		hits += st.Hits
		copied += st.CopiedBytes
		corrections += p.BIZA.DetectCorrections()
		reconstruct += p.BIZA.Reconstructions()
	}
	return
}

// probeCore zeroes the accounting of the BIZA platforms ps after their
// preconditioning and snapshots what cannot be zeroed.
func probeCore(ps ...*stack.Platform) *coreProbe {
	for _, p := range ps {
		p.ResetAccounting()
		p.Acct.Reset()
	}
	cp := &coreProbe{ps: ps}
	cp.gets, cp.hits, cp.copied, cp.corrections, cp.reconstruct = cp.read()
	return cp
}

// report flushes the platforms, sums their flash write amplification into
// r.wa and appends the core.*, buf.* and cpumodel.* counters. A workload
// without a BIZA array reports through an empty probe: all zeros.
func (cp *coreProbe) report(r *rep, windowNS int64) {
	var gcEvents, inplace, cpuTicks, zcopied uint64
	var ghostHit float64
	var live int64
	var engine metrics.WriteAmp
	for _, p := range cp.ps {
		p.Flush()
		r.wa.Add(p.FlashWriteAmp())
		engine.Add(p.BIZA.WriteAmp())
		gcEvents += p.BIZA.GCEvents()
		inplace += p.BIZA.InPlaceHits()
		ghostHit += p.BIZA.GhostCache().HitRate()
		live += p.BIZA.Pool().Live()
		cpuTicks += uint64(p.Acct.Ticks(cpumodel.CompBIZA))
		for _, d := range p.ZNSDevs {
			zcopied += d.Stats().BufCopiedBytes
		}
	}
	gets, hits, copied, corrections, reconstruct := cp.read()
	user := float64(r.wa.UserBytes)
	r.count("core.gc_events", float64(gcEvents))
	r.count("core.gc_migrated_bytes", float64(engine.GCMigratedBytes))
	r.count("core.inplace_hits", float64(inplace))
	r.count("core.inplace_ratio", ratio(float64(inplace)*blockSize, user))
	r.count("core.parity_factor", r.wa.ParityFactor())
	r.count("core.detect_corrections", float64(corrections-cp.corrections))
	r.count("core.ghost_hit_rate", ratio(ghostHit, float64(len(cp.ps))))
	r.count("core.reconstructions", float64(reconstruct-cp.reconstruct))
	r.count("buf.gets", float64(gets-cp.gets))
	r.count("buf.hit_ratio", ratio(float64(hits-cp.hits), float64(gets-cp.gets)))
	r.count("buf.copied_bytes_per_user_byte", ratio(float64(copied-cp.copied)+float64(zcopied), user))
	r.count("buf.live_at_end", float64(live))
	r.count("cpumodel.biza_cpu_pct", 100*ratio(float64(cpuTicks), float64(windowNS)))
}

// reportArrays appends every boundary counter of a workload that runs on
// BIZA arrays alone: the arrays' and their devices', and zeros for the
// volume layer and the baseline stacks it does not have.
func reportArrays(r *rep, cp *coreProbe, fp *flashProbe) {
	cp.report(r, r.virtualNS)
	fp.report(r, r.virtualNS)
	volumeCounters(r, nil, nil, 0)
	baselineCounters(r, nil, nil)
}

// runSeqWrite: 64 KiB sequential writes at depth 32 wrapping over a span,
// nil payloads — the control path of the fig10 headline cell.
func runSeqWrite(r *rep) {
	sc := r.sc
	p := r.platform(stack.KindBIZA, stack.Options{
		ZNS:  stack.BenchZNS(sc.seqZones),
		Seed: subSeed(r.seed, streamStack),
	})
	cp, fp := probeCore(p), probeFlash(p)
	r.lat = make([]int64, 0, sc.seqIOs)

	const ioBlocks = 64 << 10 / blockSize
	// The seed picks where in the span the writer starts.
	next := newRNG(subSeed(r.seed, streamLoad)).intn(sc.seqSpanBlocks/ioBlocks) * ioBlocks
	left := sc.seqIOs
	t0 := p.Eng.Now()
	r.begin()
	closedLoop(p.Eng, p.Dev, 32, &r.tally, true, func(s *ioSlot) bool {
		if left == 0 {
			return false
		}
		left--
		s.lba, s.blocks = next, ioBlocks
		if next += ioBlocks; next >= sc.seqSpanBlocks {
			next = 0
		}
		return true
	}, nil)
	r.end()
	r.virtualNS = p.Eng.Now() - t0
	r.count("sim.virtual_ns", float64(r.virtualNS))
	reportArrays(r, cp, fp)
}

// stampLen is the header the hot-rmw generator writes at both ends of
// every block: the block's address and the sequence number of the write.
const stampLen = 16

func putStamp(b []byte, lba int64, seq uint64) {
	binary.LittleEndian.PutUint64(b[0:], uint64(lba))
	binary.LittleEndian.PutUint64(b[8:], seq)
	copy(b[len(b)-stampLen:], b[:stampLen])
}

func stampOf(b []byte) (lba int64, seq uint64, intact bool) {
	intact = string(b[:stampLen]) == string(b[len(b)-stampLen:])
	return int64(binary.LittleEndian.Uint64(b[0:])), binary.LittleEndian.Uint64(b[8:]), intact
}

// runHotRMW: 4 KiB payload-carrying overwrites at depth 32, 80 % into a
// hot set — in-place RMW, delta parity, host GC and the buffer pool.
func runHotRMW(r *rep) {
	sc := r.sc
	z := stack.BenchZNS(sc.hotZones)
	z.ZoneBlocks = sc.hotZoneBlocks
	z.ZRWABlocks = sc.hotZRWABlocks
	z.StoreData = true
	p := r.platform(stack.KindBIZA, stack.Options{ZNS: z, Seed: subSeed(r.seed, streamStack)})
	bw := p.Dev.(blockdev.BufWriter)
	pool := bw.Pool()

	// last[lba] is the sequence number of the last write acknowledged
	// without error, lastFailed whether the latest write to it failed for
	// good. The generator never has two writes to one block in flight, so
	// the last issued write is also the last to land.
	span := sc.hotSpanBlocks
	last := make([]uint64, span)
	lastFailed := make([]bool, span)
	inflight := make([]bool, span)
	var seq uint64
	payload := func(lba int64, seq uint64) *buf.Buf {
		b := pool.Get(blockSize, 0)
		putStamp(b.Bytes(), lba, seq)
		return b
	}
	stamped := func(s *ioSlot, lba int64) {
		seq++
		s.lba, s.blocks, s.payload, s.tag = lba, 1, payload(lba, seq), seq
		inflight[lba] = true
	}
	// A write that returns an error is submitted again, up to maxTries
	// times, as a block client would; every resubmission is counted. At
	// this commit a fault-free run does return errors: an in-place update
	// whose zone is finished while its read-modify-write is in flight
	// fails with "zone is full" (see README.md).
	const maxTries = 3
	acked := func(s *ioSlot, err error) bool {
		if err != nil && s.tries < maxTries {
			r.retried++
			r.noteErr("retried: "+err.Error(), 1)
			s.payload = payload(s.lba, s.tag)
			return true
		}
		inflight[s.lba] = false
		lastFailed[s.lba] = err != nil
		if err == nil {
			last[s.lba] = s.tag
		}
		return false
	}

	// Precondition: every block of the span written once, with payload.
	var fill tally
	var next int64
	closedLoop(p.Eng, p.Dev, 16, &fill, false, func(s *ioSlot) bool {
		if next == span {
			return false
		}
		stamped(s, next)
		next++
		return true
	}, acked)
	if fill.ok != uint64(span) {
		fatalf("hot-rmw preconditioning: %d of %d writes completed: %v", fill.ok, span, fill.errs)
	}

	cp, fp := probeCore(p), probeFlash(p)
	r.lat = make([]int64, 0, sc.hotWrites)
	g := newRNG(subSeed(r.seed, streamLoad))
	left := sc.hotWrites
	t0 := p.Eng.Now()
	r.begin()
	closedLoop(p.Eng, p.Dev, 32, &r.tally, true, func(s *ioSlot) bool {
		if left == 0 {
			return false
		}
		left--
		for {
			lba := g.intn(span)
			if g.intn(10) < 8 {
				lba = g.intn(sc.hotSetBlocks)
			}
			if !inflight[lba] {
				stamped(s, lba)
				return true
			}
		}
	}, acked)
	r.end()
	r.virtualNS = p.Eng.Now() - t0
	r.count("sim.virtual_ns", float64(r.virtualNS))
	reportArrays(r, cp, fp)

	// Read back the whole hot set and a sample of the span.
	check := func(lba int64) {
		if lastFailed[lba] {
			r.unverified++
			return
		}
		p.Dev.Read(lba, 1, func(res blockdev.ReadResult) {
			if r.checkErr != nil {
				return
			}
			if res.Err != nil || len(res.Data) != blockSize {
				r.checkErr = fmt.Errorf("read-back of block %d: %d bytes, error %v", lba, len(res.Data), res.Err)
				return
			}
			gotLBA, gotSeq, intact := stampOf(res.Data)
			if !intact || gotLBA != lba || gotSeq != last[lba] {
				r.checkErr = fmt.Errorf("block %d holds stamp (block %d, write %d, intact %v); its last acknowledged write was %d",
					lba, gotLBA, gotSeq, intact, last[lba])
			}
		})
	}
	for lba := int64(0); lba < sc.hotSetBlocks; lba++ {
		check(lba)
	}
	p.Eng.Run()
	v := newRNG(subSeed(r.seed, streamVerify))
	for i := 0; i < sc.hotReadback; i++ {
		check(v.intn(span))
	}
	p.Eng.Run()
}

// Tenant classes of tenant-mix.
const (
	classInteractive = iota
	classBatch
	classAggressor
	numTenantClasses
)

type tenant struct {
	class int
	v     *volume.Volume
	g     *rng
	next  int64
	tally tally
}

// runTenantMix: 24 tenants of three classes on one BIZA array behind the
// volume manager with QoS on, for a fixed virtual duration — reads beside
// writes, WFQ, token buckets and gate timers.
func runTenantMix(r *rep) {
	sc := r.sc
	const (
		interBlocks = 1    // 4 KiB
		interVolume = 4096 // 16 MiB
		batchBlocks = 16   // 64 KiB
		batchVolume = 2048 // 8 MiB
		aggBlocks   = 32   // 128 KiB
		aggVolume   = 8192 // 32 MiB
		aggDepth    = 32

		interAggregate = 1 << 30 // interactive offered load, bytes/s over the class
		batchAggregate = 1500e6  // batch token-bucket rate, bytes/s over the class
	)
	p := r.platform(stack.KindBIZA, stack.Options{
		ZNS:  stack.BenchZNS(sc.tenZones),
		Seed: subSeed(r.seed, streamStack),
	})
	eng := p.Eng
	m := volume.New(eng, p.Dev, volume.Config{MaxInflight: 8})
	m.SetTracer(r.tr)
	r.keep = append(r.keep, m)

	var tenants []*tenant
	open := func(class int, blocks int64, qos volume.QoS) {
		i := len(tenants)
		v, err := m.Open(fmt.Sprintf("t%02d", i), volume.Options{Blocks: blocks, QoS: qos})
		if err != nil {
			fatalf("tenant-mix: opening volume %d: %v", i, err)
		}
		seqFill(eng, v, blocks, 16)
		tenants = append(tenants, &tenant{class: class, v: v,
			g: newRNG(subSeed(r.seed, streamClient+uint64(i)))})
	}
	for i := 0; i < sc.tenInter; i++ {
		open(classInteractive, interVolume, volume.QoS{Weight: 16})
	}
	for i := 0; i < sc.tenBatch; i++ {
		open(classBatch, batchVolume, volume.QoS{Weight: 4,
			RateBytesPerSec: int64(batchAggregate) / int64(sc.tenBatch), BurstBytes: 128 << 10})
	}
	open(classAggressor, aggVolume, volume.QoS{Weight: 1})
	// The fill went through the token buckets; start from settled state.
	eng.Run()
	statsBefore := make([]volume.Stats, len(tenants))
	for i, t := range tenants {
		statsBefore[i] = t.v.Stats()
	}

	cp, fp := probeCore(p), probeFlash(p)
	t0 := eng.Now()
	endAt := t0 + sc.tenDuration
	// Mean think time that would offer interAggregate with zero service
	// time; the loop is closed, so the achieved rate is lower.
	think := sim.Time(int64(interBlocks*blockSize) * int64(sim.Second) * int64(sc.tenInter) / interAggregate)
	expected := int(sc.tenDuration/think) * sc.tenInter
	lat := make([]int64, 0, expected)

	for _, t := range tenants {
		t := t
		var issue func()
		finish := func(nblocks int, err error, l sim.Time) {
			t.tally.complete(nblocks*blockSize, l, err, false)
			if err == nil && t.class == classInteractive {
				lat = append(lat, l)
			}
			if t.class == classInteractive {
				// Jittered around the pacing gap: 0.75 to 1.25 of think.
				eng.After(think*3/4+t.g.intn(think/2+1), issue)
				return
			}
			issue()
		}
		var nblocks int
		wdone := func(res blockdev.WriteResult) { finish(nblocks, res.Err, res.Latency) }
		rdone := func(res blockdev.ReadResult) { finish(nblocks, res.Err, res.Latency) }
		seqWrite := func(size int) {
			nblocks = size
			lba := t.next
			if t.next += int64(size); t.next+int64(size) > t.v.Blocks() {
				t.next = 0
			}
			t.v.Write(lba, size, nil, wdone)
		}
		issue = func() {
			if eng.Now() >= endAt {
				return // tenant retires; what is in flight drains
			}
			t.tally.attempted++
			switch t.class {
			case classInteractive:
				nblocks = interBlocks
				lba := t.g.intn(t.v.Blocks())
				if t.g.intn(10) < 7 {
					t.v.Read(lba, interBlocks, rdone)
				} else {
					t.v.Write(lba, interBlocks, nil, wdone)
				}
			case classBatch:
				seqWrite(batchBlocks)
			case classAggressor:
				seqWrite(aggBlocks)
			}
		}
		// Staggered start inside the first 100 µs.
		n := 1
		if t.class == classAggressor {
			n = aggDepth
		}
		eng.At(t0+t.g.intn(100*sim.Microsecond), func() {
			for i := 0; i < n; i++ {
				issue()
			}
		})
	}
	r.begin()
	eng.Run()
	r.end()
	// Throughput is over the fixed duration; the tail that drains after it
	// is a few requests per tenant.
	r.virtualNS = sc.tenDuration
	r.lat = lat
	r.count("sim.virtual_ns", float64(eng.Now()-t0)) // the host window includes the drain

	for _, t := range tenants {
		r.tally.merge(&t.tally)
	}
	cp.report(r, r.virtualNS)
	fp.report(r, r.virtualNS)
	volumeCounters(r, tenants, statsBefore, sc.tenDuration)
	baselineCounters(r, nil, nil)
}

// volumeCounters appends the volume.* counters of the tenants over a
// window of the given virtual length; r.lat holds the interactive class's
// latencies. No tenants: all zeros.
func volumeCounters(r *rep, tenants []*tenant, before []volume.Stats, window sim.Time) {
	var classBytes [numTenantClasses]uint64
	var interOps []float64 // per interactive tenant, for Jain's index
	var stalls uint64
	var stallNS int64
	for i, t := range tenants {
		st := t.v.Stats()
		classBytes[t.class] += st.Bytes - before[i].Bytes
		stalls += st.ThrottleStalls - before[i].ThrottleStalls
		stallNS += st.ThrottleNanos - before[i].ThrottleNanos
		if t.class == classInteractive {
			interOps = append(interOps, float64(st.Ops-before[i].Ops))
		}
	}
	var sorted []int64
	if len(tenants) > 0 {
		sorted = slices.Clone(r.lat)
		slices.Sort(sorted)
	}
	secs := float64(window) / float64(sim.Second)
	r.count("volume.throttle_stalls", float64(stalls))
	r.count("volume.throttle_ns_share", ratio(float64(stallNS), float64(window)*float64(len(tenants))))
	r.count("volume.jain_index", metrics.JainIndex(interOps))
	r.count("volume.interactive_p999_us", float64(percentile(sorted, 0.999))/1e3)
	r.count("volume.batch_mbps", ratio(float64(classBytes[classBatch])/1e6, secs))
	r.count("volume.aggressor_mbps", ratio(float64(classBytes[classAggressor])/1e6, secs))
}

// baselineKinds are the three conventional stacks of baseline-mix, with
// the counter each one's host time is reported under.
var baselineKinds = []struct {
	kind    stack.Kind
	counter string
}{
	{stack.KindDmzapRAIZN, "raizn.host_ns_per_io"},
	{stack.KindMdraidDmzap, "mdraid_dmzap.host_ns_per_io"},
	{stack.KindMdraidConvSSD, "mdraid_ftl.host_ns_per_io"},
}

// runBaselineMix: on each of the three baseline stacks, a sequential fill
// then random 4 KiB reads and writes — the zone-ordered driver path, plain
// zone writes, dm-zap's translation and GC, mdraid's stripe cache, the FTL.
func runBaselineMix(r *rep) {
	sc := r.sc
	var ps []*stack.Platform
	for i, b := range baselineKinds {
		ps = append(ps, r.platform(b.kind, stack.Options{Seed: subSeed(r.seed, streamStack+uint64(i)*16)}))
	}
	var zoned []*stack.Platform
	for _, p := range ps {
		p.ResetAccounting()
		if len(p.ZNSDevs) > 0 {
			zoned = append(zoned, p)
		}
	}
	fp := probeFlash(zoned...)
	r.lat = make([]int64, 0, len(ps)*sc.baseRandIOs)
	const fillBlocks = 64 << 10 / blockSize
	slots := sc.baseSpanBlocks / fillBlocks

	r.begin()
	var zonedNS, p999 int64
	var hostNS []float64
	for i, p := range ps {
		g := newRNG(subSeed(r.seed, streamLoad+uint64(i)*16))
		h0, t0 := time.Now(), p.Eng.Now()
		var t tally
		// Phase A: fill the span, starting at a seeded slot and wrapping.
		start := g.intn(slots)
		var n int64
		closedLoop(p.Eng, p.Dev, 32, &t, false, func(s *ioSlot) bool {
			if n == slots {
				return false
			}
			s.lba, s.blocks, s.read = (start+n)%slots*fillBlocks, fillBlocks, false
			n++
			return true
		}, nil)
		// Phase B: random 4 KiB, half reads.
		left := sc.baseRandIOs
		closedLoop(p.Eng, p.Dev, 32, &t, true, func(s *ioSlot) bool {
			if left == 0 {
				return false
			}
			left--
			s.lba, s.blocks, s.read = g.intn(sc.baseSpanBlocks), 1, g.intn(2) == 0
			return true
		}, nil)
		ns := p.Eng.Now() - t0
		r.virtualNS += ns
		if len(p.ZNSDevs) > 0 {
			zonedNS += ns
		}
		hostNS = append(hostNS, float64(time.Since(h0).Nanoseconds())/float64(t.attempted))
		r.tally.merge(&t)
		// The tail is the mean of the three stacks' own p99.9: pooled, the
		// slowest 0.1 % falls between two stacks' stall clusters, and
		// which side of the gap it lands on changes with the seed (0.70
		// or 1.07 ms). The median stays pooled: with half the I/Os reads,
		// a single stack's median sits in the gap between its writes and
		// its reads.
		slices.Sort(t.lat)
		p999 += percentile(t.lat, 0.999)
	}
	r.end()
	r.p999 = p999 / int64(len(ps))

	for _, p := range ps {
		p.Flush()
		r.wa.Add(p.FlashWriteAmp())
	}
	r.count("sim.virtual_ns", float64(r.virtualNS))
	probeCore().report(r, r.virtualNS)
	// Channel busy shares are over the two zoned platforms' windows; each
	// channel was only busy during its own platform's, so the share is
	// against the mean window.
	fp.report(r, zonedNS/int64(len(zoned)))
	volumeCounters(r, nil, nil, 0)
	baselineCounters(r, ps, hostNS)
}

// baselineCounters appends the baseline-mix split: host time per I/O of
// each stack (hostNS, in baselineKinds order) and the FTLs' GC traffic.
// No platforms: all zeros.
func baselineCounters(r *rep, ps []*stack.Platform, hostNS []float64) {
	var ftlGC uint64
	for _, p := range ps {
		for _, d := range p.FTLDevs {
			w := d.WriteAmp()
			ftlGC += w.GCMigratedBytes
		}
	}
	for i, b := range baselineKinds {
		var ns float64
		if i < len(hostNS) {
			ns = hostNS[i]
		}
		r.hostCount(b.counter, ns)
	}
	r.count("ftl.gc_migrated_bytes", float64(ftlGC))
}

// fleetArray is one array of the fleet with its own tally; everything in
// it is touched only from the shard that owns the array.
type fleetArray struct {
	shard *sim.Shard
	dev   blockdev.Device
	next  int64
	tally tally
}

// fleetClient is a closed-loop client with one op in flight. Its state
// travels with it: every field is touched only on the shard hosting the
// array it is visiting, and the barrier orders one hop before the next.
// The callbacks are made once per client so a hop allocates nothing here.
type fleetClient struct {
	id     int
	g      *rng
	at     *fleetArray
	wdone  func(blockdev.WriteResult)
	rdone  func(blockdev.ReadResult)
	arrive func()
}

const (
	fleetFabric   = 20 * sim.Microsecond // hop latency = the group's barrier window
	fleetOpBlocks = 32 << 10 / blockSize
)

// fleetRun builds the fleet on shards engine shards, preconditions every
// array, and drives the clients for the scale's virtual duration; what is
// in flight at its end drains inside the window. A client only ever looks
// at the clock of the shard it is on, so the run is the same at any shard
// count. It brackets the timed window with r.begin and r.end.
func fleetRun(r *rep, shards int) {
	sc := r.sc
	g := sim.NewShardGroup(shards, fleetFabric)
	r.keep = append(r.keep, g)
	arrays := make([]*fleetArray, sc.fleetArrays)
	ps := make([]*stack.Platform, sc.fleetArrays)
	for i := range arrays {
		sh := g.Shard(i % shards)
		ps[i] = r.platformOn(sh.Engine(), stack.KindBIZA, stack.Options{
			ZNS:  stack.BenchZNS(16),
			Seed: subSeed(r.seed, streamStack+uint64(i)*16),
		})
		arrays[i] = &fleetArray{shard: sh, dev: ps[i].Dev}
	}

	// Precondition through the group, so every engine's clock stays in
	// step with the barrier: one sequential fill per array.
	for i, a := range arrays {
		a := a
		g.Send(a.shard.ID(), fleetFabric, int64(i), func() {
			var next int64
			var issue func()
			issue = func() {
				if next == sc.fleetSpanBlocks {
					return
				}
				lba := next
				next += fleetOpBlocks
				a.dev.Write(lba, fleetOpBlocks, nil, func(res blockdev.WriteResult) {
					if res.Err != nil {
						fatalf("fleet preconditioning: %v", res.Err)
					}
					issue()
				})
			}
			for d := 0; d < 4; d++ {
				issue()
			}
		})
	}
	if !g.Drain(g.Now() + 10*sim.Second) {
		fatalf("fleet preconditioning did not quiesce")
	}

	z := newZipf(sc.fleetArrays, 0.9)
	// visit runs one op of client c on the array it has arrived at (on
	// that array's shard); the completion sends the client to its next
	// array through the fabric.
	var endAt sim.Time
	visit := func(c *fleetClient) {
		a := c.at
		if a.shard.Engine().Now() >= endAt {
			return // the client retires
		}
		a.tally.attempted++
		if c.g.intn(10) < 4 {
			lba := a.next
			if a.next += fleetOpBlocks; a.next >= sc.fleetSpanBlocks {
				a.next = 0
			}
			a.dev.Write(lba, fleetOpBlocks, nil, c.wdone)
			return
		}
		a.dev.Read(c.g.intn(sc.fleetSpanBlocks-fleetOpBlocks+1), fleetOpBlocks, c.rdone)
	}
	clients := make([]*fleetClient, sc.fleetClients)
	for i := range clients {
		c := &fleetClient{id: i, g: newRNG(subSeed(r.seed, streamClient+uint64(i)))}
		finish := func(err error, lat sim.Time) {
			a := c.at
			a.tally.complete(fleetOpBlocks*blockSize, lat, err, true)
			c.at = arrays[z.draw(c.g)]
			a.shard.Send(c.at.shard.ID(), a.shard.Engine().Now()+fleetFabric, int64(c.id), c.arrive)
		}
		c.wdone = func(res blockdev.WriteResult) { finish(res.Err, res.Latency) }
		c.rdone = func(res blockdev.ReadResult) { finish(res.Err, res.Latency) }
		c.arrive = func() { visit(c) }
		clients[i] = c
	}

	cp, fp := probeCore(ps...), probeFlash(ps...)
	t0 := g.Now()
	endAt = t0 + sc.fleetDuration
	for _, c := range clients {
		c.at = arrays[z.draw(c.g)]
		g.Send(c.at.shard.ID(), t0+fleetFabric+c.g.intn(8*fleetFabric), int64(c.id), c.arrive)
	}
	r.begin()
	quiet := g.Drain(endAt + 10*sim.Second)
	r.end()
	if !quiet {
		fatalf("fleet did not quiesce")
	}
	for _, a := range arrays {
		r.tally.merge(&a.tally)
	}
	r.virtualNS = sc.fleetDuration
	r.count("sim.virtual_ns", float64(g.Now()-t0)) // the host window includes the drain
	reportArrays(r, cp, fp)
}

// runFleet1: many small arrays on one engine shard, clients hopping
// between them through the shard fabric — the barrier/merge path and a
// simulator state far larger than the CPU cache.
func runFleet1(r *rep) { fleetRun(r, 1) }
