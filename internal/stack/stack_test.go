package stack

import (
	"bytes"
	"testing"

	"biza/internal/blockdev"
	"biza/internal/obs"
	"biza/internal/sim"
	"biza/internal/workload"
	"biza/internal/zns"
)

func smallOpts() Options {
	z := BenchZNS(32)
	z.ZoneBlocks = 512 // 2 MiB zones for fast tests
	z.ZRWABlocks = 64
	z.StoreData = true
	f := BenchFTL(256)
	f.StoreData = true
	return Options{ZNS: z, FTL: f, Seed: 1}
}

func TestRAIZNShimRejectsRandomWrites(t *testing.T) {
	p, err := New(KindRAIZN, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential fill works; jumping backward must fail (ZNS semantics).
	var err1, err2 error
	p.Dev.Write(0, 4, nil, func(r blockdev.WriteResult) { err1 = r.Err })
	p.Eng.Run()
	p.Dev.Write(100, 4, nil, func(r blockdev.WriteResult) { err2 = r.Err })
	p.Eng.Run()
	if err1 != nil {
		t.Fatalf("sequential write failed: %v", err1)
	}
	if err2 == nil {
		t.Fatal("random write accepted by RAIZN shim")
	}
}

func TestFlashWriteAmpAccountsUserAndParity(t *testing.T) {
	p, err := New(KindBIZA, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.MicroSpec{Pattern: workload.Seq, SizeBlocks: 16, IODepth: 8,
		Duration: 20 * sim.Millisecond}
	workload.RunMicro(p.Eng, p.Dev, spec)
	wa := p.FlashWriteAmp()
	if wa.UserBytes == 0 {
		t.Fatal("no user bytes")
	}
	if wa.FlashDataBytes == 0 {
		t.Fatal("no flash data accounted")
	}
}

func TestBIZAOutperformsDmzapRAIZNSeqWrite(t *testing.T) {
	// The headline throughput contrast (Fig. 10, §1's 93.2%): BIZA must
	// clearly beat dmzap+RAIZN on sequential 64 KiB writes.
	run := func(kind Kind) float64 {
		p, err := New(kind, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
			Pattern: workload.Seq, SizeBlocks: 16, IODepth: 32,
			Duration: 50 * sim.Millisecond,
		})
		return res.Throughput().MBps()
	}
	biza := run(KindBIZA)
	dr := run(KindDmzapRAIZN)
	t.Logf("BIZA=%.0f MB/s dmzap+RAIZN=%.0f MB/s", biza, dr)
	if biza < dr*1.5 {
		t.Fatalf("BIZA %.0f MB/s not clearly above dmzap+RAIZN %.0f MB/s", biza, dr)
	}
	// And BIZA should approach the 6.4 GB/s ideal's neighborhood.
	if biza < 3500 {
		t.Fatalf("BIZA seq 64K throughput = %.0f MB/s, want > 3500", biza)
	}
}

func TestMdraidConvReachesMultiGBps(t *testing.T) {
	p, err := New(KindMdraidConvSSD, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
		Pattern: workload.Seq, SizeBlocks: 16, IODepth: 32,
		Duration: 50 * sim.Millisecond,
	})
	mbps := res.Throughput().MBps()
	if mbps < 2000 || mbps > 6700 {
		t.Fatalf("mdraid+ConvSSD seq 64K = %.0f MB/s, want 2000..6700", mbps)
	}
}

func TestBIZAWriteAmpBelowBaselineOnHotWorkload(t *testing.T) {
	// Endurance headline (Fig. 14 direction): on a hot-update workload,
	// BIZA's flash writes per user byte must undercut mdraid+dmzap's.
	run := func(kind Kind) float64 {
		opts := smallOpts()
		opts.ZNS.StoreData = false
		opts.FTL.StoreData = false
		p, err := New(kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(9)
		hot := int64(256) // 1 MiB hot set
		var outstanding int
		for i := 0; i < 20000; i++ {
			outstanding++
			lba := rng.Int63n(hot)
			if i%4 == 0 {
				lba = hot + rng.Int63n(p.Dev.Blocks()/2-hot)
			}
			p.Dev.Write(lba, 1, nil, func(blockdev.WriteResult) { outstanding-- })
			if i%16 == 0 {
				p.Eng.Run()
			}
		}
		p.Eng.Run()
		if outstanding != 0 {
			t.Fatalf("%s: %d writes hung", kind, outstanding)
		}
		wa := p.FlashWriteAmp()
		return wa.Factor()
	}
	biza := run(KindBIZA)
	md := run(KindMdraidDmzap)
	t.Logf("WA: BIZA=%.2f mdraid+dmzap=%.2f", biza, md)
	if biza >= md {
		t.Fatalf("BIZA WA %.2f not below mdraid+dmzap %.2f", biza, md)
	}
}

func TestZNSDeviceCountMatchesMembers(t *testing.T) {
	p, err := New(KindBIZA, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ZNSDevs) != 4 {
		t.Fatalf("members = %d", len(p.ZNSDevs))
	}
	var open int
	for _, d := range p.ZNSDevs {
		open += d.OpenZones()
	}
	if open == 0 {
		t.Fatal("BIZA opened no zones")
	}
	_ = zns.TagUserData
}

// TestGCAvoidanceCutsTailLatency exercises Fig. 15's ablation in
// miniature: GC stays active during a measured foreground stream for both
// BIZA and the BIZAw/oAvoid ablation.
func TestGCAvoidanceCutsTailLatency(t *testing.T) {
	run := func(kind Kind) int64 {
		z := BenchZNS(48)
		z.ZoneBlocks = 512
		z.ZRWABlocks = 64
		p, err := New(kind, Options{ZNS: z, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		// Churn to activate GC and keep it running in the background.
		rng := sim.NewRNG(31)
		span := p.Dev.Blocks() * 3 / 5
		outstanding := 0
		for i := 0; i < int(span/8); i++ {
			outstanding++
			p.Dev.Write(rng.Int63n(span-8), 8, nil, func(blockdev.WriteResult) { outstanding-- })
			if outstanding >= 64 {
				p.Eng.Run()
			}
		}
		p.Eng.Run()
		bg := sim.NewRNG(53)
		bgLeft := 16000
		var bgIssue func()
		bgIssue = func() {
			if bgLeft <= 0 {
				return
			}
			bgLeft--
			p.Dev.Write(bg.Int63n(span-8), 8, nil, func(blockdev.WriteResult) {
				p.Eng.After(50*sim.Microsecond, bgIssue)
			})
		}
		for i := 0; i < 4; i++ {
			bgIssue()
		}
		// Foreground: sequential 64 KiB writes at depth 4 for 100 ms.
		res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
			Pattern: workload.Seq, SizeBlocks: 16, IODepth: 4,
			Duration: 100 * sim.Millisecond, SpanBlocks: p.Dev.Blocks() / 4, Seed: 3,
		})
		p.Eng.Run()
		if res.Ops == 0 {
			t.Fatalf("%s: no foreground ops", kind)
		}
		t.Logf("%s: gcEvents=%d fgOps=%d p99=%dus mean=%.0fus",
			kind, p.BIZA.GCEvents(), res.Ops, res.Lat.Percentile(99)/1000, res.Lat.Mean()/1000)
		return res.Lat.Percentile(99)
	}
	avoid := run(KindBIZA)
	noAvoid := run(KindBIZANoAvoid)
	t.Logf("p99: BIZA=%dus BIZAw/oAvoid=%dus", avoid/1000, noAvoid/1000)
	// At unit-test scale the two configurations trade places run to run;
	// the quantitative ordering (avoidance cuts p99.99 by ~30-65%%) is
	// asserted by the default-scale fig15 run in EXPERIMENTS.md. Here we
	// bound the regression: avoidance must never make tails dramatically
	// worse while GC is active.
	if avoid > noAvoid*3/2 {
		t.Fatalf("GC avoidance made tails much worse: %d vs %d", avoid, noAvoid)
	}
}

// TestBIZAOnSmallZoneDevice exercises §6's claim that the design carries
// to small-zone ZNS SSDs (PM1731a-class: tiny zones, many open).
func TestBIZAOnSmallZoneDevice(t *testing.T) {
	z := zns.PM1731a(256)
	z.ZoneBlocks = 96 << 20 / 4096 / 16 // scale the 96 MB zone down 16x
	z.ZRWABlocks = 16                   // 64 KiB ZRWA (Table 2)
	z.StoreData = true
	p, err := New(KindBIZA, Options{ZNS: z, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 16*4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var werr error
	ok := false
	p.Dev.Write(0, 16, payload, func(r blockdev.WriteResult) { werr = r.Err; ok = true })
	p.Eng.Run()
	if !ok || werr != nil {
		t.Fatalf("small-zone write: ok=%v err=%v", ok, werr)
	}
	var got []byte
	p.Dev.Read(0, 16, func(r blockdev.ReadResult) { got = r.Data })
	p.Eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("small-zone round trip mismatch")
	}
	// Hot overwrites still absorb in the (much smaller) ZRWA.
	for i := 0; i < 50; i++ {
		p.Dev.Write(3, 1, payload[:4096], nil)
		p.Eng.Run()
	}
	if p.AbsorbedBytes() == 0 {
		t.Fatal("small-zone ZRWA absorbed nothing")
	}
}

// TestMdraidDmzapNoSilentDrops is a regression test for the open-zone
// budget bug: under a heavy large-write workload, every byte the mdraid
// engine flushes must reach flash — no device write may fail silently.
func TestMdraidDmzapNoSilentDrops(t *testing.T) {
	p, err := New(KindMdraidDmzap, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	span := p.Dev.Blocks() / 2
	outstanding := 0
	for i := 0; i < 4000; i++ {
		outstanding++
		p.Dev.Write(rng.Int63n(span-30), 30, nil, func(blockdev.WriteResult) { outstanding-- })
		if outstanding >= 32 {
			p.Eng.Run()
		}
	}
	p.Eng.Run()
	if outstanding != 0 {
		t.Fatalf("%d writes hung", outstanding)
	}
	md := p.Dev.(interface{ FlushErrors() uint64 })
	if errs := md.FlushErrors(); errs != 0 {
		t.Fatalf("%d member write failures during flushes", errs)
	}
	// Conservation: flash received at least the engine's flush output
	// minus what can still sit in caches (bounded by the cache budget).
	wa := p.FlashWriteAmp()
	var flash uint64
	for _, d := range p.ZNSDevs {
		flash += d.Stats().TotalProgrammed()
	}
	engineOut := wa.FlashDataBytes + wa.FlashParityBytes
	if flash+256<<20 < engineOut {
		t.Fatalf("flash %dMB far below engine output %dMB — writes lost", flash>>20, engineOut>>20)
	}
}

// TestBIZASoak drives a full second of virtual time at high load across
// mixed patterns, through many GC cycles, asserting liveness and sane
// steady-state behaviour. Skipped in -short.
func TestBIZASoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	z := BenchZNS(64)
	z.ZoneBlocks = 1024 // 4 MiB zones: plenty of GC churn in one second
	p, err := New(KindBIZA, Options{ZNS: z, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(3)
	span := p.Dev.Blocks() / 2
	var completed, failed uint64
	outstanding := 0
	deadline := sim.Time(1 * sim.Second)
	var issue func()
	issue = func() {
		if p.Eng.Now() >= deadline {
			return
		}
		var lba int64
		blocks := 1
		switch rng.Intn(4) {
		case 0: // hot small
			lba = rng.Int63n(512)
		case 1: // random large
			blocks = 16
			lba = rng.Int63n(span - 16)
		case 2: // sequential-ish
			blocks = 8
			lba = (int64(completed) * 8) % (span - 8)
		default:
			lba = rng.Int63n(span)
		}
		outstanding++
		p.Dev.Write(lba, blocks, nil, func(r blockdev.WriteResult) {
			outstanding--
			if r.Err != nil {
				failed++
			} else {
				completed++
			}
			issue()
		})
	}
	for i := 0; i < 64; i++ {
		issue()
	}
	p.Eng.Run()
	if outstanding != 0 {
		t.Fatalf("%d requests hung after soak", outstanding)
	}
	if failed > 0 {
		t.Fatalf("%d failed writes in soak", failed)
	}
	if p.BIZA.GCEvents() < 10 {
		t.Fatalf("soak produced only %d GC events", p.BIZA.GCEvents())
	}
	wa := p.FlashWriteAmp()
	if wa.Factor() <= 0 || wa.Factor() > 5 {
		t.Fatalf("soak WA = %.2f out of sanity range", wa.Factor())
	}
	t.Logf("soak: %d ops, %d GC events, WA %.2f, absorbed %dMB",
		completed, p.BIZA.GCEvents(), wa.Factor(), p.AbsorbedBytes()>>20)
}

// TestRAIZNTrimDropsCounted pins the documented limitation of the RAIZN
// sequential shim: block-range trims have no zoned discard equivalent, so
// they are dropped — but counted, and emitted as a probe when tracing.
func TestRAIZNTrimDropsCounted(t *testing.T) {
	opts := smallOpts()
	tr := obs.New(obs.Config{})
	opts.Trace = tr
	p, err := New(KindRAIZN, opts)
	if err != nil {
		t.Fatal(err)
	}
	sd := p.Dev.(*seqZoneDevice)
	if sd.trimDrops != 0 {
		t.Fatalf("fresh platform reports %d trim drops", sd.trimDrops)
	}
	p.Dev.Trim(0, 8)
	p.Dev.Trim(100, 4)
	p.Dev.Trim(50, 0) // degenerate range: not counted
	if got := sd.trimDrops; got != 12 {
		t.Fatalf("trimDrops = %d, want 12", got)
	}
	// The drop counter must be visible through the probe stream too.
	found := false
	for _, ps := range tr.ProbeStats() {
		if ps.Name == "trim_dropped" && ps.Value == 12 {
			found = true
		}
	}
	if !found {
		t.Fatal("trim_dropped probe not emitted at final value 12")
	}
	// Other platforms forward trims and emit no drop probe.
	opts = smallOpts()
	tr = obs.New(obs.Config{})
	opts.Trace = tr
	p2, err := New(KindBIZA, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2.Dev.Trim(0, 8)
	p2.Eng.Run()
	for _, ps := range tr.ProbeStats() {
		if ps.Name == "trim_dropped" {
			t.Fatalf("BIZA platform emitted trim_dropped = %v", ps.Value)
		}
	}
}

// TestPooledWorkloadZeroCopyProbes drives the BIZA engine with pooled,
// refcounted payloads (workload.MicroSpec.Pooled via blockdev.BufWriter)
// and checks the unified-pool health probes publish at finalize: misses
// are counted (the once-silent heap fallback), payload copies are
// observable, and pool_live lands at zero — every reference the workload
// transferred came back after the drain.
func TestPooledWorkloadZeroCopyProbes(t *testing.T) {
	opts := smallOpts()
	tr := obs.New(obs.Config{})
	opts.Trace = tr
	p, err := New(KindBIZA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Dev.(blockdev.BufWriter); !ok {
		t.Fatal("BIZA engine does not implement blockdev.BufWriter")
	}
	res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
		Pattern: workload.Seq, SizeBlocks: 16, IODepth: 8,
		Duration: 10 * sim.Millisecond, Pooled: true,
	})
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("pooled run: %d ops, %d errors", res.Ops, res.Errors)
	}
	p.BIZA.Flush() // harden buffered ZRWA contents so their refs drop
	p.Eng.Run()
	tr.Finalize()
	probes := map[string]float64{}
	for _, ps := range tr.ProbeStats() {
		probes[ps.Name] = ps.Value
	}
	miss, ok := probes["pool_miss"]
	if !ok || miss <= 0 {
		t.Fatalf("pool_miss probe = %v (present=%v), want > 0 (cold pool must miss)", miss, ok)
	}
	if _, ok := probes["payload_copy"]; !ok {
		t.Fatal("payload_copy probe not published")
	}
	live, ok := probes["pool_live"]
	if !ok {
		t.Fatal("pool_live probe not published")
	}
	if live != 0 {
		t.Fatalf("pool_live = %.0f after flush+drain, want 0 (leaked references)", live)
	}
}
