package bench

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/workload"
	"biza/internal/zns"
)

func init() {
	registerPoints("detect", []string{"0.00", "0.25", "0.50", "0.75"}, detectPoint)
	registerPoints("batching", []string{"4", "64", "192"}, batchingPoint)
	register("append", AblationAppendVsZRWA)
	register("future", AblationFutureZNS)
	registerPoints("wear", kindNames([]stack.Kind{stack.KindBIZA, stack.KindBIZANoSel,
		stack.KindDmzapRAIZN, stack.KindMdraidDmzap}), wearPoint)
}

// AblationFutureZNS evaluates §6's future-ZNS proposal: devices that
// piggyback the zone-to-channel mapping in OPEN completions. On heavily
// aged devices the guess-and-verify detector can only approximate the
// mapping; CQE-informed opens make every guess exact, so GC avoidance
// steers perfectly without any diagnosis cost.
func AblationFutureZNS(s Scale, r *Run) *Table {
	t := &Table{ID: "future", Title: "§6 future ZNS: channel mapping in OPEN completions",
		Header: []string{"device", "corrections", "mispredict_after", "collide_rate"}}
	run := func(name string, expose bool) {
		z := agedZNS()
		z.ShuffleFraction = 0.75 // heavily aged: worst case for guessing
		z.ExposeChannelOnOpen = expose
		p := agedChurn(s, r, name, stack.KindBIZA, z, false)
		t.Add(name, fmt.Sprintf("%d", p.BIZA.DetectCorrections()),
			f3(mispredictRateCorrected(p)), f3(collideRate(p)))
	}
	run("opaque (today)", false)
	run("CQE-informed (§6)", true)
	return t
}

// AblationAppendVsZRWA compares BIZA's ZRWA-based design against the
// APPEND-based alternative (§3.2/§6): appends parallelize as well as the
// sliding window, but cannot absorb overwrites or partial parities — the
// endurance gap is the paper's reason to prefer ZRWA.
func AblationAppendVsZRWA(s Scale, r *Run) *Table {
	t := &Table{ID: "append", Title: "ZRWA (BIZA) vs APPEND (ZapRAID-style)",
		Header: []string{"metric", "BIZA", "ZapRAID", "ratio"}}
	// Throughput: sequential 64 KiB writes at depth 32.
	tput := func(kind stack.Kind) float64 {
		p, err := r.Platform(kind, stack.Options{Seed: r.Seed("tput/" + string(kind) + "/stack")})
		if err != nil {
			panic(err)
		}
		res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
			Pattern: workload.Seq, SizeBlocks: 16, IODepth: 32,
			Duration: s.Duration, Seed: r.Seed("tput/" + string(kind) + "/wl"),
		})
		return res.Throughput().MBps()
	}
	bT, zT := tput(stack.KindBIZA), tput(stack.KindZapRAID)
	t.Add("seq64K_MBps", f1(bT), f1(zT), f2(bT/zT))
	// Endurance: flash writes per user byte on a hot-overwrite workload.
	wa := func(kind stack.Kind) float64 {
		p, err := r.Platform(kind, stack.Options{Seed: r.Seed("wa/" + string(kind) + "/stack")})
		if err != nil {
			panic(err)
		}
		rng := sim.NewRNG(r.Seed("wa/" + string(kind) + "/churn"))
		outstanding := 0
		n := s.TraceOps * 4
		for i := 0; i < n; i++ {
			lba := rng.Int63n(2048) // 8 MiB hot set
			outstanding++
			p.Dev.Write(lba, 1, nil, func(blockdev.WriteResult) { outstanding-- })
			if outstanding >= 32 {
				p.Eng.Run()
			}
		}
		p.Flush()
		wa := p.FlashWriteAmp()
		return wa.Factor()
	}
	bW, zW := wa(stack.KindBIZA), wa(stack.KindZapRAID)
	t.Add("hot_overwrite_WA", f2(bW), f2(zW), f2(bW/zW))
	return t
}

// batchingPoint quantifies the submission-merging design choice for one
// request size: BIZA's contiguous-chunk batching versus one-block device
// commands (sequential writes, iodepth 32).
func batchingPoint(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "batching", Title: "submission batching ablation (seq write MB/s)",
		Header: []string{"size_KB", "batched", "single_block", "speedup"}}
	sizeKB := atoiPoint(point)
	run := func(maxBatch int64) float64 {
		ccfg := core.DefaultConfig(128)
		ccfg.MaxBatchBlocks = maxBatch
		cell := fmt.Sprintf("%d/batch%d", sizeKB, maxBatch)
		p, err := r.Platform(stack.KindBIZA, stack.Options{BIZAConfig: &ccfg,
			Seed: r.Seed(cell + "/stack")})
		if err != nil {
			panic(err)
		}
		res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
			Pattern: workload.Seq, SizeBlocks: sizeKB * 1024 / 4096,
			IODepth: 32, Duration: s.Duration, Seed: r.Seed(cell + "/wl"),
		})
		return res.Throughput().MBps()
	}
	batched := run(0)
	single := run(1)
	t.Add(fmt.Sprintf("%d", sizeKB), f1(batched), f1(single), f2(batched/single))
	return []*Table{t}
}

// detectPoint measures the §4.3 guess-and-verify detector on aged devices
// for one shuffle fraction: as the fraction of zones whose channel
// deviates from round-robin grows, the vote-based corrector should keep
// fixing guesses while GC and user traffic race. Reported: corrections
// made and the final misprediction rate over zones the engine actually
// touched.
func detectPoint(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "detect", Title: "guess-and-verify channel detection on aged devices",
		Header: []string{"shuffle_frac", "gc_events", "corrections",
			"mispredict_before", "mispredict_after", "collide_avoid", "collide_noavoid"}}
	fracs := map[string]float64{"0.00": 0, "0.25": 0.25, "0.50": 0.5, "0.75": 0.75}
	frac := fracs[point]
	run := func(kind stack.Kind) *stack.Platform {
		z := agedZNS()
		z.ShuffleFraction = frac
		return agedChurn(s, r, point+"/"+string(kind), kind, z, false)
	}
	pAvoid := run(stack.KindBIZA)
	pNo := run(stack.KindBIZANoAvoid)
	t.Add(fmt.Sprintf("%.2f", frac),
		fmt.Sprintf("%d", pAvoid.BIZA.GCEvents()),
		fmt.Sprintf("%d", pAvoid.BIZA.DetectCorrections()),
		f3(mispredictRate(pAvoid)), f3(mispredictRateCorrected(pAvoid)),
		f3(collideRate(pAvoid)), f3(collideRate(pNo)))
	return []*Table{t}
}

// agedZNS is the aged-device member of detect, future and wear: 48 zones
// of 512 blocks with a 64-block ZRWA, small enough that a short churn runs
// GC on every device.
func agedZNS() zns.Config {
	z := stack.BenchZNS(48)
	z.ZoneBlocks = 512
	z.ZRWABlocks = 64
	return z
}

// agedChurn assembles kind on members z and runs the churn detect, future
// and wear share: 8-block random writes over half the array, 32 in flight,
// up to TraceOps*8 of them. With hot set, every third write goes to the
// first 64 blocks instead. A BIZA engine is scored against the true channel
// mapping while it churns (collideRate). Streams: label+"/stack",
// label+"/churn".
func agedChurn(s Scale, r *Run, label string, kind stack.Kind, z zns.Config, hot bool) *stack.Platform {
	p, err := r.Platform(kind, stack.Options{ZNS: z, Seed: r.Seed(label + "/stack")})
	if err != nil {
		panic(err)
	}
	if p.BIZA != nil {
		devs := p.ZNSDevs
		p.BIZA.SetChannelOracle(func(dev, zone int) int {
			return devs[dev].TrueChannelOf(zone)
		})
	}
	rng := sim.NewRNG(r.Seed(label + "/churn"))
	span := p.Dev.Blocks() / 2
	churn := min(int(span/8)*4, s.TraceOps*8)
	outstanding := 0
	for i := 0; i < churn; i++ {
		lba := rng.Int63n(span - 8)
		if hot && i%3 == 0 {
			lba = rng.Int63n(64)
		}
		outstanding++
		p.Dev.Write(lba, 8, nil, func(blockdev.WriteResult) { outstanding-- })
		if outstanding >= 32 {
			p.Eng.Run()
		}
	}
	p.Eng.Run()
	return p
}

// collideRate is the share of user writes dispatched while GC ran that
// landed on a channel GC kept busy.
func collideRate(p *stack.Platform) float64 {
	writes, hits := p.BIZA.BusyCollisions()
	if writes == 0 {
		return 0
	}
	return float64(hits) / float64(writes)
}

// mispredictRate reports the fraction of zones whose round-robin guess
// disagrees with the device's hidden mapping.
func mispredictRate(p *stack.Platform) float64 {
	wrong, total := 0, 0
	for _, d := range p.ZNSDevs {
		n := d.Config().NumZones
		ch := d.Config().NumChannels
		for z := 0; z < n; z++ {
			total++
			if d.TrueChannelOf(z) != z%ch {
				wrong++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}

// mispredictRateCorrected compares the engine's current (possibly
// corrected) guesses against the truth, over zones the engine actually
// used (the only zones observations can reach).
func mispredictRateCorrected(p *stack.Platform) float64 {
	wrong, total := 0, 0
	for di, d := range p.ZNSDevs {
		n := d.Config().NumZones
		for z := 0; z < n; z++ {
			if d.EraseCount(z) == 0 {
				info, err := d.ZoneInfo(z)
				if err != nil || info.State == zns.ZoneEmpty {
					continue
				}
			}
			total++
			if d.TrueChannelOf(z) != p.BIZA.GuessedChannel(di, z) {
				wrong++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}

// wearPoint reports per-zone erase statistics for one platform after a
// fixed churn volume — the endurance consequence of each platform's GC
// policy (fewer, better-targeted collections erase less flash).
func wearPoint(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "wear", Title: "zone erase counts after identical churn",
		Header: []string{"platform", "total_erases", "max_zone_erases", "mean_zone_erases", "flash_GB_programmed"}}
	p := agedChurn(s, r, point, stack.Kind(point), agedZNS(), true)
	var total, max, programmed uint64
	zones := 0
	for _, d := range p.ZNSDevs {
		programmed += d.Stats().TotalProgrammed()
		for zi := 0; zi < d.Config().NumZones; zi++ {
			e := d.EraseCount(zi)
			total += e
			if e > max {
				max = e
			}
			zones++
		}
	}
	mean := 0.0
	if zones > 0 {
		mean = float64(total) / float64(zones)
	}
	t.Add(point, fmt.Sprintf("%d", total), fmt.Sprintf("%d", max),
		f2(mean), f2(float64(programmed)/(1<<30)))
	return []*Table{t}
}
