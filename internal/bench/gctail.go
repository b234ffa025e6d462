package bench

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/trace"
)

func init() {
	register("fig15", Fig15GCTail)
}

// gcOptions builds a deliberately small geometry (2 MiB zones) so the
// churn that activates GC fits in a short simulation. The no-GC baseline
// uses the same zone geometry with 8x the zones, so the fixed-op
// foreground never exhausts the free pool (service times are identical;
// only capacity differs).
func gcOptions(seed uint64, noGC bool) stack.Options {
	zones := 48
	if noGC {
		zones = 384
	}
	z := stack.BenchZNS(zones)
	z.ZoneBlocks = 512 // 2 MiB zones
	z.ZRWABlocks = 64  // 256 KiB ZRWA
	return stack.Options{ZNS: z, Seed: seed}
}

// dirtyForGC churns a span of the device with random overwrites until the
// platform's garbage collection is active, leaving the free pools near
// their watermarks so GC keeps firing during measurement.
func dirtyForGC(p *stack.Platform, seed uint64) {
	rng := sim.NewRNG(seed)
	span := p.Dev.Blocks() * 3 / 5
	outstanding := 0
	// Two passes of random 32 KiB overwrites.
	total := int(span/8) * 2
	for i := 0; i < total; i++ {
		outstanding++
		p.Dev.Write(rng.Int63n(span-8), 8, nil, func(blockdev.WriteResult) { outstanding-- })
		if outstanding >= 64 {
			p.Eng.Run()
		}
	}
	p.Eng.Run()
}

// Fig15GCTail reproduces Fig. 15: p99 and p99.99 sequential-write latency
// after GC starts, for throughput-sensitive (iodepth 32) and
// latency-sensitive (iodepth 1) scenarios, normalized against BIZA with no
// GC running. Single registry point: every row normalizes against the
// BIZA(no GC) baseline measured in the same run.
func Fig15GCTail(s Scale, r *Run) *Table {
	t := &Table{ID: "fig15", Title: "tail latency after GC starts (us; x = vs BIZA no-GC)",
		LabelCols: 3,
		Header:    []string{"platform", "depth", "size_KB", "p99_us", "p9999_us", "p9999_x"}}
	type cfg struct {
		kind  stack.Kind
		gc    bool
		label string
	}
	cfgs := []cfg{
		{stack.KindBIZA, false, "BIZA(no GC)"},
		{stack.KindBIZA, true, "BIZA"},
		{stack.KindBIZANoAvoid, true, "BIZAw/oAvoid"},
		{stack.KindDmzapRAIZN, true, "dmzap+RAIZN"},
		{stack.KindMdraidDmzap, true, "mdraid+dmzap"},
	}
	baseline := map[string]float64{} // depth/size -> BIZA(no GC) p99.99
	for _, c := range cfgs {
		for _, depth := range []int{32, 1} {
			for _, sizeKB := range []int{4, 64, 192} {
				cell := fmt.Sprintf("%s/%d/%d", c.label, depth, sizeKB)
				p, err := r.Platform(c.kind, gcOptions(r.Seed(cell+"/stack"), !c.gc))
				if err != nil {
					panic(err)
				}
				if c.gc {
					dirtyForGC(p, r.Seed(cell+"/dirty"))
					// Keep invalidations flowing during the measurement so
					// GC stays active throughout: an unmeasured, finite
					// background stream over the churned span (finite so
					// the event loop drains when both streams finish).
					bg := sim.NewRNG(r.Seed(cell + "/bg"))
					span := p.Dev.Blocks() * 3 / 5
					bgLeft := s.TraceOps
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
				}
				// Fixed-op sequential foreground over a fresh region: a
				// starved platform shows up as tail latency, not missing
				// samples.
				blocks := sizeKB * 1024 / 4096
				ops := s.TraceOps / 8
				if ops < 200 {
					ops = 200
				}
				fg := &trace.Trace{Name: "fg", BlockSize: 4096}
				span := p.Dev.Blocks() / 4
				if !c.gc {
					span = p.Dev.Blocks() / 32 // same absolute span as the small device
				}
				var lba int64
				for i := 0; i < ops; i++ {
					if lba+int64(blocks) > span {
						lba = 0
					}
					fg.Ops = append(fg.Ops, trace.Op{Write: true, LBA: lba, Blocks: blocks})
					lba += int64(blocks)
				}
				res := trace.Replay(p.Eng, p.Dev, fg, depth)
				p.Eng.Run()
				key := fmt.Sprintf("%d/%d", depth, sizeKB)
				p9999 := float64(res.WriteLat.Percentile(99.99))
				if c.kind == stack.KindBIZA && !c.gc {
					baseline[key] = p9999
				}
				x := 0.0
				if b := baseline[key]; b > 0 {
					x = p9999 / b
				}
				t.Add(c.label, fmt.Sprintf("%d", depth), fmt.Sprintf("%d", sizeKB),
					us(res.WriteLat.Percentile(99)), us(res.WriteLat.Percentile(99.99)), f2(x))
			}
		}
	}
	return t
}
