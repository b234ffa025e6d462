package bench

import (
	"fmt"
	"strconv"

	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/workload"
	"biza/internal/zns"
)

func init() {
	register("table2", Table2Presets)
	registerPoints("table3", []string{"single", "same", "diverse"}, table3Point)
	registerPoints("fig5", []string{"4", "16", "64", "128", "192"}, fig5Point)
	registerPoints("fig10", kindNames(microKinds(false)), fig10Point)
	registerPoints("fig11", kindNames(microKinds(true)), fig11Point)
	registerPoints("fig17", kindNames([]stack.Kind{stack.KindBIZA, stack.KindDmzapRAIZN,
		stack.KindMdraidDmzap, stack.KindMdraidConvSSD}), fig17Point)
}

// kindNames converts platform kinds to registry point keys.
func kindNames(kinds []stack.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// atoiPoint parses a numeric point key (registered from a literal list).
func atoiPoint(point string) int {
	v, err := strconv.Atoi(point)
	if err != nil {
		panic(fmt.Sprintf("bench: bad numeric point %q: %v", point, err))
	}
	return v
}

// Table2Presets reproduces Table 2: ZRWA configurations of commodity ZNS
// SSDs, straight from the device presets.
func Table2Presets(Scale, *Run) *Table {
	t := &Table{ID: "table2", Title: "ZRWA-related configurations of different ZNS SSDs",
		Header: []string{"device", "zone_cap_MB", "zrwa_per_zone_KB", "max_open", "total_zrwa_MB"}}
	for _, cfg := range []zns.Config{zns.ZN540(1), zns.J5500Z(1), zns.NS8600G(1), zns.PM1731a(1)} {
		t.Add(cfg.Name,
			fmt.Sprintf("%d", cfg.ZoneBytes()>>20),
			fmt.Sprintf("%d", cfg.ZRWABytes()>>10),
			fmt.Sprintf("%d", cfg.MaxOpenZones),
			f2(float64(cfg.TotalZRWABytes())/(1<<20)))
	}
	return t
}

// zoneStream drives a closed-loop 64 KiB write stream into one zone,
// rolling to the stride-linked next zone when full.
func zoneStream(eng *sim.Engine, dev *zns.Device, firstZone, stride, depth int,
	blocks int, lat func(sim.Time), bytes *int64) {
	zone := new(int)
	*zone = firstZone
	next := new(int64)
	cfg := dev.Config()
	if err := dev.Open(*zone, true); err != nil {
		panic(err)
	}
	var submit func()
	submit = func() {
		if *next+int64(blocks) > cfg.ZoneBlocks {
			*zone += stride
			if *zone >= cfg.NumZones {
				return
			}
			*next = 0
			dev.Open(*zone, true)
		}
		lba := *next
		*next += int64(blocks)
		dev.Write(*zone, lba, blocks, nil, nil, zns.TagUserData, func(r zns.WriteResult) {
			if r.Err != nil {
				return
			}
			if lat != nil {
				lat(r.Latency)
			}
			*bytes += int64(blocks) * int64(cfg.BlockSize)
			submit()
		})
	}
	for i := 0; i < depth; i++ {
		submit()
	}
}

func table3Header() *Table {
	return &Table{ID: "table3", Title: "write performance in different zone placements (64 KiB)",
		Header: []string{"scenario", "bandwidth_MBps", "avg_lat_us", "p50_us", "p9999_us"}}
}

// table3Point runs one zone-placement scenario of Table 3: 64 KiB writes
// on a single zone, two zones sharing an I/O channel, or two zones on
// diverse channels.
func table3Point(s Scale, r *Run, point string) []*Table {
	t := table3Header()
	scenarios := map[string]struct {
		label string
		zones []int
	}{
		"single":  {"1. single zone", []int{0}},
		"same":    {"2. two zones, identical channel", []int{0, 8}}, // 8 channels round-robin
		"diverse": {"3. two zones, diverse channels", []int{0, 1}},
	}
	sc := scenarios[point]
	eng := r.NewEngine()
	cfg := stack.BenchZNS(256)
	cfg.Seed = r.Seed(point + "/dev")
	dev, err := zns.New(eng, cfg)
	if err != nil {
		panic(err)
	}
	hist := metrics.NewHistogram()
	var bytes int64
	for _, z := range sc.zones {
		zoneStream(eng, dev, z, cfg.NumChannels*len(sc.zones), 8, 16, hist.Record, &bytes)
	}
	eng.RunUntil(s.Duration)
	r.PublishHistogram(point+"/lat", "ns", hist)
	mbps := float64(bytes) / 1e6 / (float64(s.Duration) / 1e9)
	t.Add(sc.label, f1(mbps), us(sim.Time(hist.Mean())), us(hist.Percentile(50)), us(hist.Percentile(99.99)))
	return []*Table{t}
}

// fig5Point runs one request size of Fig. 5: single-zone write throughput
// with 1 versus 32 in-flight writes.
func fig5Point(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig5", Title: "intra-zone parallelism: 1 vs 32 in-flight writes",
		Header: []string{"size_KB", "inflight1_MBps", "inflight32_MBps", "retained"}}
	sizeKB := atoiPoint(point)
	blocks := sizeKB * 1024 / 4096
	run := func(depth int) float64 {
		eng := r.NewEngine()
		cfg := stack.BenchZNS(256)
		cfg.Seed = r.Seed(fmt.Sprintf("%d/depth%d/dev", sizeKB, depth))
		dev, err := zns.New(eng, cfg)
		if err != nil {
			panic(err)
		}
		var bytes int64
		zoneStream(eng, dev, 0, 8, depth, blocks, nil, &bytes)
		eng.RunUntil(s.Duration)
		return float64(bytes) / 1e6 / (float64(s.Duration) / 1e9)
	}
	d1, d32 := run(1), run(32)
	retained := 0.0
	if d32 > 0 {
		retained = d1 / d32
	}
	t.Add(fmt.Sprintf("%d", sizeKB), f1(d1), f1(d32), f2(retained))
	return []*Table{t}
}

// microKinds lists the platforms of the Fig. 10/11 grid in row order.
func microKinds(read bool) []stack.Kind {
	kinds := append([]stack.Kind{}, stack.AllBlockPlatforms...)
	if !read {
		kinds = append(kinds, stack.KindRAIZN)
	}
	return kinds
}

func microGridTables(read bool) (tput, lat *Table) {
	tput = &Table{Title: "throughput (MB/s)",
		Header: []string{"platform", "seq4K", "seq64K", "seq192K", "rand4K", "rand64K", "rand192K"}}
	lat = &Table{Title: "average latency (us)", Header: tput.Header}
	if read {
		tput.ID, lat.ID = "fig11a", "fig11b"
		tput.Title = "read " + tput.Title
		lat.Title = "read " + lat.Title
	} else {
		tput.ID, lat.ID = "fig10a", "fig10b"
		tput.Title = "write " + tput.Title
		lat.Title = "write " + lat.Title
	}
	return tput, lat
}

// microGridPoint runs one platform row of the fio grid of Fig. 10/11.
func microGridPoint(s Scale, r *Run, read bool, kind stack.Kind) []*Table {
	tput, lat := microGridTables(read)
	trow := []string{string(kind)}
	lrow := []string{string(kind)}
	for _, pattern := range []workload.Pattern{workload.Seq, workload.Rand} {
		for _, sizeKB := range []int{4, 64, 192} {
			if kind == stack.KindRAIZN && pattern == workload.Rand {
				trow = append(trow, "-")
				lrow = append(lrow, "-")
				continue
			}
			cell := fmt.Sprintf("%s/%s/%d", kind, pattern, sizeKB)
			p, err := r.Platform(kind, stack.Options{Seed: r.Seed(cell + "/stack")})
			if err != nil {
				panic(err)
			}
			span := p.Dev.Blocks() / 2
			if read {
				workload.Precondition(p.Eng, p.Dev, span, 16)
			}
			res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
				Pattern: pattern, Read: read,
				SizeBlocks: sizeKB * 1024 / 4096,
				IODepth:    32, Duration: s.Duration,
				SpanBlocks: span, Seed: r.Seed(cell + "/wl"),
			})
			r.PublishHistogram(cell+"/lat", "ns", res.Lat)
			trow = append(trow, f1(res.Throughput().MBps()))
			lrow = append(lrow, f1(res.Lat.Mean()/1000))
		}
	}
	tput.Add(trow...)
	lat.Add(lrow...)
	return []*Table{tput, lat}
}

func fig10Point(s Scale, r *Run, point string) []*Table {
	return microGridPoint(s, r, false, stack.Kind(point))
}

func fig11Point(s Scale, r *Run, point string) []*Table {
	return microGridPoint(s, r, true, stack.Kind(point))
}

// fig17Point runs one platform of Fig. 17: per-component CPU usage and
// CPU efficiency for 64 and 192 KiB sequential writes.
func fig17Point(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig17", Title: "CPU overhead: usage% by component and CPU per GB/s",
		LabelCols: 2,
		Header:    []string{"platform", "size_KB", "mdraid%", "dmzap%", "raizn%", "biza%", "io%", "GBps", "cpu%_per_GBps"}}
	kind := stack.Kind(point)
	for _, sizeKB := range []int{64, 192} {
		cell := fmt.Sprintf("%s/%d", kind, sizeKB)
		p, err := r.Platform(kind, stack.Options{Seed: r.Seed(cell + "/stack")})
		if err != nil {
			panic(err)
		}
		res := workload.RunMicro(p.Eng, p.Dev, workload.MicroSpec{
			Pattern: workload.Seq, SizeBlocks: sizeKB * 1024 / 4096,
			IODepth: 32, Duration: s.Duration, Seed: r.Seed(cell + "/wl"),
		})
		elapsed := res.Elapsed
		gbps := res.Throughput().GBps()
		total := p.Acct.TotalPercent(elapsed)
		eff := 0.0
		if gbps > 0 {
			eff = total / gbps
		}
		t.Add(string(kind), fmt.Sprintf("%d", sizeKB),
			f1(p.Acct.UsagePercent(0, elapsed)), // mdraid
			f1(p.Acct.UsagePercent(1, elapsed)), // dmzap
			f1(p.Acct.UsagePercent(2, elapsed)), // raizn
			f1(p.Acct.UsagePercent(3, elapsed)), // biza
			f1(p.Acct.UsagePercent(4, elapsed)), // io
			f2(gbps), f1(eff))
	}
	return []*Table{t}
}
