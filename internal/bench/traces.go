package bench

import (
	"fmt"

	"biza/internal/core"
	"biza/internal/stack"
	"biza/internal/trace"
	"biza/internal/workload"
)

func init() {
	register("table6", Table6Workloads)
	register("fig4", Fig4ReuseCDF)
	registerPoints("fig12", profileNames(), fig12Point)
	registerPoints("fig14", profileNames(), fig14Point)
	registerPoints("fig16", []string{"4", "16", "64", "256", "1024"}, fig16Point)
}

// profileNames lists the Table 6 trace workloads in row order.
func profileNames() []string {
	out := make([]string, len(workload.Profiles))
	for i := range workload.Profiles {
		out[i] = workload.Profiles[i].Name
	}
	return out
}

// Table6Workloads reproduces Table 6: characteristics of the synthesized
// trace workloads.
func Table6Workloads(s Scale, r *Run) *Table {
	t := &Table{ID: "table6", Title: "workload characteristics",
		Header: []string{"workload", "write_ratio_%", "avg_read_KB", "avg_write_KB", "beyond56MB_%"}}
	for _, p := range workload.Profiles {
		tr := p.Synthesize(r.Seed("trace/"+p.Name), s.TraceOps)
		st := tr.Characterize()
		t.Add(p.Name, f1(st.WriteRatio*100), f1(st.AvgReadBytes/1024),
			f1(st.AvgWriteBytes/1024), f1(tr.FractionBeyond(56<<20)*100))
	}
	return t
}

// Fig4ReuseCDF reproduces Fig. 4: the cumulative distribution of write
// reuse distances for the SYSTOR-like population.
func Fig4ReuseCDF(s Scale, r *Run) *Table {
	t := &Table{ID: "fig4", Title: "CDF of reuse distance (SYSTOR-like population)",
		Header: []string{"threshold", "cdf"}}
	tr := workload.SystorReusePopulation(r.Seed("population"), s.TraceOps*3)
	thresholds := []int64{1 << 20, 4 << 20, 14 << 20, 56 << 20, 128 << 20, 512 << 20, 2 << 30}
	labels := []string{"1MB", "4MB", "14MB", "56MB", "128MB", "512MB", "2GB"}
	cdf := tr.ReuseCDF(thresholds)
	for i, v := range cdf {
		t.Add(labels[i], f3(v))
	}
	return t
}

// traceKinds are the platforms compared on production traces (Fig. 12).
var traceKinds = []stack.Kind{stack.KindBIZA, stack.KindDmzapRAIZN,
	stack.KindMdraidDmzap, stack.KindMdraidConvSSD}

// preconditionFootprint writes the trace's address footprint once so
// reads hit mapped data and the arrays start with realistic occupancy,
// then zeroes the accounting.
func preconditionFootprint(p *stack.Platform, tr *trace.Trace) {
	span := tr.Footprint()
	if max := p.Dev.Blocks() / 2; span > max {
		span = max
	}
	workload.Precondition(p.Eng, p.Dev, span, 16)
	p.Flush()
	p.ResetAccounting()
}

// fig12Point replays one production-like trace on each block platform
// (footprint preconditioned).
func fig12Point(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig12", Title: "throughput in I/O traces (MB/s)",
		Header: []string{"workload", "BIZA", "dmzap+RAIZN", "mdraid+dmzap", "mdraid+ConvSSD"}}
	prof := workload.ProfileByName(point)
	row := []string{prof.Name}
	tr := prof.Synthesize(r.Seed("trace/"+prof.Name), s.TraceOps)
	for _, kind := range traceKinds {
		p, err := r.Platform(kind, stack.Options{Seed: r.Seed(prof.Name + "/" + string(kind) + "/stack")})
		if err != nil {
			panic(err)
		}
		preconditionFootprint(p, tr)
		res := trace.Replay(p.Eng, p.Dev, tr, 32)
		row = append(row, f1(res.Throughput().MBps()))
	}
	t.Add(row...)
	return []*Table{t}
}

// fig14Point measures one trace of Fig. 14: flash write counts normalized
// to user writes, split into data and parity, across platforms. The
// "no cache" and "ideal" reference bars are analytic bounds computed from
// the trace itself.
func fig14Point(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig14", Title: "write counts normalized to user writes (data+parity)",
		Header: []string{"workload", "BIZA", "BIZAw/oSel", "dmzap+RAIZN", "mdraid+dmzap", "nocache", "ideal"}}
	kinds := []stack.Kind{stack.KindBIZA, stack.KindBIZANoSel, stack.KindDmzapRAIZN, stack.KindMdraidDmzap}
	prof := workload.ProfileByName(point)
	tr := prof.Synthesize(r.Seed("trace/"+prof.Name), s.TraceOps)
	row := []string{prof.Name}
	for _, kind := range kinds {
		opts := stack.Options{Seed: r.Seed(prof.Name + "/" + string(kind) + "/stack")}
		if kind == stack.KindDmzapRAIZN {
			// §5.4 equips RAIZN with the same 56 MB write buffer.
			opts.RAIZNStripeCacheBytes = 56 << 20
		}
		p, err := r.Platform(kind, opts)
		if err != nil {
			panic(err)
		}
		preconditionFootprint(p, tr)
		// Commit write buffers and drain background work (mdraid
		// timer flushes, GC) before reading the flash counters.
		trace.Replay(p.Eng, p.Dev, tr, 32)
		p.Flush()
		wa := p.FlashWriteAmp()
		row = append(row, fmt.Sprintf("%s(%s+%s)", f2(wa.Factor()), f2(wa.DataFactor()), f2(wa.ParityFactor())))
	}
	// Analytic references: nocache writes every chunk and a parity
	// update per chunk; ideal writes only first-touches plus one final
	// parity per k chunks of unique data.
	st := tr.Characterize()
	unique := 0.0
	if st.WrittenBytes > 0 {
		unique = float64(uniqueWriteBytes(tr)) / float64(st.WrittenBytes)
	}
	k := 3.0
	row = append(row,
		fmt.Sprintf("%s(%s+%s)", f2(2.0), f2(1.0), f2(1.0)),
		fmt.Sprintf("%s(%s+%s)", f2(unique*(1+1/k)), f2(unique), f2(unique/k)))
	t.Add(row...)
	return []*Table{t}
}

func uniqueWriteBytes(tr *trace.Trace) uint64 {
	seen := make(map[int64]bool)
	var bytes uint64
	for _, op := range tr.Ops {
		if !op.Write {
			continue
		}
		for i := 0; i < op.Blocks; i++ {
			if !seen[op.LBA+int64(i)] {
				seen[op.LBA+int64(i)] = true
				bytes += uint64(tr.BlockSize)
			}
		}
	}
	return bytes
}

// fig16Point runs one ZRWA size of Fig. 16: normalized write counts as
// the ZRWA size per open zone varies, on casa and online.
func fig16Point(s Scale, r *Run, point string) []*Table {
	t := &Table{ID: "fig16", Title: "write count vs ZRWA size (normalized to user writes)",
		Header: []string{"zrwa_KB", "casa_data", "casa_parity", "online_data", "online_parity"}}
	zrwaKB := atoiPoint(point)
	row := []string{fmt.Sprintf("%d", zrwaKB)}
	for _, name := range []string{"casa", "online"} {
		prof := workload.ProfileByName(name)
		tr := prof.Synthesize(r.Seed("trace/"+name), s.TraceOps)
		zcfg := stack.BenchZNS(128)
		zcfg.ZRWABlocks = int64(zrwaKB) * 1024 / 4096
		ccfg := core.DefaultConfig(zcfg.NumZones)
		cell := fmt.Sprintf("%d/%s", zrwaKB, name)
		p, err := r.Platform(stack.KindBIZA, stack.Options{ZNS: zcfg, BIZAConfig: &ccfg,
			Seed: r.Seed(cell + "/stack")})
		if err != nil {
			panic(err)
		}
		preconditionFootprint(p, tr)
		trace.Replay(p.Eng, p.Dev, tr, 32)
		p.Flush()
		wa := p.FlashWriteAmp()
		row = append(row, f3(wa.DataFactor()), f3(wa.ParityFactor()))
	}
	t.Add(row...)
	return []*Table{t}
}
