package bench

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
	"biza/internal/volume"
)

func init() {
	registerPoints("tenants", []string{"baseline", "qos", "noqos"}, Tenants)
	Experiments["tenants"].Assemble = assembleTenants
}

// Tenant experiment sizing. Each array hosts one aggressor (tenant 0)
// plus an even mix of interactive (odd ids) and batch (even ids) tenants,
// every tenant a named volume of the array's volume manager. Per-tenant
// demand derives from fixed per-array aggregates, so array utilization —
// and therefore the isolation comparison — is the same at every Scale.
const (
	tenantWindow = 20 * sim.Microsecond // kick stagger unit and drain step
	tenantZones  = 16                   // zones per member device

	tenantInflight = 8 // manager dispatch window into each array

	aggBlocks   = 32 // 128 KiB aggressor writes
	aggDepth    = 32 // aggressor outstanding ops
	aggVolume   = 4096
	interBlocks = 1 // 4 KiB interactive writes
	interVolume = 128
	interWeight = 16
	batchBlocks = 16 // 64 KiB batch writes
	batchVolume = 512
	batchWeight = 4
	batchBurst  = 128 << 10 // small burst so the throttle binds even at quick scale

	// Ambient per-array offered load, split across however many tenants
	// the Scale provisions (the arrays serve ~5 GB/s, so ~half load:
	// visible queueing without ambient saturation).
	interArrayBytes = 1 << 30 // interactive aggregate per array, bytes/s
	batchArrayBytes = 3 << 29 // batch aggregate per array, bytes/s
	nsPerSec        = int64(1e9)
)

// Tenant classes, in reporting order.
const (
	classInteractive = iota
	classBatch
	classAggressor
	numClasses
)

var className = [numClasses]string{"interactive", "batch", "aggressor"}

func tenantClass(id int) int {
	switch {
	case id == 0:
		return classAggressor
	case id%2 == 1:
		return classInteractive
	default:
		return classBatch
	}
}

// tenantRef is one tenant's workload state. All fields are touched only
// on the owning array's engine goroutine.
type tenantRef struct {
	v     *volume.Volume
	eng   *sim.Engine
	rng   *sim.RNG
	class int
	next  int64 // next sequential lba (aggressor/batch wrap)
	lat   *metrics.Histogram
}

// Tenants is the multi-tenant QoS-isolation experiment: independent
// arrays, one engine each, each multiplexed into tens of tenant volumes
// through internal/volume. The three points share one workload and
// differ only in contention and discipline:
//
//   - baseline: aggressors idle, QoS on — the undisturbed reference.
//   - qos: every array's aggressor saturates it with deep large writes;
//     WFQ + the bounded dispatch window isolate the other tenants.
//   - noqos: same aggression with admission control disabled — the
//     interactive class queues behind the full aggressor backlog.
//
// Every tenant lives entirely on its array's engine and no array talks to
// another, so the arrays run in parallel without a barrier. The assembled
// tenants-isolation table divides each point's interactive p99 by the
// baseline's: the qos row is the paper-style isolation claim (< 2x), the
// noqos row the unbounded counterfactual.
func Tenants(s Scale, r *Run, point string) []*Table {
	numArrays, perArray := s.TenantArrays, s.Tenants
	if numArrays < 1 || perArray < 3 {
		panic("tenants: scale has no tenant sizing")
	}

	cfg := volume.Config{MaxInflight: tenantInflight}
	if point == "noqos" {
		cfg = volume.Config{DisableQoS: true}
	}
	aggressorsRun := point != "baseline"

	// Split the fixed per-array aggregates across this Scale's tenants.
	numInter, numBatch := 0, 0
	for ti := 0; ti < perArray; ti++ {
		switch tenantClass(ti) {
		case classInteractive:
			numInter++
		case classBatch:
			numBatch++
		}
	}
	const tenantBS = 4096 // BenchZNS block size
	interGap := sim.Time(int64(interBlocks*tenantBS) * nsPerSec * int64(numInter) / interArrayBytes)
	batchRate := int64(batchArrayBytes) / int64(numBatch)

	// Construct arrays and their tenants in canonical order, one engine
	// per array. Latency histograms are per tenant — array goroutines must
	// not share one — and merge per class in canonical tenant order after
	// the run.
	engs := make([]*sim.Engine, numArrays)
	tenants := make([]*tenantRef, 0, numArrays*perArray)
	for ai := range engs {
		eng := sim.NewEngine()
		engs[ai] = eng
		p, err := r.PlatformOn(eng, stack.KindBIZA, stack.Options{
			ZNS:  stack.BenchZNS(tenantZones),
			Seed: r.Seed(fmt.Sprintf("%s/stack/a%02d", point, ai)),
		})
		if err != nil {
			panic(fmt.Sprintf("tenants: array %d: %v", ai, err))
		}
		m := volume.New(eng, p.Dev, cfg)
		m.SetTracer(p.Trace())
		for ti := 0; ti < perArray; ti++ {
			class := tenantClass(ti)
			opts := volume.Options{}
			switch class {
			case classAggressor:
				opts = volume.Options{Blocks: aggVolume, QoS: volume.QoS{Weight: 1}}
			case classInteractive:
				opts = volume.Options{Blocks: interVolume, QoS: volume.QoS{Weight: interWeight}}
			case classBatch:
				opts = volume.Options{Blocks: batchVolume, QoS: volume.QoS{
					Weight: batchWeight, RateBytesPerSec: batchRate, BurstBytes: batchBurst}}
			}
			v, err := m.Open(fmt.Sprintf("t%03d", ti), opts)
			if err != nil {
				panic(fmt.Sprintf("tenants: array %d tenant %d: %v", ai, ti, err))
			}
			tenants = append(tenants, &tenantRef{
				v: v, eng: eng, class: class, lat: newLatHist(),
				rng: sim.NewRNG(r.Seed(fmt.Sprintf("%s/tenant/a%02d/t%03d", point, ai, ti))),
			})
		}
	}

	endAt := s.Duration

	// Closed-loop issue functions per class. Completion latencies are
	// end-to-end: token-bucket gating and WFQ queueing included.
	var issue func(t *tenantRef)
	issue = func(t *tenantRef) {
		if t.eng.Now() >= endAt {
			return // tenant retires; in-flight work drains the array
		}
		done := func(res blockdev.WriteResult) {
			if res.Err != nil {
				panic(fmt.Sprintf("tenants: %s write: %v", className[t.class], res.Err))
			}
			t.lat.Record(res.Latency)
			if t.class == classInteractive {
				// Interactive tenants think between requests, jittered
				// around the per-array aggregate pacing gap.
				think := interGap*3/4 + sim.Time(t.rng.Intn(int(interGap/2)))
				t.eng.After(think, func() { issue(t) })
				return
			}
			issue(t)
		}
		switch t.class {
		case classAggressor:
			lba := t.next
			t.next = (t.next + aggBlocks) % aggVolume
			t.v.Write(lba, aggBlocks, nil, done)
		case classInteractive:
			lba := t.rng.Int63n(interVolume - interBlocks + 1)
			t.v.Write(lba, interBlocks, nil, done)
		case classBatch:
			lba := t.next
			t.next = (t.next + batchBlocks) % batchVolume
			t.v.Write(lba, batchBlocks, nil, done)
		}
	}

	// Kick every tenant with a staggered start. Aggressors prime their
	// full depth.
	for _, t := range tenants {
		if t.class == classAggressor && !aggressorsRun {
			continue
		}
		at := tenantWindow + sim.Time(t.rng.Intn(int(4*tenantWindow)))
		t.eng.At(at, func() {
			n := 1
			if t.class == classAggressor {
				n = aggDepth
			}
			for i := 0; i < n; i++ {
				issue(t)
			}
		})
	}

	if !r.runArrays(engs, endAt, tenantWindow, endAt+100*sim.Millisecond) {
		panic("tenants: arrays did not quiesce after the measured horizon")
	}

	// Per-class aggregation in canonical tenant order.
	secs := float64(endAt) / float64(sim.Second)
	tbl := &Table{ID: "tenants",
		Title: fmt.Sprintf("multi-tenant QoS isolation: %d arrays x %d tenants",
			numArrays, perArray),
		LabelCols: 2,
		Header: []string{"point", "class", "tenants", "ops", "MBps",
			"p50_us", "p99_us", "stalls", "jain"}}
	for class := 0; class < numClasses; class++ {
		var count int
		var ops, bytes, stalls uint64
		var perTenant []float64
		h := newLatHist()
		for _, t := range tenants {
			if t.class != class {
				continue
			}
			st := t.v.Stats()
			count++
			ops += st.Ops
			bytes += st.Bytes
			stalls += st.ThrottleStalls
			perTenant = append(perTenant, float64(st.Ops))
			h.Merge(t.lat)
		}
		tbl.Add(point, className[class],
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%d", ops),
			f1(float64(bytes)/(1<<20)/secs),
			us(sim.Time(h.Percentile(50))),
			us(sim.Time(h.Percentile(99))),
			fmt.Sprintf("%d", stalls),
			f3(metrics.JainIndex(perTenant)))
		r.PublishHistogram(fmt.Sprintf("tenants/%s/%s", point, className[class]), "ns", h)
	}
	return []*Table{tbl}
}

// assembleTenants merges the per-point tables and derives the isolation
// table: each point's interactive p99 normalized to the idle baseline.
func assembleTenants(parts [][]*Table) []*Table {
	out := mergeParts(parts)
	iso := &Table{ID: "tenants-isolation",
		Title:  "interactive p99 under aggressor saturation, vs idle baseline",
		Header: []string{"point", "p99_us", "vs_baseline"}}
	c := &cells{tables: out}
	var base float64
	for _, row := range out[0].Rows {
		if row[1] != className[classInteractive] {
			continue
		}
		label := row[0] + "/" + row[1]
		p99 := c.num("tenants", label, "p99_us")
		if row[0] == "baseline" {
			base = p99
		}
		ratio := "0"
		if base > 0 {
			ratio = f2(p99 / base)
		}
		iso.Add(row[0], c.text("tenants", label, "p99_us"), ratio)
	}
	if c.err != nil {
		panic("tenants: " + c.err.Error())
	}
	return append(out, iso)
}
