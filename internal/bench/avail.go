package bench

import (
	"bytes"
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/fault"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

func init() {
	register("avail", Avail)
}

// availHist pairs a latency histogram with the bytes moved in one phase.
type availHist struct {
	h     *metrics.Histogram
	bytes uint64
}

func (a *availHist) add(lat sim.Time, n int) {
	a.h.Record(int64(lat))
	a.bytes += uint64(n)
}

// availPattern is the verifiable payload for (lba, version).
func availPattern(buf []byte, lba int64, version int) {
	for i := range buf {
		buf[i] = byte(lba) ^ byte(version*41) ^ byte(i*7)
	}
}

// Avail measures availability across a member failure: a closed-loop
// read/write workload with byte-verified reads runs while a fault plan
// kills one member mid-run; the array detects the death from completion
// errors, serves reads via parity reconstruction, hot-swaps a spare
// (AutoReplace), and rebuilds. The table reports throughput and latency
// per phase — healthy, faulted (degraded + rebuild), and recovered — plus
// the reconstruction and degraded-write counts attributable to each.
func Avail(s Scale, r *Run) *Table {
	t := &Table{ID: "avail",
		Title:  "availability across member failure and rebuild (byte-verified workload)",
		Header: []string{"phase", "ops", "MBps", "p50_us", "p99_us", "recon", "degraded_writes"}}

	z := stack.BenchZNS(64)
	z.StoreData = true // byte verification needs payloads retained
	p, err := r.Platform(stack.KindBIZA, stack.Options{
		ZNS:         z,
		Seed:        r.Seed("stack"),
		AutoReplace: true,
	})
	if err != nil {
		panic(err)
	}
	c := p.BIZA
	eng := p.Eng
	bs := p.Dev.BlockSize()
	const span = int64(1024) // working set: 4 MiB keeps the rebuild short

	version := make(map[int64]int)
	wInFlight := make(map[int64]bool)

	// Warm the whole working set so every read verifies against a version.
	wbuf := make([]byte, bs)
	for lba := int64(0); lba < span; lba++ {
		version[lba] = 1
		availPattern(wbuf, lba, 1)
		data := make([]byte, bs)
		copy(data, wbuf)
		p.Dev.Write(lba, 1, data, func(res blockdev.WriteResult) {
			if res.Err != nil {
				panic(fmt.Sprintf("avail: warmup write: %v", res.Err))
			}
		})
		if lba%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()

	// The fault plan starts after warmup: member 2 dies one measurement
	// window in. The spare swapped in by AutoReplace sits outside the plan.
	const deadDev = 2
	t0 := eng.Now()
	killAt := t0 + s.Duration
	plan, err := fault.Compile(&fault.Spec{Rules: []fault.Rule{
		fault.KillDevice(deadDev, killAt),
	}}, r.Seed("faults"), len(p.Queues()))
	if err != nil {
		panic(err)
	}
	for i, q := range p.Queues() {
		q.SetInjector(plan.Injector(i))
	}

	const (
		phHealthy = iota
		phFaulted
		phRecovered
		numPhases
	)
	names := [numPhases]string{"healthy", "faulted", "recovered"}
	hists := [numPhases]*availHist{}
	for i := range hists {
		hists[i] = &availHist{h: metrics.NewHistogram()}
	}
	var (
		phase        = phHealthy
		phaseStart   = [numPhases]sim.Time{phHealthy: t0}
		phaseEnd     [numPhases]sim.Time
		reconAt      [numPhases + 1]uint64
		dwAt         [numPhases + 1]uint64
		endAt        = killAt + 60*s.Duration // safety cap, advanced on recovery
		verifyErrors int
	)
	advancePhase := func(now sim.Time) {
		phaseEnd[phase] = now
		reconAt[phase+1] = c.Reconstructions()
		dwAt[phase+1] = c.DegradedWrites()
		phase++
		phaseStart[phase] = now
	}
	classify := func(now sim.Time) int {
		if phase == phHealthy && now >= killAt {
			advancePhase(now)
		}
		if phase == phFaulted && c.Reconstructions() > 0 && !c.Degraded() {
			advancePhase(now)
			endAt = now + s.Duration
		}
		return phase
	}

	rng := sim.NewRNG(r.Seed("workload"))
	var issue func()
	issue = func() {
		now := eng.Now()
		if now >= endAt {
			return
		}
		start := now
		if rng.Intn(10) < 3 { // 30% writes
			lba := rng.Int63n(span)
			if wInFlight[lba] {
				eng.After(sim.Microsecond, issue)
				return
			}
			wInFlight[lba] = true
			v := version[lba] + 1
			version[lba] = v
			data := make([]byte, bs)
			availPattern(data, lba, v)
			p.Dev.Write(lba, 1, data, func(res blockdev.WriteResult) {
				delete(wInFlight, lba)
				if res.Err != nil {
					panic(fmt.Sprintf("avail: write lba=%d: %v", lba, res.Err))
				}
				ph := classify(eng.Now())
				hists[ph].add(eng.Now()-start, bs)
				issue()
			})
			return
		}
		lba := rng.Int63n(span)
		// A write in flight at issue time may or may not have reached the
		// array when the read is served: its predecessor is also legal.
		vLow := version[lba]
		if wInFlight[lba] && vLow > 1 {
			vLow--
		}
		p.Dev.Read(lba, 1, func(res blockdev.ReadResult) {
			if res.Err != nil {
				panic(fmt.Sprintf("avail: read lba=%d: %v", lba, res.Err))
			}
			// Accept any version the block legitimately held while the
			// read was in flight.
			okData := false
			want := make([]byte, bs)
			for v := vLow; v <= version[lba]; v++ {
				availPattern(want, lba, v)
				if bytes.Equal(res.Data, want) {
					okData = true
					break
				}
			}
			if !okData {
				verifyErrors++
			}
			ph := classify(eng.Now())
			hists[ph].add(eng.Now()-start, bs)
			issue()
		})
	}
	const depth = 12
	for i := 0; i < depth; i++ {
		issue()
	}
	eng.Run()

	if verifyErrors > 0 {
		panic(fmt.Sprintf("avail: %d byte-verification failures", verifyErrors))
	}
	if phase != phRecovered {
		panic(fmt.Sprintf("avail: run ended in phase %s — member never rebuilt", names[phase]))
	}
	phaseEnd[phRecovered] = eng.Now()
	reconAt[numPhases] = c.Reconstructions()
	dwAt[numPhases] = c.DegradedWrites()

	for ph := 0; ph < numPhases; ph++ {
		dur := float64(phaseEnd[ph] - phaseStart[ph])
		mbps := 0.0
		if dur > 0 {
			mbps = float64(hists[ph].bytes) / (1 << 20) / (dur / float64(sim.Second))
		}
		t.Add(names[ph],
			fmt.Sprintf("%d", hists[ph].h.Count()),
			f1(mbps),
			us(sim.Time(hists[ph].h.Percentile(50))),
			us(sim.Time(hists[ph].h.Percentile(99))),
			fmt.Sprintf("%d", reconAt[ph+1]-reconAt[ph]),
			fmt.Sprintf("%d", dwAt[ph+1]-dwAt[ph]))
	}
	r.PublishHistogram("avail/faulted_lat", "ns", hists[phFaulted].h)
	return t
}
