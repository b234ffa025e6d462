package bench

import (
	"fmt"

	"biza/internal/blockdev"
	"biza/internal/core"
	"biza/internal/metrics"
	"biza/internal/sim"
	"biza/internal/stack"
)

func init() {
	registerPoints("rolling", []string{"unpaced", "paced", "slow"}, Rolling)
	Experiments["rolling"].Assemble = assembleRolling
}

// Rolling-replacement sizing. Arrays are independent — every event of an
// array stays on its own engine — so rollWindow only staggers the client
// starts and steps the drain.
const (
	rollWindow   = 20 * sim.Microsecond
	rollZones    = 16   // zones per member device
	rollOpBlocks = 8    // 32 KiB per foreground op
	rollSpan     = 2048 // per-array working set, blocks (8 MiB)
	rollClients  = 6    // closed-loop foreground clients per array

	// rollSLO is the foreground p99 availability budget the rolling phase
	// is held to. The paced points must stay inside it; the unpaced
	// rebuild — every remaining stripe dissolved at once, four members in
	// a row — must blow it. Virtual nanoseconds.
	rollSLO = 800 * sim.Microsecond
)

// rollKnob is one point's rebuild-rate setting: how many stripes dissolve
// concurrently per rebuild step and how long the rebuild idles between
// steps — the rebuild-rate versus foreground-latency knob of a paced
// device replacement.
type rollKnob struct {
	per int   // stripes per step (0 = the whole rebuild in one step)
	gap int64 // virtual idle between steps, ns
}

var rollKnobs = map[string]rollKnob{
	"unpaced": {per: 0, gap: 0},
	"paced":   {per: 8, gap: 100_000},
	"slow":    {per: 2, gap: 300_000},
}

// Foreground phases, classified by op issue time against the array's own
// rolling window: before the first replacement starts, while a member is
// being replaced, and after the last replacement completed.
const (
	rollHealthy = iota
	rollRolling
	rollAfter
	numRollPhases
)

var rollPhaseName = [numRollPhases]string{"healthy", "rolling", "after"}

// rollArray is one array under rolling replacement. All fields are
// touched only on the array's engine goroutine (or from the caller
// before/after the arrays run).
type rollArray struct {
	eng     *sim.Engine
	p       *stack.Platform
	members int

	rollEnd sim.Time // when the last member's rebuild completed
	stripes int64    // stripes the rebuilds dissolved

	next    int64 // next sequential write lba (wraps over the span)
	written int64 // high-water mark of written lbas (read eligibility)

	ops [numRollPhases]int64
	lat [numRollPhases]*metrics.Histogram
}

// Rolling is the availability experiment for paced device replacement: a
// closed-loop foreground workload runs against BIZA arrays (one engine
// each) while a rolling device replacement — member 0 replaced, then
// member 1 once its rebuild completes, and so on — starts mid-run at
// three rebuild-rate settings.
// Foreground latency is classified into healthy / rolling / after phases
// by issue time, and the assembled rolling-slo table holds each point's
// rolling-phase p99 against a fixed budget: pacing the rebuild keeps the
// array inside its SLO at the cost of a longer replacement window, while
// the unpaced rebuild violates it.
func Rolling(s Scale, r *Run, point string) []*Table {
	numArrays := s.RollingArrays
	if numArrays < 1 {
		panic("rolling: scale has no rolling sizing")
	}
	knob, ok := rollKnobs[point]
	if !ok {
		panic(fmt.Sprintf("rolling: unknown point %q", point))
	}
	// Construct arrays in canonical order, one engine each.
	arrays := make([]*rollArray, numArrays)
	engs := make([]*sim.Engine, numArrays)
	for i := range arrays {
		engs[i] = sim.NewEngine()
		p, err := r.PlatformOn(engs[i], stack.KindBIZA, stack.Options{
			ZNS:  stack.BenchZNS(rollZones),
			Seed: r.Seed(fmt.Sprintf("%s/stack/a%02d", point, i)),
		})
		if err != nil {
			panic(fmt.Sprintf("rolling: array %d: %v", i, err))
		}
		a := &rollArray{eng: engs[i], p: p, members: len(p.Queues())}
		for ph := range a.lat {
			a.lat[ph] = metrics.NewHistogram()
		}
		arrays[i] = a
	}

	endAt := s.Duration
	rollStart := 2 * s.Duration / 5
	afterTail := s.Duration / 5

	// Closed-loop foreground clients, 40% writes. Completion
	// latency is recorded under the phase the op was issued in. A client
	// retires once the nominal horizon has passed AND its array's rolling
	// window has been closed for afterTail — slow rebuilds outlive the
	// nominal duration by design, and the after phase needs samples at
	// every rebuild rate. Retirement depends only on the owning array's
	// state.
	var issue func(a *rollArray, rng *sim.RNG)
	issue = func(a *rollArray, rng *sim.RNG) {
		eng := a.eng
		start := eng.Now()
		if start >= endAt && a.rollEnd != 0 && start >= a.rollEnd+afterTail {
			return // client retires; in-flight work drains the array
		}
		ph := rollHealthy
		if start >= rollStart {
			if a.rollEnd == 0 {
				ph = rollRolling
			} else {
				ph = rollAfter
			}
		}
		finish := func(op string, err error) {
			if err != nil {
				panic(fmt.Sprintf("rolling: %s: %v", op, err))
			}
			a.ops[ph]++
			a.lat[ph].Record(int64(eng.Now() - start))
			issue(a, rng)
		}
		if a.written == 0 || rng.Intn(10) < 4 { // 40% writes
			lba := a.next
			a.next = (a.next + rollOpBlocks) % rollSpan
			if a.written < rollSpan {
				a.written = lba + rollOpBlocks
			}
			a.p.Dev.Write(lba, rollOpBlocks, nil, func(res blockdev.WriteResult) {
				finish("write", res.Err)
			})
			return
		}
		lim := a.written - rollOpBlocks + 1
		if lim < 1 {
			lim = 1
		}
		lba := rng.Int63n(lim)
		a.p.Dev.Read(lba, rollOpBlocks, func(res blockdev.ReadResult) {
			finish("read", res.Err)
		})
	}

	// Kick every client with a staggered start.
	for ai, a := range arrays {
		for ci := 0; ci < rollClients; ci++ {
			rng := sim.NewRNG(r.Seed(fmt.Sprintf("%s/client/a%02d/c%02d", point, ai, ci)))
			at := rollWindow + sim.Time(rng.Intn(int(4*rollWindow)))
			a.eng.At(at, func() { issue(a, rng) })
		}
	}

	// Mid-run, replace every member in device order: each rebuild's
	// completion starts the next, and the last one closes the array's
	// rolling window.
	ctl := core.RebuildControl{StripesPerStep: knob.per, StepGap: sim.Time(knob.gap)}
	for _, a := range arrays {
		ctl := ctl
		ctl.OnProgress = func(done, total int) {
			if done == total {
				a.stripes += int64(total)
			}
		}
		var replace func(d int)
		replace = func(d int) {
			a.p.ReplaceDevicePaced(d, ctl, func(err error) {
				if err != nil {
					panic(fmt.Sprintf("rolling: replace dev %d: %v", d, err))
				}
				if d+1 < a.members {
					replace(d + 1)
				} else {
					a.rollEnd = a.eng.Now()
				}
			})
		}
		a.eng.At(rollStart, func() { replace(0) })
	}

	// Slow rebuilds outlive the measured horizon by design; the drain
	// bound only caps the virtual tail.
	if !r.runArrays(engs, endAt, rollWindow, endAt+2*sim.Second) {
		panic("rolling: arrays did not quiesce after the measured horizon")
	}

	// Every rolling window must have closed: the last rebuild completed.
	var stripes int64
	var window sim.Time
	for ai, a := range arrays {
		stripes += a.stripes
		if a.rollEnd == 0 {
			panic(fmt.Sprintf("rolling: array %d rolling window never closed", ai))
		}
		window += a.rollEnd - rollStart
	}

	// Per-phase foreground latency, arrays merged in canonical order.
	tbl := &Table{ID: "rolling",
		Title: fmt.Sprintf("foreground latency across rolling replacement: %d arrays x %d clients",
			numArrays, rollClients),
		LabelCols: 2,
		Header:    []string{"point", "phase", "ops", "p50_us", "p99_us"}}
	for ph := 0; ph < numRollPhases; ph++ {
		h := metrics.NewHistogram()
		var ops int64
		for _, a := range arrays {
			h.Merge(a.lat[ph])
			ops += a.ops[ph]
		}
		tbl.Add(point, rollPhaseName[ph],
			fmt.Sprintf("%d", ops),
			us(sim.Time(h.Percentile(50))),
			us(sim.Time(h.Percentile(99))))
		if ph == rollRolling {
			r.PublishHistogram(fmt.Sprintf("rolling/%s/rolling", point), "ns", h)
		}
	}

	// Per-point replacement window (mean across arrays) and rebuild volume.
	win := &Table{ID: "rolling-window",
		Title:  "replacement window (submit of first job to completion of last) and rebuild volume",
		Header: []string{"point", "window_ms", "stripes", "jobs"}}
	win.Add(point,
		f2(float64(window)/float64(numArrays)/float64(sim.Millisecond)),
		fmt.Sprintf("%d", stripes),
		fmt.Sprintf("%d", numArrays*arrays[0].members))
	return []*Table{tbl, win}
}

// assembleRolling merges the per-point tables and derives the SLO table:
// each point's rolling-phase p99 against the fixed availability budget,
// paired with the replacement window it bought.
func assembleRolling(parts [][]*Table) []*Table {
	out := mergeParts(parts)
	budget := float64(rollSLO) / 1000 // µs
	slo := &Table{ID: "rolling-slo",
		Title:  "foreground p99 during rolling replacement vs availability budget",
		Header: []string{"point", "roll_p99_us", "slo_us", "window_ms", "verdict"}}
	c := &cells{tables: out}
	for _, row := range out[1].Rows {
		roll := row[0] + "/" + rollPhaseName[rollRolling]
		verdict := "ok"
		if c.num("rolling", roll, "p99_us") > budget {
			verdict = "violated"
		}
		slo.Add(row[0], c.text("rolling", roll, "p99_us"), f1(budget), row[1], verdict)
	}
	if c.err != nil {
		panic("rolling: " + c.err.Error())
	}
	return append(out, slo)
}
