package zns

import (
	"bytes"
	"slices"
	"testing"

	"biza/internal/obs"
	"biza/internal/sim"
)

// TestEventsPerCommand pins the engine events each command costs on an idle
// device, and its latency. A fixed latency after a station rides that
// station's completion event: a ZRWA write's buffer write rides the host
// link's, a buffered read's DRAM read the controller's. A ZRWA write's
// controller completion fires only when it will be granted buffer credit:
// behind a full window the write's own events are its link's alone, beside
// the program its implicit commit starts. The counts do not depend on the
// host, so CI gates them (-run EventsPer).
func TestEventsPerCommand(t *testing.T) {
	eng, d := newTestDev(t)
	cfg := d.Config()
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	const n = 4
	size := int64(n * cfg.BlockSize)
	wXfer := size * sim.Second / cfg.DeviceWriteBW
	rXfer := size * sim.Second / cfg.DeviceReadBW
	for _, c := range []struct {
		name   string
		events int // controller, link, channel bus, die, as the path has them
		lat    sim.Time
		submit func(done func(sim.Time, error))
	}{
		{"ZRWA write", 2, cfg.CmdOverhead + wXfer + cfg.BufWriteLatency, func(done func(sim.Time, error)) {
			d.Write(0, 0, n, nil, nil, TagUserData, func(r WriteResult) { done(r.Latency, r.Err) })
		}},
		// The window holds 16 dirty blocks and no credit is left: the write
		// commits 4 of them, whose program (bus, die) releases the credit
		// it takes. Its controller completion would only have found none,
		// and fires no event (it did, for 2 of its own, when a write
		// without credit joined a waiter queue there).
		{"ZRWA write behind a full window", 2 + 1,
			size*sim.Second/cfg.ChannelWriteBW + size*sim.Second/cfg.DieWriteBW + wXfer + cfg.BufWriteLatency,
			func(done func(sim.Time, error)) {
				// Fill the window first, to completion, outside the count.
				if err := d.Open(2, true); err != nil {
					t.Fatal(err)
				}
				writeSync(eng, d, 2, 0, int(cfg.ZRWABlocks), nil, TagUserData)
				d.Write(2, cfg.ZRWABlocks, n, nil, nil, TagUserData, func(r WriteResult) { done(r.Latency, r.Err) })
			}},
		{"buffered read", 2, cfg.CmdOverhead + cfg.BufReadLatency + rXfer, func(done func(sim.Time, error)) {
			d.ReadInto(0, 0, n, nil, false, func(r ReadResult) { done(r.Latency, r.Err) })
		}},
		{"sequential write", 4, cfg.CmdOverhead + wXfer + size*sim.Second/cfg.ChannelWriteBW + size*sim.Second/cfg.DieWriteBW,
			func(done func(sim.Time, error)) {
				d.Write(1, 0, n, nil, nil, TagUserData, func(r WriteResult) { done(r.Latency, r.Err) })
			}},
		{"flash read", 4, cfg.CmdOverhead + size*sim.Second/cfg.ChannelReadBW + cfg.DieReadLatency + size*sim.Second/cfg.DieReadBW + rXfer,
			func(done func(sim.Time, error)) {
				d.ReadInto(1, 0, n, nil, false, func(r ReadResult) { done(r.Latency, r.Err) })
			}},
	} {
		var lat sim.Time
		got := false
		c.submit(func(l sim.Time, err error) {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			lat, got = l, true
		})
		events := 0
		for eng.Step() {
			events++
		}
		if !got {
			t.Fatalf("%s never completed", c.name)
		}
		if events != c.events || lat != c.lat {
			t.Errorf("%s: %d events, latency %d ns; want %d events, %d ns", c.name, events, lat, c.events, c.lat)
		}
	}
}

// TestFusedStagesKeepTheirMarks: a ZRWA write and a buffered read each
// fire one event for two stages, yet the trace still shows both stages
// with their own intervals, so the attribution's stage sums do not move.
func TestFusedStagesKeepTheirMarks(t *testing.T) {
	eng, d := newTestDev(t)
	cfg := d.Config()
	tr := obs.New(obs.Config{})
	d.SetTracer(tr, 0)
	if err := d.Open(0, true); err != nil {
		t.Fatal(err)
	}
	size := int64(cfg.BlockSize)
	xfer := size * sim.Second / cfg.DeviceWriteBW
	writeSync(eng, d, 0, 0, 1, nil, TagUserData)
	rs := eng.Now() + cfg.CmdOverhead // the read's controller is done
	readSync(eng, d, 0, 0, 1)

	type mark struct {
		ph         obs.Phase
		start, end int64
	}
	var got []mark
	for _, r := range tr.Records() {
		if r.Kind == obs.RecMark {
			got = append(got, mark{obs.Phase(r.Sub), r.TS, r.Arg0})
		}
	}
	ws := cfg.CmdOverhead // the write's controller is done
	want := []mark{
		{obs.PhaseXfer, ws, ws + xfer},
		{obs.PhaseBuffer, ws + xfer, ws + xfer + cfg.BufWriteLatency},
		{obs.PhaseBuffer, rs, rs + cfg.BufReadLatency},
		{obs.PhaseXfer, rs + cfg.BufReadLatency, rs + cfg.BufReadLatency + size*sim.Second/cfg.DeviceReadBW},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("marks %v, want %v", got, want)
	}

	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, []*obs.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	a, err := obs.Attribute(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range a.Procs[0].Groups {
		if g.Name != "zns write" {
			continue
		}
		if x, b := g.Stage[obs.StageXfer].Mean(), g.Stage[obs.StageBuffer].Mean(); x != float64(xfer) || b != float64(cfg.BufWriteLatency) {
			t.Fatalf("zns write attributes xfer %.0f ns, buffer %.0f ns; want %d, %d", x, b, xfer, cfg.BufWriteLatency)
		}
		return
	}
	t.Fatal("no zns write group in the attribution")
}
